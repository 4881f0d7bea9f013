package compiler

import (
	"strings"
	"testing"

	"hpfperf/internal/hir"
)

func compile(t *testing.T, src string) *hir.Program {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func compileErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Compile(src)
	if err == nil {
		t.Fatal("want compile error")
	}
	return err
}

// collect returns all statements of the program in pre-order.
func collect(p *hir.Program) []hir.Stmt {
	var out []hir.Stmt
	var walk func(ss []hir.Stmt)
	walk = func(ss []hir.Stmt) {
		for _, s := range ss {
			out = append(out, s)
			switch x := s.(type) {
			case *hir.Loop:
				walk(x.Body)
			case *hir.While:
				walk(x.Body)
			case *hir.If:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(p.Body)
	return out
}

func countKind[T hir.Stmt](p *hir.Program) int {
	n := 0
	for _, s := range collect(p) {
		if _, ok := s.(T); ok {
			n++
		}
	}
	return n
}

func firstOf[T hir.Stmt](p *hir.Program) T {
	for _, s := range collect(p) {
		if x, ok := s.(T); ok {
			return x
		}
	}
	var zero T
	return zero
}

const hdr1D = `PROGRAM t
PARAMETER (N = 64)
REAL A(N), B(N), C(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ ALIGN C(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
`

// TestCompiledProgramDropsTypeMaps: a compiled program can be cached for
// the life of a server, so it must not keep sem's per-expression type
// and shape maps, which only the lowering reads.
func TestCompiledProgramDropsTypeMaps(t *testing.T) {
	p := compile(t, hdr1D+"A = B + C\nEND")
	if p.Info.Types != nil || p.Info.Shapes != nil {
		t.Errorf("compiled program keeps %d types and %d shapes", len(p.Info.Types), len(p.Info.Shapes))
	}
	if p.Info.Prog == nil || p.Info.Symbols["A"] == nil {
		t.Error("compiled program lost its AST or symbols")
	}
}

func TestAlignedElementwiseNoComm(t *testing.T) {
	p := compile(t, hdr1D+"A = B + C\nEND")
	if n := countKind[*hir.Shift](p); n != 0 {
		t.Errorf("shifts = %d, want 0", n)
	}
	if n := countKind[*hir.AllGather](p); n != 0 {
		t.Errorf("gathers = %d, want 0", n)
	}
	loop := firstOf[*hir.Loop](p)
	if loop == nil {
		t.Fatal("no loop generated")
	}
	if loop.Par == nil {
		t.Fatal("elementwise loop should be partitioned")
	}
	if loop.Par.Array != "A" || loop.Par.Dim != 0 {
		t.Errorf("par = %+v", loop.Par)
	}
}

func TestStencilInsertsShifts(t *testing.T) {
	p := compile(t, hdr1D+"A(2:N-1) = B(1:N-2) + B(3:N)\nEND")
	shifts := 0
	offsets := map[int]bool{}
	for _, s := range collect(p) {
		if sh, ok := s.(*hir.Shift); ok {
			shifts++
			offsets[sh.Offset] = true
			if sh.Array != "B" {
				t.Errorf("shift array = %s", sh.Array)
			}
		}
	}
	if shifts != 2 || !offsets[-1] || !offsets[1] {
		t.Errorf("shifts = %d offsets %v, want ±1", shifts, offsets)
	}
}

func TestForallStencilShift(t *testing.T) {
	p := compile(t, hdr1D+"FORALL (K=2:N-1) A(K) = B(K-1) + B(K+1)\nEND")
	if n := countKind[*hir.Shift](p); n != 2 {
		t.Errorf("shifts = %d, want 2", n)
	}
	loop := firstOf[*hir.Loop](p)
	if loop.Par == nil || loop.Par.Offset != 0 {
		t.Errorf("par = %+v", loop.Par)
	}
	if loop.Label != "FORALL" {
		t.Errorf("label = %s", loop.Label)
	}
}

func TestSelfOverlapBuffers(t *testing.T) {
	// X(K+1) = X(K) + X(K-1): LHS overlaps RHS with nonzero offsets.
	p := compile(t, hdr1D+"FORALL (K=2:N-1) A(K) = A(K-1) + A(K+1)\nEND")
	if len(p.Temps) == 0 {
		t.Fatal("self-referencing forall should allocate a buffer temp")
	}
	loops := 0
	for _, s := range collect(p) {
		if l, ok := s.(*hir.Loop); ok {
			loops++
			_ = l
		}
	}
	if loops != 2 {
		t.Errorf("loops = %d, want write + copy", loops)
	}
}

func TestNoBufferWhenIdentityAligned(t *testing.T) {
	p := compile(t, hdr1D+"A = A + B\nEND")
	if len(p.Temps) != 0 {
		t.Errorf("identity-aligned self reference should not buffer, temps = %v", p.Temps)
	}
}

func TestMaskedForallProducesIf(t *testing.T) {
	p := compile(t, hdr1D+"FORALL (K=1:N, B(K) .GT. 0.0) A(K) = 1.0/B(K)\nEND")
	iff := firstOf[*hir.If](p)
	if iff == nil {
		t.Fatal("mask should lower to a conditional")
	}
}

func TestWhereLowering(t *testing.T) {
	src := hdr1D + `WHERE (B .GT. 0.0)
A = 1.0/B
ELSEWHERE
A = 0.0
END WHERE
END`
	p := compile(t, src)
	ifs := countKind[*hir.If](p)
	if ifs != 2 {
		t.Errorf("ifs = %d, want 2 (where + elsewhere)", ifs)
	}
	loops := countKind[*hir.Loop](p)
	if loops != 2 {
		t.Errorf("loops = %d, want 2", loops)
	}
}

func TestSumReduction(t *testing.T) {
	p := compile(t, hdr1D+"S = SUM(A)\nEND")
	red := firstOf[*hir.Reduce](p)
	if red == nil {
		t.Fatal("no Reduce emitted")
	}
	if red.Op != hir.RSum {
		t.Errorf("op = %v", red.Op)
	}
	loop := firstOf[*hir.Loop](p)
	if loop.Par == nil || loop.Par.Array != "A" {
		t.Errorf("reduction loop par = %+v", loop.Par)
	}
}

func TestDotProduct(t *testing.T) {
	p := compile(t, hdr1D+"S = DOT_PRODUCT(A, B)\nEND")
	if red := firstOf[*hir.Reduce](p); red == nil || red.Op != hir.RSum {
		t.Fatalf("reduce = %+v", red)
	}
	if n := countKind[*hir.AllGather](p); n != 0 {
		t.Errorf("aligned dot product should not gather, gathers = %d", n)
	}
}

func TestMaxloc(t *testing.T) {
	p := compile(t, hdr1D+"K = MAXLOC(A)\nEND")
	red := firstOf[*hir.Reduce](p)
	if red == nil || red.Op != hir.RMaxLoc || red.LocSrc == "" {
		t.Fatalf("reduce = %+v", red)
	}
}

func TestReductionOverExpression(t *testing.T) {
	p := compile(t, hdr1D+"S = SUM(A*B + 2.0*C)\nEND")
	if red := firstOf[*hir.Reduce](p); red == nil {
		t.Fatal("no Reduce for expression sum")
	}
	if n := countKind[*hir.AllGather](p); n != 0 {
		t.Errorf("aligned expression should not gather, got %d", n)
	}
}

func TestReductionOfReplicatedArrayNoComm(t *testing.T) {
	src := `PROGRAM t
PARAMETER (N = 16)
REAL R(N)
!HPF$ PROCESSORS P(4)
R = 1.0
S = SUM(R)
END`
	p := compile(t, src)
	if n := countKind[*hir.Reduce](p); n != 0 {
		t.Errorf("replicated reduction needs no collective, got %d", n)
	}
}

func TestCshiftDirect(t *testing.T) {
	p := compile(t, hdr1D+"B = CSHIFT(A, 1)\nEND")
	cs := firstOf[*hir.CShift](p)
	if cs == nil {
		t.Fatal("no CShift emitted")
	}
	if cs.Dst != "B" || cs.Src != "A" || cs.Dim != 0 {
		t.Errorf("cshift = %+v", cs)
	}
	// Direct form: no copy loop.
	if n := countKind[*hir.Loop](p); n != 0 {
		t.Errorf("direct cshift should not loop, loops = %d", n)
	}
}

func TestCshiftInExpression(t *testing.T) {
	p := compile(t, hdr1D+"A = B + CSHIFT(C, 1)\nEND")
	cs := firstOf[*hir.CShift](p)
	if cs == nil {
		t.Fatal("no CShift emitted")
	}
	if cs.Src != "C" || !strings.HasPrefix(cs.Dst, "$A") {
		t.Errorf("cshift = %+v", cs)
	}
	if n := countKind[*hir.Loop](p); n != 1 {
		t.Errorf("loops = %d, want 1", n)
	}
}

func TestEoshiftWithBoundary(t *testing.T) {
	p := compile(t, hdr1D+"B = EOSHIFT(A, 1, 0.0)\nEND")
	eo := firstOf[*hir.EOShift](p)
	if eo == nil {
		t.Fatal("no EOShift emitted")
	}
	if eo.Boundary == nil {
		t.Error("boundary expression missing")
	}
}

func TestTshift(t *testing.T) {
	p := compile(t, hdr1D+"B = TSHIFT(A, 2)\nEND")
	if eo := firstOf[*hir.EOShift](p); eo == nil {
		t.Fatal("TSHIFT should lower to EOShift")
	}
}

func TestSequentialDoWithDistributedReadsGathers(t *testing.T) {
	src := hdr1D + `S = 0.0
DO I = 1, N
  S = S + A(I)
END DO
END`
	p := compile(t, src)
	// A is not written in the loop: one hoisted AllGather, no per-iteration
	// fetches.
	if n := countKind[*hir.AllGather](p); n != 1 {
		t.Errorf("gathers = %d, want 1", n)
	}
	if n := countKind[*hir.FetchElem](p); n != 0 {
		t.Errorf("fetches = %d, want 0", n)
	}
}

func TestSequentialDoWritingArrayFetchesPerIteration(t *testing.T) {
	src := hdr1D + `DO I = 2, N
  A(I) = A(I-1) + 1.0
END DO
END`
	p := compile(t, src)
	if n := countKind[*hir.FetchElem](p); n != 1 {
		t.Errorf("fetches = %d, want 1 (inside loop)", n)
	}
	if n := countKind[*hir.AllGather](p); n != 0 {
		t.Errorf("gathers = %d, want 0 (A is written)", n)
	}
	asg := firstOf[*hir.Assign](p)
	if asg == nil || !asg.Guard {
		t.Error("distributed element store must be owner-guarded")
	}
}

func TestScalarAssignTopLevelFetch(t *testing.T) {
	p := compile(t, hdr1D+"X = A(5)\nEND")
	fe := firstOf[*hir.FetchElem](p)
	if fe == nil {
		t.Fatal("reading one distributed element should FetchElem")
	}
	if fe.Array != "A" {
		t.Errorf("fetch array = %s", fe.Array)
	}
}

func TestReplicatedLHSIndirectionFallsBackRedundant(t *testing.T) {
	src := `PROGRAM t
PARAMETER (N = 32)
REAL RHO(N), CHA(N)
INTEGER IR(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN CHA(I) WITH T(I)
!HPF$ ALIGN IR(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) RHO(IR(K)) = CHA(K)
END`
	p := compile(t, src)
	loop := firstOf[*hir.Loop](p)
	if loop.Par != nil {
		t.Error("indirect write to replicated array should run redundantly")
	}
	if n := countKind[*hir.AllGather](p); n < 2 {
		t.Errorf("gathers = %d, want >= 2 (IR and CHA)", n)
	}
}

func TestIndirectionWriteToDistributedRejected(t *testing.T) {
	src := hdr1D + `FORALL (K=1:N) A(INT(B(K))) = C(K)
END`
	err := compileErr(t, src)
	if !strings.Contains(err.Error(), "affine") {
		t.Errorf("err = %v", err)
	}
}

func TestIndirectionReadGathers(t *testing.T) {
	src := `PROGRAM t
PARAMETER (N = 32)
REAL A(N), EX(N)
INTEGER IX(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN IX(I) WITH T(I)
!HPF$ ALIGN EX(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) A(K) = EX(IX(K))
END`
	p := compile(t, src)
	found := false
	for _, s := range collect(p) {
		if g, ok := s.(*hir.AllGather); ok && g.Array == "EX" {
			found = true
		}
	}
	if !found {
		t.Error("indirect read should AllGather EX")
	}
}

func TestTwoDimBlockBlock(t *testing.T) {
	src := `PROGRAM t
PARAMETER (N = 16)
REAL U(N,N), V(N,N)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK) ONTO P
FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25*(U(I-1,J)+U(I+1,J)+U(I,J-1)+U(I,J+1))
END`
	p := compile(t, src)
	if n := countKind[*hir.Shift](p); n != 4 {
		t.Errorf("shifts = %d, want 4", n)
	}
	loops := 0
	for _, s := range collect(p) {
		if l, ok := s.(*hir.Loop); ok {
			loops++
			if l.Par == nil {
				t.Error("both forall loops should be partitioned")
			}
		}
	}
	if loops != 2 {
		t.Errorf("loops = %d, want 2", loops)
	}
	if len(p.Temps) != 0 {
		t.Error("U is not the LHS; no buffering expected")
	}
}

func TestBlockStarRowSweep(t *testing.T) {
	src := `PROGRAM t
PARAMETER (N = 16)
REAL U(N,N), V(N,N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25*(U(I-1,J)+U(I+1,J)+U(I,J-1)+U(I,J+1))
END`
	p := compile(t, src)
	// Only the row dimension is distributed: shifts along dim 0 only.
	for _, s := range collect(p) {
		if sh, ok := s.(*hir.Shift); ok && sh.Dim != 0 {
			t.Errorf("unexpected shift on dim %d", sh.Dim)
		}
	}
	if n := countKind[*hir.Shift](p); n != 2 {
		t.Errorf("shifts = %d, want 2 (±1 rows)", n)
	}
	// The loop over the collapsed (column) dim is sequential and, after
	// the locality interchange, runs outermost; the partitioned row loop
	// is innermost (stride-1 in column-major order).
	var loops []*hir.Loop
	for _, s := range collect(p) {
		if l, ok := s.(*hir.Loop); ok {
			loops = append(loops, l)
		}
	}
	if len(loops) != 2 || loops[0].Par != nil || loops[1].Par == nil {
		t.Errorf("loop partitioning wrong: %v %v", loops[0].Par, loops[1].Par)
	}
	if loops[1].Par.Dim != 0 {
		t.Errorf("inner loop should partition dim 0, got %d", loops[1].Par.Dim)
	}
}

func TestIfWithScalarCondition(t *testing.T) {
	src := hdr1D + `X = 1.0
IF (X .GT. 0.5) THEN
  A = B
ELSE
  A = C
END IF
END`
	p := compile(t, src)
	iff := firstOf[*hir.If](p)
	if iff == nil || len(iff.Then) == 0 || len(iff.Else) == 0 {
		t.Fatalf("if = %+v", iff)
	}
}

func TestPrintLowered(t *testing.T) {
	p := compile(t, hdr1D+"X = 1.0\nPRINT *, 'x', X\nEND")
	pr := firstOf[*hir.Print](p)
	if pr == nil || len(pr.Args) != 2 {
		t.Fatalf("print = %+v", pr)
	}
}

func TestGuardOnDistributedScalarStore(t *testing.T) {
	p := compile(t, hdr1D+"A(3) = 1.0\nEND")
	asg := firstOf[*hir.Assign](p)
	if asg == nil || !asg.Guard {
		t.Error("store to distributed element must be guarded")
	}
}

func TestNoGuardOnReplicatedStore(t *testing.T) {
	src := `PROGRAM t
REAL R(8)
!HPF$ PROCESSORS P(2)
R(3) = 1.0
END`
	p := compile(t, src)
	asg := firstOf[*hir.Assign](p)
	if asg == nil || asg.Guard {
		t.Error("store to replicated element must not be guarded")
	}
}

func TestNestedReductionRejected(t *testing.T) {
	compileErr(t, hdr1D+"FORALL (K=1:N) A(K) = SUM(B(1:K))\nEND")
}

func TestSizeFoldsToConstant(t *testing.T) {
	p := compile(t, hdr1D+"X = SIZE(A)\nEND")
	asg := firstOf[*hir.Assign](p)
	c, ok := asg.Rhs.(*hir.Const)
	if !ok || c.Val.I != 64 {
		t.Errorf("SIZE(A) = %v", asg.Rhs)
	}
}

func TestOpCountsOnAssign(t *testing.T) {
	p := compile(t, hdr1D+"FORALL (K=1:N) A(K) = B(K)*C(K) + 2.0\nEND")
	asg := firstOf[*hir.Assign](p)
	if asg.Cost.FMul != 1 || asg.Cost.FAdd != 1 {
		t.Errorf("cost = %+v", asg.Cost)
	}
	if asg.Cost.Store != 1 {
		t.Errorf("stores = %d", asg.Cost.Store)
	}
	if asg.Cost.Load < 2 {
		t.Errorf("loads = %d", asg.Cost.Load)
	}
}

func TestCyclicDistributionCompiles(t *testing.T) {
	src := `PROGRAM t
PARAMETER (N = 32)
REAL X(N), Y(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN X(I) WITH T(I)
!HPF$ ALIGN Y(I) WITH T(I)
!HPF$ DISTRIBUTE T(CYCLIC) ONTO P
FORALL (K=1:N) X(K) = Y(K) + 1.0
S = SUM(X)
END`
	p := compile(t, src)
	if n := countKind[*hir.Shift](p); n != 0 {
		t.Errorf("aligned cyclic should not shift, got %d", n)
	}
	if red := firstOf[*hir.Reduce](p); red == nil {
		t.Error("cyclic reduction should emit Reduce")
	}
}

func TestCyclicStencilShifts(t *testing.T) {
	src := `PROGRAM t
PARAMETER (N = 32)
REAL X(N), Y(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN X(I) WITH T(I)
!HPF$ ALIGN Y(I) WITH T(I)
!HPF$ DISTRIBUTE T(CYCLIC) ONTO P
FORALL (K=2:N-1) X(K) = Y(K-1) + Y(K+1)
END`
	p := compile(t, src)
	if n := countKind[*hir.Shift](p); n != 2 {
		t.Errorf("cyclic stencil shifts = %d, want 2", n)
	}
}

func TestDumpRuns(t *testing.T) {
	p := compile(t, hdr1D+"A = B + C\nS = SUM(A)\nPRINT *, S\nEND")
	d := p.Dump()
	if !strings.Contains(d, "SPMD PROGRAM") || !strings.Contains(d, "REDUCE") {
		t.Errorf("dump missing content:\n%s", d)
	}
}
