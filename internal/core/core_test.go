package core

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/exec"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/sem"
)

func interpret(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := predict(prog, opts)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	return rep
}

// predict runs the production prediction path: CompilePrediction, then
// Evaluate.
func predict(prog *hir.Program, opts Options) (*Report, error) {
	c, err := CompilePrediction(context.Background(), prog, nil, opts)
	if err != nil {
		return nil, err
	}
	return c.Evaluate(context.Background())
}

// measure runs the program on the deterministic simulator.
func measure(t *testing.T, src string) float64 {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
	cfg.PerturbAmp = 0
	cfg.TimerResUS = 0
	m, err := ipsc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(prog, m, exec.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.MeasuredUS
}

func errPct(est, meas float64) float64 {
	return math.Abs(est-meas) / meas * 100
}

const piSrcN = `PROGRAM pi
PARAMETER (N = %N%)
REAL F(%N%)
!HPF$ PROCESSORS P(%P%)
!HPF$ DISTRIBUTE F(BLOCK) ONTO P
H = 1.0 / REAL(N)
FORALL (K=1:N) F(K) = 4.0 / (1.0 + ((REAL(K)-0.5)*H)**2)
API = H * SUM(F)
END`

func piSrc(n, p int) string {
	s := strings.ReplaceAll(piSrcN, "%N%", strconv.Itoa(n))
	return strings.ReplaceAll(s, "%P%", strconv.Itoa(p))
}

func TestSAAGStructure(t *testing.T) {
	rep := interpret(t, piSrc(1024, 4), DefaultOptions())
	g := rep.SAAG
	if g.Count() < 5 {
		t.Errorf("AAG has only %d AAUs", g.Count())
	}
	kinds := map[Kind]int{}
	g.Walk(func(a *AAU) { kinds[a.Kind]++ })
	if kinds[IterD] < 2 {
		t.Errorf("IterD AAUs = %d, want >= 2 (forall + reduction)", kinds[IterD])
	}
	if kinds[Comm] < 1 {
		t.Errorf("Comm AAUs = %d, want >= 1 (reduce)", kinds[Comm])
	}
	if len(g.Table) < 1 {
		t.Error("communication table empty")
	}
}

func TestCommTableFilled(t *testing.T) {
	rep := interpret(t, piSrc(1024, 4), DefaultOptions())
	found := false
	for _, rec := range rep.SAAG.Table {
		if rec.Kind == CommReduce {
			found = true
			if rec.CostUS <= 0 || rec.Count != 1 {
				t.Errorf("reduce rec = %+v", rec)
			}
		}
	}
	if !found {
		t.Error("no reduce entry in comm table")
	}
}

func TestPredictionPositiveAndDecomposed(t *testing.T) {
	rep := interpret(t, piSrc(4096, 4), DefaultOptions())
	if rep.TotalUS() <= 0 {
		t.Fatal("zero prediction")
	}
	if rep.Total.CompUS <= 0 || rep.Total.CommUS <= 0 {
		t.Errorf("breakdown = %+v", rep.Total)
	}
	sum := rep.Total.CompUS + rep.Total.CommUS + rep.Total.OvhdUS
	if math.Abs(sum-rep.TotalUS()) > 1e-9 {
		t.Error("components do not sum to total")
	}
}

func TestAccuracyPiAcrossSizes(t *testing.T) {
	for _, n := range []int{128, 512, 4096} {
		for _, p := range []int{1, 2, 4, 8} {
			src := piSrc(n, p)
			est := interpret(t, src, DefaultOptions()).TotalUS()
			meas := measure(t, src)
			if e := errPct(est, meas); e > 20 {
				t.Errorf("PI n=%d p=%d: est=%.1fus meas=%.1fus err=%.1f%%", n, p, est, meas, e)
			}
		}
	}
}

func laplaceSrc(n, iters int, dist string, procs string) string {
	return `PROGRAM lap
PARAMETER (N = ` + strconv.Itoa(n) + `, MAXIT = ` + strconv.Itoa(iters) + `)
REAL U(N,N), V(N,N)
!HPF$ PROCESSORS P` + procs + `
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T` + dist + ` ONTO P
FORALL (I=1:N, J=1:N) U(I,J) = 0.0
FORALL (J=1:N) U(1,J) = 100.0
DO ITER = 1, MAXIT
  FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25*(U(I-1,J)+U(I+1,J)+U(I,J-1)+U(I,J+1))
  FORALL (I=2:N-1, J=2:N-1) U(I,J) = V(I,J)
END DO
END`
}

func TestAccuracyLaplace(t *testing.T) {
	for _, cse := range []struct{ dist, procs string }{
		{"(BLOCK,BLOCK)", "(2,2)"},
		{"(BLOCK,*)", "(4)"},
		{"(*,BLOCK)", "(4)"},
	} {
		src := laplaceSrc(64, 5, cse.dist, cse.procs)
		est := interpret(t, src, DefaultOptions()).TotalUS()
		meas := measure(t, src)
		if e := errPct(est, meas); e > 15 {
			t.Errorf("Laplace %s: est=%.0f meas=%.0f err=%.1f%%", cse.dist, est, meas, e)
		}
	}
}

func TestDirectiveRankingMatchesMeasurement(t *testing.T) {
	// The key §5.2.1 claim: predicted ordering of distributions matches
	// the measured ordering.
	type r struct {
		name     string
		est, mea float64
	}
	var rs []r
	for _, cse := range []struct{ name, dist, procs string }{
		{"BB", "(BLOCK,BLOCK)", "(2,2)"},
		{"BX", "(BLOCK,*)", "(4)"},
		{"XB", "(*,BLOCK)", "(4)"},
	} {
		src := laplaceSrc(128, 4, cse.dist, cse.procs)
		rs = append(rs, r{cse.name,
			interpret(t, src, DefaultOptions()).TotalUS(),
			measure(t, src)})
	}
	for i := range rs {
		for j := range rs {
			if i == j {
				continue
			}
			if (rs[i].est < rs[j].est) != (rs[i].mea < rs[j].mea) {
				t.Errorf("ranking mismatch: %s est=%.0f mea=%.0f vs %s est=%.0f mea=%.0f",
					rs[i].name, rs[i].est, rs[i].mea, rs[j].name, rs[j].est, rs[j].mea)
			}
		}
	}
}

func TestCriticalVariableTracing(t *testing.T) {
	// M is assigned from a constant expression before use as a bound.
	src := `PROGRAM c
PARAMETER (N = 64)
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
INTEGER M
M = N / 2
DO I = 1, M
  FORALL (K=1:N) A(K) = A(K) + 1.0
END DO
END`
	rep := interpret(t, src, DefaultOptions())
	if rep.TotalUS() <= 0 {
		t.Error("prediction failed with traced critical variable")
	}
}

func TestUnresolvableBoundErrors(t *testing.T) {
	src := `PROGRAM c
PARAMETER (N = 64)
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
INTEGER M
M = INT(A(1))
DO I = 1, M
  X = X + 1.0
END DO
END`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = predict(prog, DefaultOptions())
	if err == nil {
		t.Fatal("want unresolved-bounds error, got nil")
	}
	// The error must name the blocking definition and its source line
	// (M is assigned from a distributed array element at line 7).
	for _, want := range []string{"loop bounds of I", "blocked by", "M", "line 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestUserSuppliedCriticalValue(t *testing.T) {
	src := `PROGRAM c
PARAMETER (N = 64)
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
INTEGER M
M = INT(A(1))
DO I = 1, M
  X = X + 1.0
END DO
END`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Values = map[string]sem.Value{"M": sem.IntVal(10)}
	rep, err := predict(prog, opts)
	if err != nil {
		t.Fatalf("interpret with user value: %v", err)
	}
	if rep.TotalUS() <= 0 {
		t.Error("no prediction")
	}
}

func TestTripCountOverrideForWhile(t *testing.T) {
	src := `PROGRAM c
!HPF$ PROCESSORS P(1)
X = 1.0
DO WHILE (X .LT. 100.0)
  X = X * 2.0
END DO
END`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Without a trip count the while loop is an unresolved critical value.
	if _, err := predict(prog, DefaultOptions()); err == nil {
		t.Error("want error without trip count")
	}
	opts := DefaultOptions()
	opts.TripCounts = map[int]int{4: 7}
	rep, err := predict(prog, opts)
	if err != nil {
		t.Fatalf("with trip count: %v", err)
	}
	if rep.TotalUS() <= 0 {
		t.Error("no prediction")
	}
}

func TestMaskDensityScalesCost(t *testing.T) {
	src := `PROGRAM c
PARAMETER (N = 1024)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N, B(K) .GT. 0.0) A(K) = SQRT(B(K))
END`
	full := DefaultOptions()
	half := DefaultOptions()
	half.MaskDensity = 0.5
	tf := interpret(t, src, full).TotalUS()
	th := interpret(t, src, half).TotalUS()
	if th >= tf {
		t.Errorf("mask density 0.5 should predict less time: %.1f vs %.1f", th, tf)
	}
}

func TestLoadModelAblation(t *testing.T) {
	// N=10 on 4 procs: block sizes 3,3,3,1 — max-loaded predicts more
	// compute than average.
	src := `PROGRAM c
PARAMETER (N = 10)
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
DO IT = 1, 100
  FORALL (K=1:N) A(K) = A(K)*1.5 + 2.0
END DO
END`
	maxOpts := DefaultOptions()
	avgOpts := DefaultOptions()
	avgOpts.LoadModel = Average
	tm := interpret(t, src, maxOpts).TotalUS()
	ta := interpret(t, src, avgOpts).TotalUS()
	if tm <= ta {
		t.Errorf("max-loaded %.1f should exceed average %.1f", tm, ta)
	}
}

func TestByLineMetrics(t *testing.T) {
	rep := interpret(t, piSrc(1024, 4), DefaultOptions())
	// Line 7 is the forall; it must carry compute time.
	m := rep.LineMetrics(7)
	if m.TotalUS() <= 0 {
		t.Errorf("line 7 metrics = %+v", m)
	}
	rng := rep.LineRangeMetrics(1, 100)
	if math.Abs(rng.TotalUS()-rep.TotalUS()) > rep.TotalUS()*0.01 {
		t.Errorf("line-range sum %.1f != total %.1f", rng.TotalUS(), rep.TotalUS())
	}
}

func TestScalarIfBranchResolution(t *testing.T) {
	src := `PROGRAM c
PARAMETER (N = 512)
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
MODE = 1
IF (MODE .EQ. 1) THEN
  FORALL (K=1:N) A(K) = 1.0
ELSE
  DO IT = 1, 1000
    FORALL (K=1:N) A(K) = A(K) + 1.0
  END DO
END IF
END`
	rep := interpret(t, src, DefaultOptions())
	// The ELSE branch (1000 iterations) must not be charged.
	quick := interpret(t, strings.Replace(src, "MODE = 1", "MODE = 2", 1), DefaultOptions())
	if rep.TotalUS() >= quick.TotalUS()/10 {
		t.Errorf("branch resolution failed: then=%.1f else=%.1f", rep.TotalUS(), quick.TotalUS())
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", rep.Warnings)
	}
}

func TestDumpWithMetrics(t *testing.T) {
	rep := interpret(t, piSrc(256, 4), DefaultOptions())
	d := rep.SAAG.Dump()
	if !strings.Contains(d, "IterD") || !strings.Contains(d, "comp=") {
		t.Errorf("dump missing metrics:\n%s", d)
	}
}

func TestSingleProcessorNoComm(t *testing.T) {
	rep := interpret(t, piSrc(512, 1), DefaultOptions())
	if rep.Total.CommUS != 0 {
		t.Errorf("single-node comm = %.2f, want 0", rep.Total.CommUS)
	}
}

func TestInterpretationMuchCheaperThanSimulation(t *testing.T) {
	// Cost-effectiveness (§5.3): interpretation work must not grow with
	// the data size the way execution does. We check it completes and
	// produces a sane value for a large size quickly.
	rep := interpret(t, piSrc(65536, 8), DefaultOptions())
	if rep.TotalUS() <= 0 {
		t.Error("no prediction for large problem")
	}
}

func TestGlobalClockMonotone(t *testing.T) {
	rep := interpret(t, piSrc(512, 4), DefaultOptions())
	last := 0.0
	for _, a := range rep.SAAG.Root.Children {
		if a.ClockUS < last {
			t.Fatalf("clock went backwards at AAU %d (%s): %g < %g", a.ID, a.Label, a.ClockUS, last)
		}
		last = a.ClockUS
	}
	final := rep.SAAG.Root.Children[len(rep.SAAG.Root.Children)-1].ClockUS
	if math.Abs(final-rep.TotalUS()) > rep.TotalUS()*0.01 {
		t.Errorf("final clock %g != total %g", final, rep.TotalUS())
	}
}

func TestSAAGConsumerEdges(t *testing.T) {
	rep := interpret(t, piSrc(512, 4), DefaultOptions())
	// The reduce communication must feed a following computation or be
	// terminal; at least one comm record should carry a consumer edge in a
	// multi-statement program.
	linked := 0
	for _, rec := range rep.SAAG.Table {
		if rec.Consumer != 0 {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no SAAG consumer edges recorded")
	}
}

func TestSubgraphMetrics(t *testing.T) {
	rep := interpret(t, piSrc(512, 4), DefaultOptions())
	total := SubgraphMetrics(rep.SAAG.Root)
	if math.Abs(total.TotalUS()-rep.TotalUS()) > 1e-9 {
		t.Errorf("subgraph total %g != report total %g", total.TotalUS(), rep.TotalUS())
	}
	// A loop AAU's subgraph must include its body's time.
	var loop *AAU
	rep.SAAG.Walk(func(a *AAU) {
		if loop == nil && a.Kind == IterD {
			loop = a
		}
	})
	if loop == nil {
		t.Fatal("no IterD AAU")
	}
	sub := SubgraphMetrics(loop)
	if sub.TotalUS() <= loop.Metrics.TotalUS() {
		t.Error("subgraph should exceed the loop's self time")
	}
	if rep.SAAG.FindAAU(loop.ID) != loop {
		t.Error("FindAAU lookup failed")
	}
	if rep.SAAG.FindAAU(99999) != nil {
		t.Error("FindAAU should return nil for unknown IDs")
	}
}

func TestCriticalVariables(t *testing.T) {
	src := `PROGRAM cv
PARAMETER (NN = 64)
REAL A(NN)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
INTEGER M
M = NN/2
MODE = 1
DO I = 1, M
  FORALL (K=1:NN) A(K) = A(K) + 1.0
END DO
IF (MODE .GT. 0) THEN
  X = 1.0
END IF
END`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cvs := CriticalVariables(prog)
	names := map[string]CriticalVariable{}
	for _, cv := range cvs {
		names[cv.Name] = cv
	}
	if _, ok := names["M"]; !ok {
		t.Errorf("M (loop bound) should be critical: %v", cvs)
	}
	if _, ok := names["MODE"]; !ok {
		t.Errorf("MODE (branch condition) should be critical: %v", cvs)
	}
	if cv, ok := names["M"]; ok && (cv.Uses == 0 || len(cv.Lines) == 0) {
		t.Errorf("M record incomplete: %+v", cv)
	}
	// Forall index K is a private loop variable, not a user scalar read in
	// the bound expressions.
	if _, ok := names["K"]; ok {
		t.Error("K should not be listed")
	}
}
