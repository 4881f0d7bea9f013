package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/obs"
	"hpfperf/internal/sem"
	"hpfperf/internal/suite"
)

// The differential equivalence suite: the closure-compiled prediction
// core must produce exactly — bit for bit — the report the reference
// tree-walking interpreter produces, across every program we can get our
// hands on (testdata, the paper's validation suite, the fuzz corpora,
// randomized control-flow programs) and across repeated memoized
// evaluations. InterpretTree is the reference implementation;
// CompilePrediction + Evaluate is the production path.

// diffOne asserts tree-walking and compiled interpretation of src agree
// exactly — same report or same error — and reports whether the pair
// actually ran. Sources that do not compile are skipped (fuzz corpora
// contain plenty). With traced set, the compiled form is also built and
// evaluated under a live tracer: that result must match too, and its
// span tree must be well formed.
func diffOne(t *testing.T, name, src string, opts Options, traced bool) bool {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		return false
	}
	itTree, err := New(prog, nil, opts)
	if err != nil {
		return false
	}
	treeRep, treeErr := itTree.InterpretTree()

	compRep, compErr := predict(prog, opts)
	sameResult(t, name+" compiled", treeRep, treeErr, compRep, compErr)
	if traced {
		tracer := obs.NewTracer(obs.NewTraceID())
		root := tracer.Root("equiv")
		ctx := obs.ContextWithSpan(context.Background(), root)
		c, err := CompilePrediction(ctx, prog, nil, opts)
		if err != nil {
			t.Fatalf("%s: traced CompilePrediction: %v", name, err)
		}
		tracedRep, tracedErr := c.Evaluate(ctx)
		root.End()
		sameResult(t, name+" traced", compRep, compErr, tracedRep, tracedErr)
		sameResult(t, name+" traced", treeRep, treeErr, tracedRep, tracedErr)
		checkPredictionSpans(t, name, tracer.Tree(), tracedRep)
	}
	return true
}

// sameResult asserts two interpretations agree exactly: the same report,
// or the same error text.
func sameResult(t *testing.T, name string, want *Report, wantErr error, got *Report, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error divergence: want %v, got %v", name, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text divergence:\n want: %v\n got:  %v", name, wantErr, gotErr)
		}
		return
	}
	if d := DiffReports(want, got); d != "" {
		t.Fatalf("%s: report divergence: %s", name, d)
	}
}

// checkPredictionSpans asserts the span tree of one traced compile +
// evaluate is well formed: no orphans, every child inside its parent's
// window, the compile stages present, and — when the evaluation
// succeeded — one top-level interp.<kind> span per top-level AAU, each
// naming its AAU kind.
func checkPredictionSpans(t *testing.T, name string, tree *obs.Tree, rep *Report) {
	t.Helper()
	if tree.Orphans != 0 {
		t.Fatalf("%s: %d orphan spans", name, tree.Orphans)
	}
	kinds := make(map[string]bool)
	for k := Root; k <= IO; k++ {
		kinds["interp."+k.String()] = true
	}
	seen := make(map[string]int)
	walked := 0
	tree.Root.Walk(func(_ int, n *obs.Node) {
		walked++
		seen[n.Name]++
		if strings.HasPrefix(n.Name, "interp.") && !kinds[n.Name] {
			t.Errorf("%s: span %q names no AAU kind", name, n.Name)
		}
		end := n.StartUS + n.DurUS*1.01 + 1
		for _, c := range n.Children {
			if c.DurUS < 0 || c.StartUS+1 < n.StartUS || c.StartUS+c.DurUS > end {
				t.Errorf("%s: span %s escapes parent %s", name, c.Name, n.Name)
			}
		}
	})
	if walked != tree.Spans {
		t.Fatalf("%s: tree holds %d of %d spans", name, walked, tree.Spans)
	}
	for _, stage := range []string{"core.compile", "core.saag"} {
		if seen[stage] != 1 {
			t.Errorf("%s: %d %s spans, want 1", name, seen[stage], stage)
		}
	}
	if rep == nil {
		return
	}
	if seen["analysis.trace"] != 1 {
		t.Errorf("%s: %d analysis.trace spans, want 1", name, seen["analysis.trace"])
	}
	top := 0
	for _, n := range tree.Root.Children {
		if strings.HasPrefix(n.Name, "interp.") {
			top++
		}
	}
	if want := len(rep.SAAG.Root.Children); top != want {
		t.Errorf("%s: %d top-level interp spans, want one per top-level AAU (%d)", name, top, want)
	}
}

// equivOptionVariants are the interpretation configurations every
// program is differentially tested under.
func equivOptionVariants() map[string]Options {
	trips := make(map[int]int)
	for l := 1; l <= 400; l++ {
		trips[l] = 7
	}
	ablation := Options{
		MemoryModel:     false,
		LoadModel:       Average,
		MaskDensity:     0.3,
		BranchProb:      0.7,
		TripCounts:      trips,
		SimpleCommModel: true,
	}
	pinned := DefaultOptions()
	pinned.Values = map[string]sem.Value{
		"N": sem.IntVal(12), "M": sem.IntVal(5), "ITERS": sem.IntVal(4), "NITER": sem.IntVal(3),
	}
	pinned.TripCounts = map[int]int{}
	for l := 1; l <= 400; l++ {
		pinned.TripCounts[l] = 3
	}
	return map[string]Options{
		"default":  DefaultOptions(),
		"ablation": ablation,
		"pinned":   pinned,
	}
}

func TestEquivTestdataPrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	variants := equivOptionVariants()
	ran := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for vn, opts := range variants {
			if diffOne(t, filepath.Base(f)+"/"+vn, string(b), opts, true) {
				ran++
			}
		}
	}
	if ran < len(files) {
		t.Errorf("only %d of %d testdata programs x variants ran", ran, len(files)*len(variants))
	}
}

func TestEquivSuitePrograms(t *testing.T) {
	variants := equivOptionVariants()
	for _, p := range suite.All() {
		sizes := []int{p.Sizes[0], p.Sizes[len(p.Sizes)-1]}
		procs := []int{p.Procs[0], p.Procs[len(p.Procs)-1]}
		for _, n := range sizes {
			for _, np := range procs {
				src := p.Source(n, np)
				for vn, opts := range variants {
					diffOne(t, fmt.Sprintf("%s/n%d/p%d/%s", p.Name, n, np, vn), src, opts, false)
				}
			}
		}
	}
}

// TestEquivFuzzCorpus replays the committed compiler fuzz corpus (go
// fuzz v1 format) through both engines.
func TestEquivFuzzCorpus(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("..", "compiler", "testdata", "fuzz", "FuzzCompile", "*"))
	if len(files) == 0 {
		t.Skip("no compiler fuzz corpus present")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				continue
			}
			diffOne(t, filepath.Base(f), src, DefaultOptions(), false)
		}
	}
}

// randomControlProgram generates a random program with loops (resolved,
// pinned and runtime-bounded), scalar and elemental conditionals,
// distributed FORALLs and reductions — the control-flow shapes whose
// interpretation paths the straight-line cross-validation generator
// never exercises.
func randomControlProgram(rng *rand.Rand, trial int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM chaos%d\n", trial)
	fmt.Fprintf(&b, "REAL A(%d), B(%d)\n", 32+16*rng.Intn(4), 64)
	b.WriteString("!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\n")
	if rng.Intn(2) == 0 {
		b.WriteString("!HPF$ DISTRIBUTE B(CYCLIC) ONTO P\n")
	}
	// A mix of resolvable and runtime-valued scalars.
	fmt.Fprintf(&b, "N = %d\n", 2+rng.Intn(9))
	b.WriteString("S = SUM(A)\n")
	if rng.Intn(2) == 0 {
		b.WriteString("M = N * 2\n")
	} else {
		b.WriteString("M = S\n") // runtime-dependent: unresolvable
	}
	nest := 1 + rng.Intn(2)
	for d := 0; d < nest; d++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "DO I%d = 1, %d\n", d, 2+rng.Intn(6))
		case 1:
			fmt.Fprintf(&b, "DO I%d = 1, N\n", d)
		default:
			fmt.Fprintf(&b, "DO I%d = 1, M\n", d) // may need TripCounts
		}
	}
	b.WriteString("X = X + 1.5\n")
	if rng.Intn(2) == 0 {
		b.WriteString("IF (S .GT. 1.0) THEN\nY = 1.0\nELSE\nY = 2.0\nN = 4\nENDIF\n")
	}
	if rng.Intn(2) == 0 {
		b.WriteString("FORALL (K=2:31) A(K) = A(K-1) * 0.5\n")
	}
	for d := nest - 1; d >= 0; d-- {
		b.WriteString("ENDDO\n")
	}
	if rng.Intn(2) == 0 {
		b.WriteString("IF (N .GT. 3) THEN\nZ = N * 1.0\nENDIF\n")
	}
	b.WriteString("R = SUM(A)\nPRINT *, R\nEND\n")
	return b.String()
}

// TestEquivRandomPrograms is the chaos leg of the differential suite:
// seeded random control-flow programs under every option variant.
func TestEquivRandomPrograms(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	variants := equivOptionVariants()
	rng := rand.New(rand.NewSource(1994))
	ran := 0
	for trial := 0; trial < trials; trial++ {
		src := randomControlProgram(rng, trial)
		for vn, opts := range variants {
			if diffOne(t, fmt.Sprintf("chaos%d/%s", trial, vn), src, opts, false) {
				ran++
			}
		}
	}
	if ran < trials {
		t.Errorf("only %d of %d chaos program x variant pairs ran — generator emits uncompilable sources", ran, trials*len(variants))
	}
	// The straight-line cross-validation generator, too.
	for trial := 0; trial < trials; trial++ {
		src, _ := randomScalarProgram(rng, 1000+trial)
		diffOne(t, fmt.Sprintf("scalar%d", trial), src, DefaultOptions(), false)
	}
}

// incrementalSrc has two independent sweeps over distinct critical
// variables, so changing one leaves the other's subtree memo-reusable.
const incrementalSrc = `PROGRAM inc
REAL A(256)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
DO I = 1, N
FORALL (K=1:256) A(K) = A(K) * 1.5
ENDDO
DO J = 1, M
X = X + 2.0
ENDDO
S = SUM(A)
PRINT *, S
END`

// TestEquivIncrementalMemo drives the memoized EvaluateWith path across
// a sweep of critical-variable points — including repeats, which replay
// recorded subtree op logs — and checks every point against a fresh
// tree-walking run.
func TestEquivIncrementalMemo(t *testing.T) {
	prog, err := compiler.Compile(incrementalSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompilePrediction(context.Background(), prog, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	points := [][2]int64{{5, 5}, {5, 6}, {9, 6}, {5, 5}, {9, 6}, {2, 11}, {5, 6}}
	for i, pt := range points {
		values := map[string]sem.Value{"N": sem.IntVal(pt[0]), "M": sem.IntVal(pt[1])}
		got, err := c.EvaluateWith(context.Background(), values, nil)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		opts := DefaultOptions()
		opts.Values = values
		itTree, err := New(prog, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := itTree.InterpretTree()
		if err != nil {
			t.Fatalf("point %d tree: %v", i, err)
		}
		if d := DiffReports(want, got); d != "" {
			t.Fatalf("point %d (N=%d M=%d): %s", i, pt[0], pt[1], d)
		}
	}
	c.mu.Lock()
	entries := len(c.memo)
	c.mu.Unlock()
	if entries == 0 {
		t.Fatal("memo never populated — EvaluateWith is not memoizing")
	}
	// 7 points x 7 top-level subtrees would be 49 distinct evaluations
	// without sharing; unchanged subtrees must be reused across points.
	if entries >= len(points)*len(c.tops) {
		t.Errorf("memo holds %d entries for %d points x %d subtrees — no incremental reuse",
			entries, len(points), len(c.tops))
	}
}

// TestEquivConcurrentEvaluate exercises concurrent memoized evaluations
// of one Compiled (the sweep engine's sharing pattern) under -race.
func TestEquivConcurrentEvaluate(t *testing.T) {
	prog, err := compiler.Compile(incrementalSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompilePrediction(context.Background(), prog, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[int]float64)
	for n := 1; n <= 4; n++ {
		values := map[string]sem.Value{"N": sem.IntVal(int64(n)), "M": sem.IntVal(3)}
		rep, err := c.EvaluateWith(context.Background(), values, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref[n] = rep.TotalUS()
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			n := g%4 + 1
			values := map[string]sem.Value{"N": sem.IntVal(int64(n)), "M": sem.IntVal(3)}
			rep, err := c.EvaluateWith(context.Background(), values, nil)
			if err == nil && rep.TotalUS() != ref[n] {
				err = fmt.Errorf("goroutine %d: total %v != %v", g, rep.TotalUS(), ref[n])
			}
			done <- err
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
