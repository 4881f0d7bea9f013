package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/exec"
	"hpfperf/internal/faults"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
)

// tinySource generates a distinct-but-valid program per n so churn tests
// can exercise eviction with thousands of unique cache keys cheaply.
func tinySource(n int) string {
	return fmt.Sprintf(`      PROGRAM T%d
!HPF$ PROCESSORS P(4)
      REAL A(%d)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
      A = %d.0
      PRINT *, A(1)
      END PROGRAM T%d
`, n, 32+n%8, n, n)
}

func TestCacheBoundedUnderChurn(t *testing.T) {
	// Acceptance criterion: memory stays bounded when 10k distinct
	// sources stream through a small cache, and evictions are counted.
	const cap = 64
	const distinct = 10000
	c := NewCacheSize(cap)
	var stats Stats
	ctx := context.Background()
	for i := 0; i < distinct; i++ {
		if _, err := c.Compile(ctx, tinySource(i), compiler.Options{}, &stats); err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	cs := c.CacheStats()
	if cs.CompileEntries > cap {
		t.Errorf("compile entries = %d, exceeds cap %d", cs.CompileEntries, cap)
	}
	if cs.CompileEntries != cap {
		t.Errorf("compile entries = %d, want full cache %d", cs.CompileEntries, cap)
	}
	if want := int64(distinct - cap); cs.CompileEvictions != want {
		t.Errorf("compile evictions = %d, want %d", cs.CompileEvictions, want)
	}
	if got := stats.Compiles.Load(); got != distinct {
		t.Errorf("compiles = %d, want %d (every source distinct)", got, distinct)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	// With cap 2: insert A, B, touch A, insert C -> B (least recent) is
	// evicted, A and C survive and hit.
	c := NewCacheSize(2)
	var stats Stats
	ctx := context.Background()
	srcA, srcB, srcC := tinySource(1), tinySource(2), tinySource(3)

	for _, src := range []string{srcA, srcB, srcA, srcC} {
		if _, err := c.Compile(ctx, src, compiler.Options{}, &stats); err != nil {
			t.Fatal(err)
		}
	}
	// 3 misses (A, B, C) + 1 hit (A's second lookup).
	if got := stats.CompileMisses.Load(); got != 3 {
		t.Fatalf("misses = %d, want 3", got)
	}
	if got := stats.CompileHits.Load(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}

	// A and C should still be cached; B was evicted and recompiles.
	before := stats.Compiles.Load()
	c.Compile(ctx, srcA, compiler.Options{}, &stats)
	c.Compile(ctx, srcC, compiler.Options{}, &stats)
	if got := stats.Compiles.Load(); got != before {
		t.Errorf("A/C lookups recompiled (%d -> %d); LRU touch not honored", before, got)
	}
	c.Compile(ctx, srcB, compiler.Options{}, &stats)
	if got := stats.Compiles.Load(); got != before+1 {
		t.Errorf("B lookup after eviction: compiles %d -> %d, want +1", before, got)
	}
	if ev := c.CacheStats().CompileEvictions; ev < 1 {
		t.Errorf("evictions = %d, want >= 1", ev)
	}
}

func TestReportCacheBoundedUnderChurn(t *testing.T) {
	const cap = 16
	c := NewCacheSize(cap)
	var stats Stats
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := c.Interpret(ctx, tinySource(i), compiler.Options{}, core.DefaultOptions(), "", &stats); err != nil {
			t.Fatalf("interpret %d: %v", i, err)
		}
	}
	cs := c.CacheStats()
	if cs.ReportEntries > cap {
		t.Errorf("report entries = %d, exceeds cap %d", cs.ReportEntries, cap)
	}
	if want := int64(100 - cap); cs.ReportEvictions != want {
		t.Errorf("report evictions = %d, want %d", cs.ReportEvictions, want)
	}
}

func TestCompileWaiterHonorsContext(t *testing.T) {
	// A waiter whose context ends must not park on a builder that has
	// not finished. Hold a build of the key open until the waiter is
	// done.
	c := NewCacheSize(8)
	src := tinySource(0)
	key := compileKey(src, compiler.Options{})
	started, release, built := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(built)
		c.compiles.get(context.Background(), key, func(bool) {}, func() (*program, error) {
			close(started)
			<-release
			return nil, errors.New("released")
		})
	}()
	<-started
	defer func() {
		close(release)
		<-built
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Compile(ctx, src, compiler.Options{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("waiter did not honor its context promptly")
	}
}

func TestCancelledInterpretNotCached(t *testing.T) {
	// An interpret whose build is cancelled mid-way must not leave a
	// poisoned ctx-error entry: the next request with a live context
	// should rebuild and succeed.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(7)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err == nil {
		t.Fatal("want error from cancelled interpret")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	rep, err := c.Interpret(context.Background(), src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatalf("retry after cancellation: %v (poisoned cache?)", err)
	}
	if rep == nil || rep.TotalUS() <= 0 {
		t.Fatalf("retry produced no report")
	}
}

func TestCompilePanicBecomesError(t *testing.T) {
	// recoverToErr must turn a front-end panic into a *PanicError and
	// still close the single-flight channel. The panic is the key's
	// deterministic result, so a second lookup returns the same cached
	// error instead of hanging or compiling again.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(15)
	key := compileKey(src, compiler.Options{})
	done := make(chan struct{})
	var err1, err2 error
	go func() {
		defer close(done)
		_, err1 = c.compiles.get(context.Background(), key, func(bool) {}, func() (*program, error) {
			panic("front end")
		})
		_, err2 = c.Compile(context.Background(), src, compiler.Options{}, &stats)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("lookup hung after a panicking compile")
	}
	var pe *PanicError
	if !errors.As(err1, &pe) || pe.Stage != "compile" {
		t.Fatalf("err = %T %v, want a compile-stage *PanicError", err1, err1)
	}
	if err2 != err1 {
		t.Errorf("second lookup returned %v, want the cached %v", err2, err1)
	}
	if h, n := stats.CompileHits.Load(), stats.Compiles.Load(); h != 1 || n != 0 {
		t.Errorf("compile hits = %d, compiles = %d; want the cached panic (1, 0)", h, n)
	}
}

func TestMapCtxCancellation(t *testing.T) {
	// Cancelling mid-sweep stops feeding new items and returns the
	// context error rather than running all n points.
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	_, err := MapCtx(ctx, e, 1000, func(i int) (int, error) {
		select {
		case started <- struct{}{}:
			cancel()
		default:
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInterpretMachineKeyedSeparately(t *testing.T) {
	// The same source on two machine abstractions must produce two
	// distinct cached reports, not one shadowing the other.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(5)
	ctx := context.Background()
	r1, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "paragon", &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalUS() == r2.TotalUS() {
		t.Errorf("iPSC/860 and Paragon predictions identical (%v us); machine missing from key?", r1.TotalUS())
	}
	if got := stats.ReportMisses.Load(); got != 2 {
		t.Errorf("report misses = %d, want 2 (distinct keys)", got)
	}
}

// TestMachineSpellingsShareEntries keys every artifact by the canonical
// machine name: "", "ipsc860", "IPSC860" and "ipsc860:8" (its default
// node count) name one machine, so they share one compiled form, one
// report and one measurement.
func TestMachineSpellingsShareEntries(t *testing.T) {
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(6)
	ctx := context.Background()
	var forms []*core.Compiled
	var reps []*core.Report
	var results []*exec.Result
	spellings := []string{"", "ipsc860", "IPSC860", "ipsc860:8"}
	for _, mach := range spellings {
		cp, err := c.CompiledPrediction(ctx, src, compiler.Options{}, core.DefaultOptions(), mach, &stats)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), mach, &stats)
		if err != nil {
			t.Fatal(err)
		}
		spec := DefaultMeasureSpec(1, 0)
		spec.Machine = mach
		res, err := c.Measure(ctx, src, compiler.Options{}, spec, &stats)
		if err != nil {
			t.Fatal(err)
		}
		forms, reps, results = append(forms, cp), append(reps, rep), append(results, res)
	}
	for i := 1; i < len(spellings); i++ {
		if forms[i] != forms[0] || reps[i] != reps[0] || results[i] != results[0] {
			t.Errorf("spelling %q built its own artifacts", spellings[i])
		}
	}
	if p, r, m := stats.PredictMisses.Load(), stats.ReportMisses.Load(), stats.ExecMisses.Load(); p != 1 || r != 1 || m != 1 {
		t.Errorf("misses: predict %d, report %d, exec %d; want 1 each", p, r, m)
	}
	if cs := c.CacheStats(); cs.ReportEntries != 1 || cs.MeasureEntries != 1 {
		t.Errorf("entries: %+v, want one report and one measurement", cs)
	}
}

func TestInterpFingerprintUncacheableCommLibrary(t *testing.T) {
	opts := core.DefaultOptions()
	if _, ok := interpFingerprint(opts); !ok {
		t.Fatal("default options should be fingerprintable")
	}
	opts.CommLibrary = &ipsc.CommLibrary{}
	if _, ok := interpFingerprint(opts); ok {
		t.Fatal("injected CommLibrary must not be fingerprintable")
	}
}

func TestSnapshotIncludesEvictions(t *testing.T) {
	// Engine snapshot and cache stats stay consistent after churn.
	eng := New(Options{Workers: 2, Cache: NewCacheSize(4)})
	for i := 0; i < 12; i++ {
		if _, err := eng.CompileContext(context.Background(), tinySource(i), compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	cs := eng.Cache().CacheStats()
	if cs.CompileEntries != 4 || cs.CompileEvictions != 8 {
		t.Errorf("entries/evictions = %d/%d, want 4/8", cs.CompileEntries, cs.CompileEvictions)
	}
	snap := eng.Snapshot()
	if snap.Compiles != 12 {
		t.Errorf("compiles = %d, want 12", snap.Compiles)
	}
	if !strings.Contains(snap.String(), "compile") {
		t.Errorf("snapshot string missing stage names: %s", snap)
	}
}

func TestMeasureCachedDeterministic(t *testing.T) {
	// Two identical measure requests run the simulator once and share
	// the result; changing any spec field is a distinct key.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(3)
	spec := DefaultMeasureSpec(1, 0.01)

	r1, err := c.Measure(context.Background(), src, compiler.Options{}, spec, &stats)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Measure(context.Background(), src, compiler.Options{}, spec, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical specs did not share one cached result")
	}
	if got := stats.Execs.Load(); got != 1 {
		t.Errorf("execs = %d, want 1", got)
	}
	if stats.ExecHits.Load() != 1 || stats.ExecMisses.Load() != 1 {
		t.Errorf("exec cache = %d hit / %d miss, want 1/1",
			stats.ExecHits.Load(), stats.ExecMisses.Load())
	}

	reseeded := spec
	reseeded.Seed++
	r3, err := c.Measure(context.Background(), src, compiler.Options{}, reseeded, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("different seeds shared one cache entry")
	}
	if got := stats.Execs.Load(); got != 2 {
		t.Errorf("execs after reseed = %d, want 2", got)
	}
}

func TestMeasureRunsNormalizedBeforeKeying(t *testing.T) {
	// runs <= 0 means one timed run everywhere; the zero and one forms
	// must land on the same cache entry.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(4)
	r1, err := c.Measure(context.Background(), src, compiler.Options{}, DefaultMeasureSpec(0, 0), &stats)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Measure(context.Background(), src, compiler.Options{}, DefaultMeasureSpec(1, 0), &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("runs=0 and runs=1 produced distinct cache entries")
	}
}

func TestCancelledMeasureNotCached(t *testing.T) {
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Measure(ctx, src, compiler.Options{}, DefaultMeasureSpec(1, 0), &stats); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, err := c.Measure(context.Background(), src, compiler.Options{}, DefaultMeasureSpec(1, 0), &stats)
	if err != nil {
		t.Fatalf("retry after cancellation: %v (poisoned cache?)", err)
	}
	if res == nil || res.MeasuredUS <= 0 {
		t.Fatal("retry produced no measurement")
	}
}

func TestCompiledPredictionSharedAcrossValues(t *testing.T) {
	// The compiled form is keyed by static options only: requests that
	// differ in Values/TripCounts share one form and miss only the
	// report cache, exercising the incremental EvaluateWith path.
	c := NewCacheSize(16)
	var stats Stats
	src := tinySource(6)

	a := core.DefaultOptions()
	if _, err := c.Interpret(context.Background(), src, compiler.Options{}, a, "", &stats); err != nil {
		t.Fatal(err)
	}
	b := core.DefaultOptions()
	b.TripCounts = map[int]int{5: 9}
	if _, err := c.Interpret(context.Background(), src, compiler.Options{}, b, "", &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.ReportMisses.Load(); got != 2 {
		t.Errorf("report misses = %d, want 2 (distinct dynamic options)", got)
	}
	if stats.PredictMisses.Load() != 1 || stats.PredictHits.Load() != 1 {
		t.Errorf("predict cache = %d hit / %d miss, want 1/1 (one shared form)",
			stats.PredictHits.Load(), stats.PredictMisses.Load())
	}
}

func TestCacheInterpretMatchesTreeWalk(t *testing.T) {
	// The cached compiled-form evaluation must be byte-identical to a
	// fresh tree-walking interpretation of the same program.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(8)
	rep, err := c.Interpret(context.Background(), src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	it, err := core.New(prog, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := it.InterpretTree()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != ref.Total || rep.TotalUS() != ref.TotalUS() {
		t.Errorf("cached compiled report diverges: %+v vs tree-walk %+v", rep.Total, ref.Total)
	}
}

// TestTracedInterpretUsesCompiledForm pins the one-engine rule: a traced
// report miss is served by the compiled prediction form, exactly like an
// untraced one, and only the span tree tells the two apart.
func TestTracedInterpretUsesCompiledForm(t *testing.T) {
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(9)
	opts := core.DefaultOptions()

	tracer := obs.NewTracer(obs.NewTraceID())
	root := tracer.Root("test")
	rep, err := c.Interpret(obs.ContextWithSpan(context.Background(), root), src, compiler.Options{}, opts, "", &stats)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.PredictMisses.Load(); got != 1 {
		t.Fatalf("traced report miss built %d compiled forms, want 1", got)
	}
	cp, err := c.CompiledPrediction(context.Background(), src, compiler.Options{}, opts, "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.PredictHits.Load(); got != 1 {
		t.Fatalf("untraced CompiledPrediction after the traced miss: %d hits, want 1", got)
	}
	if n := spanCount(tracer.Tree(), "interp.", ""); n == 0 {
		t.Fatal("traced report miss recorded no interp.<kind> spans")
	}

	ref, err := NewCacheSize(8).Interpret(context.Background(), src, compiler.Options{}, opts, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.DiffReports(ref, rep); d != "" {
		t.Fatalf("traced report diverges from untraced: %s", d)
	}

	// The miss was the form's first evaluation, which records no memo.
	// The next evaluation records it and the one after that replays.
	if n := cp.MemoEntries(); n != 0 {
		t.Fatalf("report miss left %d memo entries, want 0", n)
	}
	second, err := cp.EvaluateWith(context.Background(), opts.Values, opts.TripCounts)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.DiffReports(ref, second); d != "" {
		t.Fatalf("recording report diverges from untraced: %s", d)
	}
	tracer = obs.NewTracer(obs.NewTraceID())
	root = tracer.Root("again")
	again, err := cp.EvaluateWith(obs.ContextWithSpan(context.Background(), root), opts.Values, opts.TripCounts)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if d := core.DiffReports(ref, again); d != "" {
		t.Fatalf("replayed report diverges from untraced: %s", d)
	}
	if n := spanCount(tracer.Tree(), "interp.", "true"); n == 0 {
		t.Fatal("third evaluation recorded no replay-marked interp.<kind> span")
	}
}

// spanCount counts the spans whose name starts with prefix and, when
// replay is non-empty, whose replay attribute equals it.
func spanCount(tree *obs.Tree, prefix, replay string) int {
	n := 0
	tree.Root.Walk(func(_ int, s *obs.Node) {
		if strings.HasPrefix(s.Name, prefix) && (replay == "" || s.Attrs["replay"] == replay) {
			n++
		}
	})
	return n
}

// TestFormSingleFlight races first requests for one form of a fresh
// program; run it under -race. The program and its form are each built
// once and every caller gets the same form.
func TestFormSingleFlight(t *testing.T) {
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(10)
	const callers = 8
	forms := make([]*core.Compiled, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range forms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			cp, err := c.CompiledPrediction(context.Background(), src, compiler.Options{}, core.DefaultOptions(), "", &stats)
			if err != nil {
				t.Error(err)
			}
			forms[i] = cp
		}(i)
	}
	close(start)
	wg.Wait()
	for i, cp := range forms {
		if cp == nil || cp != forms[0] {
			t.Fatalf("caller %d got form %p, caller 0 got %p", i, cp, forms[0])
		}
	}
	if p, h := stats.PredictMisses.Load(), stats.PredictHits.Load(); p != 1 || h != callers-1 {
		t.Errorf("predict cache = %d hit / %d miss, want %d/1", h, p, callers-1)
	}
	if n := stats.Compiles.Load(); n != 1 {
		t.Errorf("compiles = %d, want 1", n)
	}
}

// TestFormReplacedByNewStaticKey pins form ownership: a program keeps
// the form of its most recent static key. A second key builds one more
// form without disturbing the first key's cached report.
func TestFormReplacedByNewStaticKey(t *testing.T) {
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(11)
	ctx := context.Background()
	first := core.DefaultOptions()
	second := core.DefaultOptions()
	second.MemoryModel = !first.MemoryModel

	rep, err := c.Interpret(ctx, src, compiler.Options{}, first, "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Interpret(ctx, src, compiler.Options{}, second, "", &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.PredictMisses.Load(); got != 2 {
		t.Errorf("predict misses = %d after a second static key, want 2", got)
	}
	again, err := c.Interpret(ctx, src, compiler.Options{}, first, "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	if again != rep || stats.ReportHits.Load() != 1 {
		t.Errorf("first key's report: same = %t, %d report hits; want the cached report", again == rep, stats.ReportHits.Load())
	}
	if got := stats.Compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1 (one program, two forms in turn)", got)
	}

	// The second key's form replaced the first: asking for the first
	// again builds it anew.
	if _, err := c.CompiledPrediction(ctx, src, compiler.Options{}, first, "", &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.PredictMisses.Load(); got != 3 {
		t.Errorf("predict misses = %d, want 3 (one form per program)", got)
	}
}

// TestFormEvictedWithProgram checks that a form does not outlive its
// compile entry: once the program is evicted, its form is gone too.
func TestFormEvictedWithProgram(t *testing.T) {
	c := NewCacheSize(1)
	var stats Stats
	ctx := context.Background()
	src := tinySource(12)
	before, err := c.CompiledPrediction(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ctx, tinySource(13), compiler.Options{}, &stats); err != nil {
		t.Fatal(err)
	}
	if ev := c.CacheStats().CompileEvictions; ev != 1 {
		t.Fatalf("compile evictions = %d, want 1", ev)
	}
	after, err := c.CompiledPrediction(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Error("form outlived its evicted program")
	}
	if p, h := stats.PredictMisses.Load(), stats.PredictHits.Load(); p != 2 || h != 0 {
		t.Errorf("predict cache = %d hit / %d miss, want 0/2", h, p)
	}
}

// TestFormBuildFailureNotCached checks the poison rule for forms: an
// injected fault or injected panic while building a form is the
// attempt's failure, so it is not memoized, and it leaves the program's
// compile entry cached.
func TestFormBuildFailureNotCached(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*core.Compiled, error)
	}{
		{"fault", func() (*core.Compiled, error) { return nil, &faults.InjectedError{Site: faults.SiteInterp} }},
		{"panic", func() (*core.Compiled, error) { panic(&faults.InjectedPanic{Site: faults.SiteInterp}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCacheSize(4)
			var stats Stats
			ctx := context.Background()
			src := tinySource(14)
			if _, err := c.Compile(ctx, src, compiler.Options{}, &stats); err != nil {
				t.Fatal(err)
			}
			fp, _ := predictFingerprint(core.DefaultOptions())
			p, err := c.lookupProgram(ctx, src, compiler.Options{}, compileKey(src, compiler.Options{}), nil, func(bool) {})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.form.get(ctx, machineKey("")+"|"+fp, func(bool) {}, tc.build); !IsTransient(err) {
				t.Fatalf("failed form build: err = %v, want a transient error", err)
			}
			cp, err := c.CompiledPrediction(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats)
			if err != nil || cp == nil {
				t.Fatalf("form after a failed build: %v (failure cached?)", err)
			}
			if got := stats.PredictMisses.Load(); got != 1 {
				t.Errorf("predict misses = %d, want 1 (the rebuild)", got)
			}
			if n, m := stats.Compiles.Load(), c.CacheStats().CompileEntries; n != 1 || m != 1 {
				t.Errorf("compiles = %d, compile entries = %d; want the program kept", n, m)
			}
		})
	}
}

// TestFormBuildPanicCached checks the other half of the rule: a real
// panic while building a form is the key's deterministic result. Its
// build runs once; every later lookup, including the waiters parked on
// that build, gets the same *PanicError.
func TestFormBuildPanicCached(t *testing.T) {
	const lookups = 8
	c := NewCacheSize(4)
	ctx := context.Background()
	src := tinySource(16)
	p, err := c.lookupProgram(ctx, src, compiler.Options{}, compileKey(src, compiler.Options{}), nil, func(bool) {})
	if err != nil {
		t.Fatal(err)
	}
	key := machineKey("") + "|form"
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() (*core.Compiled, error) {
		builds.Add(1)
		<-release
		panic("form build")
	}
	errs := make([]error, lookups)
	var parked sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < lookups; i++ {
		parked.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.form.get(ctx, key, func(bool) { parked.Done() }, build)
		}(i)
	}
	parked.Wait() // every lookup has probed: one builds, the rest wait
	close(release)
	wg.Wait()
	_, again := p.form.get(ctx, key, func(bool) {}, build)

	var pe *PanicError
	if !errors.As(again, &pe) || IsTransient(again) {
		t.Fatalf("err = %T %v, want a permanent *PanicError", again, again)
	}
	for i, err := range errs {
		if err != again {
			t.Errorf("lookup %d: err = %v, want the cached %v", i, err, again)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d over %d lookups, want 1", n, lookups+1)
	}
}
