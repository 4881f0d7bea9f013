package sweep

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/exec"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
	"hpfperf/internal/sysmodel"
)

// DefaultCacheEntries bounds each of the cache's two maps (compiled
// programs and interpretation reports) when no explicit capacity is
// given. The bound keeps a long-running process (hpfserve) from growing
// without limit while still holding every artifact of a full experiment
// reproduction.
const DefaultCacheEntries = 4096

// Cache memoizes the results of the compilation pipeline (and of whole
// interpretation runs) across sweep points. It is safe for concurrent
// use; a key being built by one worker blocks other workers asking for
// the same key (single-flight), so each distinct (source, options) pair
// is compiled exactly once no matter how many workers race for it.
// Waiters park on the builder's completion channel and honor their own
// context, so a cancelled request stops waiting without disturbing the
// build.
//
// Four artifact kinds are cached, one bounded map each: compiled
// programs (*hir.Program), closure-compiled prediction forms
// (*core.Compiled, keyed by the static interpretation options only, so
// one form serves every Values/TripCounts combination through its
// incremental EvaluateWith path), whole interpretation reports
// (*core.Report), and simulated-execution results (*exec.Result — the
// simulator is deterministic for a fixed MeasureSpec, which is what
// makes measurement memoizable at all).
//
// The cache is a bounded LRU: each map holds at most cap entries and
// evicts the least recently used entry beyond that, counting evictions.
// Evicted entries remain valid for goroutines already holding them;
// only the memoization is lost.
//
// Cached values are shared between callers: all four kinds are treated
// as immutable after construction everywhere in this module (the
// simulator, the evaluators and the report renderers only read them),
// which is what makes the memoization sound.
type Cache struct {
	mu         sync.Mutex
	cap        int
	compiles   map[string]*compileEntry
	compileLRU *list.List // of string keys; front = most recent
	predicts   map[string]*predictEntry
	predictLRU *list.List
	reports    map[string]*reportEntry
	reportLRU  *list.List
	measures   map[string]*measureEntry
	measureLRU *list.List

	compileEvictions atomic.Int64
	predictEvictions atomic.Int64
	reportEvictions  atomic.Int64
	measureEvictions atomic.Int64
}

// NewCache returns an empty cache bounded at DefaultCacheEntries
// entries per map.
func NewCache() *Cache { return NewCacheSize(DefaultCacheEntries) }

// NewCacheSize returns an empty cache holding at most n compiled
// programs and n interpretation reports (n <= 0 selects the default).
func NewCacheSize(n int) *Cache {
	if n <= 0 {
		n = DefaultCacheEntries
	}
	return &Cache{
		cap:        n,
		compiles:   make(map[string]*compileEntry),
		compileLRU: list.New(),
		predicts:   make(map[string]*predictEntry),
		predictLRU: list.New(),
		reports:    make(map[string]*reportEntry),
		reportLRU:  list.New(),
		measures:   make(map[string]*measureEntry),
		measureLRU: list.New(),
	}
}

type compileEntry struct {
	done chan struct{} // closed when prog/err are final
	elem *list.Element // LRU position; nil once evicted
	prog *hir.Program
	err  error
}

type predictEntry struct {
	done chan struct{}
	elem *list.Element
	cp   *core.Compiled
	err  error
}

type reportEntry struct {
	done chan struct{}
	elem *list.Element
	rep  *core.Report
	err  error
}

type measureEntry struct {
	done chan struct{}
	elem *list.Element
	res  *exec.Result
	err  error
}

// CacheStats is a point-in-time view of the cache occupancy and its
// eviction counters (served by hpfserve's /metrics).
type CacheStats struct {
	Cap              int
	CompileEntries   int
	PredictEntries   int
	ReportEntries    int
	MeasureEntries   int
	CompileEvictions int64
	PredictEvictions int64
	ReportEvictions  int64
	MeasureEvictions int64
}

// Stats returns the cache occupancy and eviction counters.
func (c *Cache) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Cap:              c.cap,
		CompileEntries:   len(c.compiles),
		PredictEntries:   len(c.predicts),
		ReportEntries:    len(c.reports),
		MeasureEntries:   len(c.measures),
		CompileEvictions: c.compileEvictions.Load(),
		PredictEvictions: c.predictEvictions.Load(),
		ReportEvictions:  c.reportEvictions.Load(),
		MeasureEvictions: c.measureEvictions.Load(),
	}
}

// srcHash fingerprints source text. Sources are generated per (size,
// procs) point and can be tens of kilobytes; hashing keeps the key map
// small and comparison O(1).
func srcHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:16])
}

// compileKey is srcHash + the compile options that affect the produced
// program.
func compileKey(src string, opts compiler.Options) string {
	return fmt.Sprintf("%s|commopt=%t|reorder=%t", srcHash(src), !opts.NoCommOpt, !opts.NoLoopReorder)
}

// predictFingerprint renders the *static* interpretation options — the
// ones core.CompilePrediction binds into the compiled form. Values and
// TripCounts are deliberately excluded: they are per-evaluation inputs
// of Compiled.EvaluateWith, so one cached form serves every combination
// of them. An injected CommLibrary has no stable identity across
// mutations, so such runs are never cached.
func predictFingerprint(opts core.Options) (string, bool) {
	if opts.CommLibrary != nil {
		return "", false
	}
	return fmt.Sprintf("mem=%t|load=%d|mask=%g|branch=%g|simple=%t",
		opts.MemoryModel, opts.LoadModel, opts.MaskDensity, opts.BranchProb, opts.SimpleCommModel), true
}

// interpFingerprint renders core.Options deterministically, or reports
// that the options cannot be fingerprinted. It extends the static
// predict fingerprint with the dynamic inputs (trip counts, pinned
// values), since a whole report is specific to both.
func interpFingerprint(opts core.Options) (string, bool) {
	static, ok := predictFingerprint(opts)
	if !ok {
		return "", false
	}
	var b strings.Builder
	b.WriteString(static)
	if len(opts.TripCounts) > 0 {
		lines := make([]int, 0, len(opts.TripCounts))
		for l := range opts.TripCounts {
			lines = append(lines, l)
		}
		sort.Ints(lines)
		for _, l := range lines {
			fmt.Fprintf(&b, "|trip%d=%d", l, opts.TripCounts[l])
		}
	}
	if len(opts.Values) > 0 {
		names := make([]string, 0, len(opts.Values))
		for n := range opts.Values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := opts.Values[n]
			fmt.Fprintf(&b, "|val%s=%d:%d:%g:%t", n, v.Type, v.I, v.R, v.B)
		}
	}
	return b.String(), true
}

// touch moves an LRU element to the front (caller holds c.mu).
func touch(lru *list.List, elem *list.Element) {
	if elem != nil {
		lru.MoveToFront(elem)
	}
}

// evictCompiles trims the compile map to cap (caller holds c.mu).
func (c *Cache) evictCompiles() {
	for len(c.compiles) > c.cap {
		back := c.compileLRU.Back()
		if back == nil {
			return
		}
		key := back.Value.(string)
		if e, ok := c.compiles[key]; ok {
			e.elem = nil
			delete(c.compiles, key)
		}
		c.compileLRU.Remove(back)
		c.compileEvictions.Add(1)
	}
}

// evictPredicts trims the compiled-prediction map to cap (caller holds
// c.mu).
func (c *Cache) evictPredicts() {
	for len(c.predicts) > c.cap {
		back := c.predictLRU.Back()
		if back == nil {
			return
		}
		key := back.Value.(string)
		if e, ok := c.predicts[key]; ok {
			e.elem = nil
			delete(c.predicts, key)
		}
		c.predictLRU.Remove(back)
		c.predictEvictions.Add(1)
	}
}

// evictMeasures trims the measurement map to cap (caller holds c.mu).
func (c *Cache) evictMeasures() {
	for len(c.measures) > c.cap {
		back := c.measureLRU.Back()
		if back == nil {
			return
		}
		key := back.Value.(string)
		if e, ok := c.measures[key]; ok {
			e.elem = nil
			delete(c.measures, key)
		}
		c.measureLRU.Remove(back)
		c.measureEvictions.Add(1)
	}
}

// evictReports trims the report map to cap (caller holds c.mu).
func (c *Cache) evictReports() {
	for len(c.reports) > c.cap {
		back := c.reportLRU.Back()
		if back == nil {
			return
		}
		key := back.Value.(string)
		if e, ok := c.reports[key]; ok {
			e.elem = nil
			delete(c.reports, key)
		}
		c.reportLRU.Remove(back)
		c.reportEvictions.Add(1)
	}
}

// dropReport removes a report entry if it still maps to e (used to
// un-cache results poisoned by the builder's context).
func (c *Cache) dropReport(key string, e *reportEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.reports[key]; ok && cur == e {
		delete(c.reports, key)
		if e.elem != nil {
			c.reportLRU.Remove(e.elem)
			e.elem = nil
		}
	}
}

// dropPredict removes a compiled-prediction entry if it still maps to e.
func (c *Cache) dropPredict(key string, e *predictEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.predicts[key]; ok && cur == e {
		delete(c.predicts, key)
		if e.elem != nil {
			c.predictLRU.Remove(e.elem)
			e.elem = nil
		}
	}
}

// dropMeasure removes a measurement entry if it still maps to e.
func (c *Cache) dropMeasure(key string, e *measureEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.measures[key]; ok && cur == e {
		delete(c.measures, key)
		if e.elem != nil {
			c.measureLRU.Remove(e.elem)
			e.elem = nil
		}
	}
}

// dropCompile removes a compile entry if it still maps to e (used to
// un-cache panicked or fault-injected builds).
func (c *Cache) dropCompile(key string, e *compileEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.compiles[key]; ok && cur == e {
		delete(c.compiles, key)
		if e.elem != nil {
			c.compileLRU.Remove(e.elem)
			e.elem = nil
		}
	}
}

// poisoned reports whether a build error must not be memoized:
// cancellations are the requester's failure, and transient failures
// (recovered panics, injected faults) may succeed on rebuild. Only
// deterministic pipeline errors stay cached.
func poisoned(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || IsTransient(err)
}

// recoverToErr converts a panic in the front end or the interpretation
// engine into a typed *PanicError, so one malformed request cannot take
// down a long-running process sharing this cache (hpfserve classifies
// it with errors.As and maps it to HTTP 500). The single-flight
// completion channel must be closed even when the builder panics, or
// waiters would park forever.
func recoverToErr(stage string, err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Stage: stage, Value: r}
	}
}

// Compile returns the compiled program for (src, opts), running the
// scanner→parser→sem→compiler pipeline at most once per live key.
// Counter updates go to stats (may be nil). A waiter whose ctx ends
// before the build completes returns the ctx error; the build itself
// always runs to completion and stays cached.
func (c *Cache) Compile(ctx context.Context, src string, opts compiler.Options, stats *Stats) (*hir.Program, error) {
	key := compileKey(src, opts)
	c.mu.Lock()
	if e, ok := c.compiles[key]; ok {
		touch(c.compileLRU, e.elem)
		c.mu.Unlock()
		if stats != nil {
			stats.CompileHits.Add(1)
		}
		cacheSpan(ctx, "compile", key, "hit")
		select {
		case <-e.done:
			return e.prog, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &compileEntry{done: make(chan struct{})}
	e.elem = c.compileLRU.PushFront(key)
	c.compiles[key] = e
	c.evictCompiles()
	c.mu.Unlock()

	if stats != nil {
		stats.CompileMisses.Add(1)
	}
	cacheSpan(ctx, "compile", key, "miss")
	start := time.Now()
	func() {
		defer recoverToErr("compile", &e.err)
		if e.err = faults.Fire(faults.SiteCompile); e.err != nil {
			return
		}
		e.prog, e.err = compiler.CompileWithContext(ctx, src, opts)
	}()
	if stats != nil {
		stats.Compiles.Add(1)
		stats.CompileNS.Add(int64(time.Since(start)))
	}
	if poisoned(e.err) {
		// A panicked or fault-injected build must not pin its key: the
		// next request rebuilds. Deterministic compile errors stay
		// cached (they will fail identically every time).
		c.dropCompile(key, e)
	}
	close(e.done)
	return e.prog, e.err
}

// CompiledPrediction returns the closure-compiled prediction form for
// (src, copts, static iopts) on the named machine abstraction, built at
// most once per live key. The form is shared and concurrency-safe; its
// subtree memoization accumulates across every EvaluateWith caller, so
// incremental sweeps that vary only Values/TripCounts re-evaluate only
// the cost terms those feed. Uncacheable options (injected CommLibrary)
// build a private form.
func (c *Cache) CompiledPrediction(ctx context.Context, src string, copts compiler.Options, iopts core.Options, machine string, stats *Stats) (*core.Compiled, error) {
	fp, cacheable := predictFingerprint(iopts)
	if !cacheable {
		prog, err := c.Compile(ctx, src, copts, stats)
		if err != nil {
			return nil, err
		}
		return buildPredict(ctx, prog, iopts, machine)
	}

	key := compileKey(src, copts) + "|mach=" + machine + "|" + fp
	c.mu.Lock()
	if e, ok := c.predicts[key]; ok {
		touch(c.predictLRU, e.elem)
		c.mu.Unlock()
		if stats != nil {
			stats.PredictHits.Add(1)
		}
		cacheSpan(ctx, "predict", key, "hit")
		select {
		case <-e.done:
			return e.cp, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &predictEntry{done: make(chan struct{})}
	e.elem = c.predictLRU.PushFront(key)
	c.predicts[key] = e
	c.evictPredicts()
	c.mu.Unlock()

	if stats != nil {
		stats.PredictMisses.Add(1)
	}
	cacheSpan(ctx, "predict", key, "miss")
	func() {
		defer recoverToErr("predict", &e.err)
		var prog *hir.Program
		prog, e.err = c.Compile(ctx, src, copts, stats)
		if e.err != nil {
			return
		}
		e.cp, e.err = buildPredict(ctx, prog, iopts, machine)
	}()
	if poisoned(e.err) {
		c.dropPredict(key, e)
	}
	close(e.done)
	return e.cp, e.err
}

// buildPredict resolves the machine abstraction and compiles the
// prediction form (one calibration + SAAG build + closure compilation).
func buildPredict(ctx context.Context, prog *hir.Program, iopts core.Options, machine string) (cp *core.Compiled, err error) {
	defer recoverToErr("predict", &err)
	var mach *sysmodel.Machine
	if machine != "" {
		mach, err = sysmodel.MachineByName(machine)
		if err != nil {
			return nil, err
		}
	}
	return core.CompilePrediction(ctx, prog, mach, iopts)
}

// Interpret returns the interpretation report for (src, copts, iopts)
// on the named machine abstraction ("" = iPSC/860 default), memoizing
// whole reports when the options are fingerprintable. Every report,
// traced or not, is an evaluation of the compiled prediction form
// (CompiledPrediction); the tree-walking interpreter is the reference
// implementation only and never serves a request. A traced request gets
// the interp span with its interp.<kind> children from the same
// evaluation. The builder honors ctx: a report whose construction was
// cancelled is dropped from the cache so a later request rebuilds it.
func (c *Cache) Interpret(ctx context.Context, src string, copts compiler.Options, iopts core.Options, machine string, stats *Stats) (*core.Report, error) {
	fp, cacheable := interpFingerprint(iopts)
	if !cacheable {
		return c.predict(ctx, src, copts, iopts, machine, stats)
	}

	key := compileKey(src, copts) + "|mach=" + machine + "|" + fp
	c.mu.Lock()
	if e, ok := c.reports[key]; ok {
		touch(c.reportLRU, e.elem)
		c.mu.Unlock()
		if stats != nil {
			stats.ReportHits.Add(1)
		}
		cacheSpan(ctx, "report", key, "hit")
		select {
		case <-e.done:
			return e.rep, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &reportEntry{done: make(chan struct{})}
	e.elem = c.reportLRU.PushFront(key)
	c.reports[key] = e
	c.evictReports()
	c.mu.Unlock()

	if stats != nil {
		stats.ReportMisses.Add(1)
	}
	cacheSpan(ctx, "report", key, "miss")
	func() {
		defer recoverToErr("interpret", &e.err)
		if e.err = faults.Fire(faults.SiteCache); e.err != nil {
			return
		}
		e.rep, e.err = c.predict(ctx, src, copts, iopts, machine, stats)
	}()
	if poisoned(e.err) {
		// A cancelled, panicked or fault-injected build is the attempt's
		// failure, not the key's: don't poison the cache with it.
		c.dropReport(key, e)
	}
	close(e.done)
	return e.rep, e.err
}

// predict evaluates the compiled prediction form of (src, copts, iopts)
// under an interp span. A cached form is evaluated incrementally through
// EvaluateWith, so its subtree memo serves every caller; a private form
// (uncacheable options) is evaluated once with Evaluate.
func (c *Cache) predict(ctx context.Context, src string, copts compiler.Options, iopts core.Options, machine string, stats *Stats) (rep *core.Report, err error) {
	defer recoverToErr("interpret", &err)
	ctx, span := obs.Start(ctx, "interp")
	defer span.End()
	cp, err := c.CompiledPrediction(ctx, src, copts, iopts, machine, stats)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, cacheable := predictFingerprint(iopts); cacheable {
		rep, err = cp.EvaluateWith(ctx, iopts.Values, iopts.TripCounts)
	} else {
		rep, err = cp.Evaluate(ctx)
	}
	if stats != nil {
		stats.Interps.Add(1)
		stats.InterpNS.Add(int64(time.Since(start)))
	}
	if rep != nil {
		span.SetAttrInt("procs", rep.Procs)
	}
	return rep, err
}

// MeasureSpec pins every input of a simulated-execution run. The
// simulator is deterministic for a fixed spec (the noise generator is
// seeded), so (program, spec) fully determines the *exec.Result and
// measurement becomes memoizable — the paper's experimentation loop
// spends almost all of its time here, which is what makes this cache
// the dominant sweep speedup.
type MeasureSpec struct {
	// Machine names the simulated system abstraction ("" = iPSC/860).
	Machine string
	// Runs is the number of perturbed timed runs to average (<= 0 = 1).
	Runs int
	// PerturbAmp is the per-run load-fluctuation amplitude.
	PerturbAmp float64
	// TimerResUS is the timing-routine resolution.
	TimerResUS float64
	// Seed drives the deterministic noise generator.
	Seed int64
	// CacheModel enables the simulator's data-cache miss model.
	CacheModel bool
}

// DefaultMeasureSpec mirrors ipsc.DefaultConfig with the sweep loop's
// two variable knobs: the run count and the perturbation amplitude.
func DefaultMeasureSpec(runs int, perturb float64) MeasureSpec {
	d := ipsc.DefaultConfig(1)
	if runs <= 0 {
		runs = 1
	}
	return MeasureSpec{
		Runs:       runs,
		PerturbAmp: perturb,
		TimerResUS: d.TimerResUS,
		Seed:       d.Seed,
		CacheModel: d.CacheModel,
	}
}

// fingerprint renders the spec deterministically for the cache key.
func (sp MeasureSpec) fingerprint() string {
	return fmt.Sprintf("mach=%s|runs=%d|amp=%g|timer=%g|seed=%d|cache=%t",
		sp.Machine, sp.Runs, sp.PerturbAmp, sp.TimerResUS, sp.Seed, sp.CacheModel)
}

// Measure returns the simulated-execution result for (src, copts, spec),
// running the simulator at most once per live key. Results are shared
// and must be treated as immutable by callers. A cancelled, panicked or
// fault-injected run is dropped from the cache so a later request
// re-executes it.
func (c *Cache) Measure(ctx context.Context, src string, copts compiler.Options, spec MeasureSpec, stats *Stats) (*exec.Result, error) {
	if spec.Runs <= 0 {
		spec.Runs = 1 // normalize before keying so runs=0 and runs=1 share
	}
	key := compileKey(src, copts) + "|" + spec.fingerprint()
	c.mu.Lock()
	if e, ok := c.measures[key]; ok {
		touch(c.measureLRU, e.elem)
		c.mu.Unlock()
		if stats != nil {
			stats.ExecHits.Add(1)
		}
		cacheSpan(ctx, "exec", key, "hit")
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &measureEntry{done: make(chan struct{})}
	e.elem = c.measureLRU.PushFront(key)
	c.measures[key] = e
	c.evictMeasures()
	c.mu.Unlock()

	if stats != nil {
		stats.ExecMisses.Add(1)
	}
	cacheSpan(ctx, "exec", key, "miss")
	func() {
		defer recoverToErr("execute", &e.err)
		var prog *hir.Program
		prog, e.err = c.Compile(ctx, src, copts, stats)
		if e.err != nil {
			return
		}
		e.res, e.err = runExec(ctx, prog, spec, stats)
	}()
	if poisoned(e.err) {
		c.dropMeasure(key, e)
	}
	close(e.done)
	return e.res, e.err
}

// runExec builds the simulated machine for spec and executes prog on it.
func runExec(ctx context.Context, prog *hir.Program, spec MeasureSpec, stats *Stats) (*exec.Result, error) {
	// The VM only polls ctx every few thousand statements; a small
	// program can finish before the first poll. Check upfront so an
	// already-dead request never executes (and never caches).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
	if spec.Machine != "" {
		base, err := sysmodel.MachineByName(spec.Machine)
		if err != nil {
			return nil, err
		}
		cfg.Base = base
	}
	cfg.PerturbAmp = spec.PerturbAmp
	cfg.TimerResUS = spec.TimerResUS
	cfg.Seed = spec.Seed
	cfg.CacheModel = spec.CacheModel
	m, err := ipsc.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := exec.RunContext(ctx, prog, m, exec.Options{Runs: spec.Runs})
	if stats != nil {
		stats.Execs.Add(1)
		stats.ExecNS.Add(int64(time.Since(start)))
	}
	return res, err
}

// cacheSpan records one cache probe as an instant cache.lookup span.
// No-op (one nil check inside Start) when the context is untraced.
func cacheSpan(ctx context.Context, kind, key, outcome string) {
	_, s := obs.Start(ctx, "cache.lookup")
	if s == nil {
		return
	}
	s.SetAttr("kind", kind)
	s.SetAttr("outcome", outcome)
	if len(key) > 32 {
		key = key[:32]
	}
	s.SetAttr("key", key)
	s.End()
}

// Len reports how many compiled programs the cache holds (for tests and
// diagnostics).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.compiles)
}
