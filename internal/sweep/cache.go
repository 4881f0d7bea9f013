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

// DefaultCacheEntries bounds each of the cache's three maps (compiled
// programs, interpretation reports and simulated-execution results) when
// no explicit capacity is given. The bound keeps a long-running process
// (hpfserve) from growing without limit while still holding every
// artifact of a full experiment reproduction.
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
// Three artifact kinds are cached, one bounded map each: compiled
// programs (*hir.Program), whole interpretation reports (*core.Report),
// and simulated-execution results (*exec.Result — the simulator is
// deterministic for a fixed MeasureSpec, which is what makes
// measurement memoizable at all). Each compiled program also owns the
// closure-compiled prediction form (*core.Compiled) of its most recent
// static key (canonical machine plus the static interpretation options):
// one form serves every Values/TripCounts combination through its
// incremental EvaluateWith path, a request with another static key
// replaces it, and it is evicted with its program. So there is at most
// one form per cached program and never one without it.
//
// The cache is a bounded LRU: each map holds at most cap entries and
// evicts the least recently used entry beyond that, counting evictions.
// Evicted entries remain valid for goroutines already holding them;
// only the memoization is lost.
//
// Cached values are shared between callers: all of them are treated as
// immutable after construction everywhere in this module (the
// simulator, the evaluators and the report renderers only read them),
// which is what makes the memoization sound.
type Cache struct {
	compiles lru[*program]
	reports  lru[*core.Report]
	measures lru[*exec.Result]
}

// NewCache returns an empty cache bounded at DefaultCacheEntries
// entries per map.
func NewCache() *Cache { return NewCacheSize(DefaultCacheEntries) }

// NewCacheSize returns an empty cache holding at most n compiled
// programs, n interpretation reports and n simulated-execution results
// (n <= 0 selects the default).
func NewCacheSize(n int) *Cache {
	if n <= 0 {
		n = DefaultCacheEntries
	}
	return &Cache{
		compiles: lru[*program]{stage: "compile", cap: n},
		reports:  lru[*core.Report]{stage: "interpret", cap: n},
		measures: lru[*exec.Result]{stage: "execute", cap: n},
	}
}

// program is a compile entry's value: the compiled program and the
// prediction form of its most recent static key.
type program struct {
	prog *hir.Program
	form lru[*core.Compiled] // capacity 1
}

// lru is the single-flight, bounded memo behind every cached kind. The
// first goroutine to ask for a key builds its value; later ones wait for
// that build (or for their own context to end). A build whose error is
// poisoned is dropped, so the next request rebuilds; any other error is
// cached like a value. Beyond cap entries the least recently used is
// evicted and counted. The zero value with stage and cap set is ready
// to use.
type lru[V any] struct {
	stage     string // *PanicError stage of a panicking build
	cap       int
	mu        sync.Mutex
	m         map[string]*lruEntry[V]
	order     list.List // of *lruEntry[V]; front = most recent
	evictions atomic.Int64
}

type lruEntry[V any] struct {
	key  string
	done chan struct{} // closed when val/err are final
	elem *list.Element // position in order while the entry is in m
	val  V
	err  error
}

// get returns the value cached under key, building it with build on a
// miss. lookup is called once, before any wait or build, with whether
// key was present; callers count the probe there. A waiter whose ctx
// ends before the build completes returns the ctx error; the build
// itself always runs to completion. A panic in build becomes a
// *PanicError, so the completion channel is closed on every path.
func (l *lru[V]) get(ctx context.Context, key string, lookup func(hit bool), build func() (V, error)) (V, error) {
	l.mu.Lock()
	if e, ok := l.m[key]; ok {
		l.order.MoveToFront(e.elem)
		l.mu.Unlock()
		lookup(true)
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	if l.m == nil {
		l.m = make(map[string]*lruEntry[V])
	}
	e := &lruEntry[V]{key: key, done: make(chan struct{})}
	e.elem = l.order.PushFront(e)
	l.m[key] = e
	for len(l.m) > l.cap {
		old := l.order.Remove(l.order.Back()).(*lruEntry[V])
		delete(l.m, old.key)
		l.evictions.Add(1)
	}
	l.mu.Unlock()

	lookup(false)
	e.run(l.stage, build)
	if poisoned(e.err) {
		// A cancelled or fault-injected build is the attempt's failure,
		// not the key's. Deterministic errors and real panics stay
		// cached (they will fail identically every time).
		l.mu.Lock()
		if l.m[key] == e {
			delete(l.m, key)
			l.order.Remove(e.elem)
		}
		l.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// run fills the entry from build, turning a panic into a *PanicError.
func (e *lruEntry[V]) run(stage string, build func() (V, error)) {
	defer recoverToErr(stage, &e.err)
	e.val, e.err = build()
}

// len reports how many entries the map holds.
func (l *lru[V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// CacheStats is a point-in-time view of the cache occupancy and its
// eviction counters (served by hpfserve's /metrics).
type CacheStats struct {
	Cap              int
	CompileEntries   int
	ReportEntries    int
	MeasureEntries   int
	CompileEvictions int64
	ReportEvictions  int64
	MeasureEvictions int64
}

// CacheStats returns the cache occupancy and eviction counters.
func (c *Cache) CacheStats() CacheStats {
	return CacheStats{
		Cap:              c.compiles.cap,
		CompileEntries:   c.compiles.len(),
		ReportEntries:    c.reports.len(),
		MeasureEntries:   c.measures.len(),
		CompileEvictions: c.compiles.evictions.Load(),
		ReportEvictions:  c.reports.evictions.Load(),
		MeasureEvictions: c.measures.evictions.Load(),
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

// machineKey is the cache-key spelling of a machine name: its canonical
// name, so "", "ipsc860", "IPSC860" and "ipsc860:8" share one entry of
// each kind. A name that does not resolve keys as given; building it
// fails and the error is cached under that spelling.
func machineKey(name string) string {
	if k, err := sysmodel.CanonicalName(name); err == nil {
		return k
	}
	return name
}

// poisoned reports whether a build error must not be memoized:
// cancellations are the requester's failure, and injected faults and
// injected panics (IsTransient) are the attempt's. Deterministic
// pipeline errors and real panics are the key's: the pipeline is a pure
// function of its input, so they stay cached and fail every later
// lookup identically, bounded by the LRU's capacity like any value.
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

// probe counts one lookup of a cached kind on stats (may be nil) and
// records it as a cache.lookup span.
func probe(ctx context.Context, stats *Stats, kind, key string, hit bool) {
	if stats != nil {
		hits, misses := stats.lookups(kind)
		if hit {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
	}
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	cacheSpan(ctx, kind, key, outcome)
}

// Compile returns the compiled program for (src, opts), running the
// scanner→parser→sem→compiler pipeline at most once per live key.
// Counter updates go to stats (may be nil). A waiter whose ctx ends
// before the build completes returns the ctx error; the build itself
// always runs to completion and stays cached.
func (c *Cache) Compile(ctx context.Context, src string, opts compiler.Options, stats *Stats) (*hir.Program, error) {
	key := compileKey(src, opts)
	p, err := c.lookupProgram(ctx, src, opts, key, stats, func(hit bool) { probe(ctx, stats, "compile", key, hit) })
	if p == nil {
		return nil, err
	}
	return p.prog, err
}

// lookupProgram is Compile's lookup with the probe left to the caller.
func (c *Cache) lookupProgram(ctx context.Context, src string, opts compiler.Options, key string, stats *Stats, lookup func(hit bool)) (*program, error) {
	return c.compiles.get(ctx, key, lookup, func() (*program, error) {
		if stats != nil {
			start := time.Now()
			defer func() {
				stats.Compiles.Add(1)
				stats.CompileNS.Add(int64(time.Since(start)))
			}()
		}
		if err := faults.Fire(faults.SiteCompile); err != nil {
			return nil, err
		}
		prog, err := compiler.CompileWithContext(ctx, src, opts)
		return &program{prog: prog, form: lru[*core.Compiled]{stage: "predict", cap: 1}}, err
	})
}

// CompiledPrediction returns the closure-compiled prediction form for
// (src, copts, static iopts) on the named machine abstraction. The form
// is owned by the program's compile entry and built at most once per
// live (program, static key); a request with another static key builds
// a new form that replaces it. The form is shared and concurrency-safe;
// its subtree memoization accumulates across every EvaluateWith caller,
// so incremental sweeps that vary only Values/TripCounts re-evaluate
// only the cost terms those feed. Uncacheable options (injected
// CommLibrary) build a private form.
//
// A form hit is not a compile hit: the compile probe is counted as a
// miss when the program is new and as a hit only when the form misses.
func (c *Cache) CompiledPrediction(ctx context.Context, src string, copts compiler.Options, iopts core.Options, machine string, stats *Stats) (*core.Compiled, error) {
	fp, cacheable := predictFingerprint(iopts)
	if !cacheable {
		prog, err := c.Compile(ctx, src, copts, stats)
		if err != nil {
			return nil, err
		}
		return buildPredict(ctx, prog, iopts, machine)
	}

	key := compileKey(src, copts)
	compileHit := false
	p, err := c.lookupProgram(ctx, src, copts, key, stats, func(hit bool) {
		if compileHit = hit; !hit {
			probe(ctx, stats, "compile", key, false)
		}
	})
	formProbe := func(hit bool) {
		if !hit && compileHit {
			probe(ctx, stats, "compile", key, true)
		}
		probe(ctx, stats, "predict", key, hit)
	}
	if err != nil {
		formProbe(false)
		return nil, err
	}
	return p.form.get(ctx, machineKey(machine)+"|"+fp, formProbe, func() (*core.Compiled, error) {
		return buildPredict(ctx, p.prog, iopts, machine)
	})
}

// buildPredict resolves the machine abstraction and compiles the
// prediction form (one calibration + SAAG build + closure compilation).
func buildPredict(ctx context.Context, prog *hir.Program, iopts core.Options, machine string) (cp *core.Compiled, err error) {
	defer recoverToErr("predict", &err)
	mach, err := sysmodel.MachineByName(machine)
	if err != nil {
		return nil, err
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

	key := compileKey(src, copts) + "|mach=" + machineKey(machine) + "|" + fp
	return c.reports.get(ctx, key, func(hit bool) { probe(ctx, stats, "report", key, hit) }, func() (*core.Report, error) {
		if err := faults.Fire(faults.SiteCache); err != nil {
			return nil, err
		}
		return c.predict(ctx, src, copts, iopts, machine, stats)
	})
}

// predict evaluates the compiled prediction form of (src, copts, iopts)
// under an interp span. A cached form is evaluated incrementally through
// EvaluateWith, so once the form is reused its subtree memo serves every
// caller; a private form (uncacheable options) is evaluated once with
// Evaluate.
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
// and must be treated as immutable by callers. A cancelled or
// fault-injected run is dropped from the cache so a later request
// re-executes it.
func (c *Cache) Measure(ctx context.Context, src string, copts compiler.Options, spec MeasureSpec, stats *Stats) (*exec.Result, error) {
	if spec.Runs <= 0 {
		spec.Runs = 1 // normalize before keying so runs=0 and runs=1 share
	}
	spec.Machine = machineKey(spec.Machine)
	key := compileKey(src, copts) + "|" + spec.fingerprint()
	return c.measures.get(ctx, key, func(hit bool) { probe(ctx, stats, "exec", key, hit) }, func() (*exec.Result, error) {
		prog, err := c.Compile(ctx, src, copts, stats)
		if err != nil {
			return nil, err
		}
		return runExec(ctx, prog, spec, stats)
	})
}

// runExec builds the simulated machine for spec and executes prog on it.
func runExec(ctx context.Context, prog *hir.Program, spec MeasureSpec, stats *Stats) (*exec.Result, error) {
	// The VM only polls ctx every few thousand statements; a small
	// program can finish before the first poll. Check upfront so an
	// already-dead request never executes (and never caches).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base, err := sysmodel.MachineByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	cfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
	cfg.Base = base
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
func (c *Cache) Len() int { return c.compiles.len() }
