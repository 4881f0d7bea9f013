package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"hpfperf"
	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/corpus"
	"hpfperf/internal/exec"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/parser"
	"hpfperf/internal/report"
	"hpfperf/internal/scanner"
	"hpfperf/internal/sem"
	"hpfperf/internal/sysmodel"
)

// An inproc workload is one closed-loop caller inside the benchmark
// process. Op i is a pure function of the seed and i. The op set is
// cut into passes of passLen ops; a timed run ends on a pass boundary,
// so every run weighs each kind of input equally.
type inproc interface {
	setup() error
	// setupTrace prepares what only the traced run needs.
	setupTrace() error
	passLen() int
	// prepare makes op i's input current; it is never timed.
	prepare(i int)
	// do runs the current op and digests its result. A nil tracer
	// selects the public entry points; otherwise the op calls each
	// layer's public functions itself and records spans.
	do(tr *tracer) (digest string, err error)
	// check verifies op i's output; it is never timed.
	check(i int, digest string) error
	// inputKey identifies op i's input, for input.repeat_share.
	inputKey(i int) string
}

var bg = context.Background()

// ---------------------------------------------------------------------------
// Traced building blocks shared by the workloads. Each records spans
// under the op span and queues its attribution calls on the tracer.

// compileTraced times compiler.CompileWithContext whole: it runs the
// unexported optimizeComm, so parse and sem are attributed by calling
// parser.Parse, scanner.ScanAll and sem.AnalyzeContext on the same
// source afterwards.
func compileTraced(tr *tracer, op int, src string) (*hir.Program, error) {
	cs := tr.start(op, "compiler")
	h, err := compiler.CompileWithContext(bg, src, compiler.Options{})
	tr.end(cs)
	if err != nil {
		return nil, err
	}
	tr.later = append(tr.later, func() {
		ps := tr.attr(cs, "parser")
		ast, perr := parser.Parse(src)
		tr.end(ps)
		ss := tr.attr(ps, "scanner")
		toks, _ := scanner.ScanAll(src)
		tr.end(ss)
		if perr == nil {
			ms := tr.attr(cs, "sem")
			_, _ = sem.AnalyzeContext(bg, ast) // the composed call already succeeded on this source
			tr.end(ms)
		}
		stmts, comm := countHIR(h.Body)
		tr.count("scanner.tokens", float64(len(toks)))
		tr.count("compiler.hir_stmts", float64(stmts))
		tr.count("compiler.comm_calls", float64(comm))
	})
	return h, nil
}

// predictTraced is hpfperf.Predict decomposed: MachineByName, then
// core.CompilePrediction (attributing core.BuildSAAG), then Evaluate
// (attributing analysis.TraceProgram).
func predictTraced(tr *tracer, op int, h *hir.Program, values map[string]int64) (*core.Report, error) {
	s := tr.start(op, "sysmodel")
	mach, err := sysmodel.MachineByName("")
	tr.end(s)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	if len(values) > 0 {
		opts.Values = make(map[string]sem.Value, len(values))
		for k, v := range values {
			opts.Values[k] = sem.IntVal(v)
		}
	}
	cs := tr.start(op, "core.compile")
	cp, err := core.CompilePrediction(bg, h, mach, opts)
	tr.end(cs)
	if err != nil {
		return nil, err
	}
	es := tr.start(op, "core.evaluate")
	rep, err := cp.Evaluate(bg)
	tr.end(es)
	if err != nil {
		return nil, err
	}
	tr.later = append(tr.later, func() {
		gs := tr.attr(cs, "core.saag")
		g := core.BuildSAAG(h)
		tr.end(gs)
		ts := tr.attr(es, "analysis.trace")
		analysis.TraceProgram(h, opts.Values)
		tr.end(ts)
		tr.count("core.aaus", float64(g.Count()))
	})
	return rep, nil
}

// measureTraced is hpfperf.Measure decomposed into ipsc.New and
// exec.RunContext. The simulator's per-statement machine calls happen
// inside exec.RunContext, so exec.busy_s includes them; ipsc.busy_s is
// machine construction.
func measureTraced(tr *tracer, op int, h *hir.Program, perturbSeed int64) (*exec.Result, error) {
	s := tr.start(op, "ipsc")
	cfg := ipsc.DefaultConfig(h.Info.Grid.Size())
	cfg.PerturbAmp = table2Perturb
	cfg.Seed = perturbSeed
	m, err := ipsc.New(cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.start(op, "exec")
	res, err := exec.RunContext(bg, h, m, exec.Options{Runs: 1})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.count("exec.steps", float64(res.Steps))
	tr.count("ipsc.messages", float64(res.Stats.Messages))
	tr.count("ipsc.bytes_moved", float64(res.Stats.BytesMoved))
	tr.count("ipsc.collectives", float64(res.Stats.Collectives))
	return res, nil
}

// traced runs body under an op span.
func traced(tr *tracer, body func(op int) (string, error)) (string, error) {
	op := tr.start(-1, "op")
	d, err := body(op)
	tr.end(op)
	return d, err
}

// countHIR counts the SPMD node program's statements and, among them,
// its communication calls.
func countHIR(ss []hir.Stmt) (stmts, comm int) {
	for _, s := range ss {
		stmts++
		var nested [][]hir.Stmt
		switch x := s.(type) {
		case *hir.Loop:
			nested = [][]hir.Stmt{x.Body}
		case *hir.While:
			nested = [][]hir.Stmt{x.Body}
		case *hir.If:
			nested = [][]hir.Stmt{x.Then, x.Else}
		case *hir.Reduce, *hir.Shift, *hir.AllGather, *hir.CShift, *hir.EOShift, *hir.FetchElem:
			comm++
		}
		for _, b := range nested {
			s, c := countHIR(b)
			stmts += s
			comm += c
		}
	}
	return stmts, comm
}

// predictionDigest covers a prediction's totals, breakdown, warnings and
// (when rendered) profile.
func predictionDigest(rep *core.Report, profile string) string {
	return digest(rep.TotalUS(), rep.Total.CompUS, rep.Total.CommUS, rep.Total.OvhdUS, rep.Warnings, profile)
}

func publicDigest(pred *hpfperf.Prediction, profile string) string {
	comp, comm, ovhd := pred.Breakdown()
	return digest(pred.Microseconds(), comp, comm, ovhd, pred.Warnings(), profile)
}

// ---------------------------------------------------------------------------
// predict: cold compile + predict + profile of a distinct program per op.

type predictWL struct {
	seed  int64
	first []string // the first pass's sources, generated in setup
	src   string
	exp   []string
}

const predictPass = 600

func (w *predictWL) program(i int) corpus.Program {
	fams := corpus.Families()
	return corpus.GenerateOne(w.seed, fams[i%len(fams)], i/len(fams))
}

// setup generates the first pass of programs (later ones are generated
// between timed ops) and warms the calibration cache for every
// processor count they use.
func (w *predictWL) setup() error {
	w.first = w.first[:0]
	warmed := make(map[int]bool)
	for i := 0; i < predictPass; i++ {
		p := w.program(i)
		w.first = append(w.first, p.Source)
		if warmed[p.Procs] {
			continue
		}
		warmed[p.Procs] = true
		if err := predictOnce(p.Source); err != nil {
			return err
		}
	}
	var err error
	w.exp, err = loadExpected("predict", w.seed)
	return err
}

func (w *predictWL) setupTrace() error { return nil }
func (w *predictWL) passLen() int      { return predictPass }
func (w *predictWL) prepare(i int)     { w.src = w.inputKey(i) }
func (w *predictWL) inputKey(i int) string {
	if i < len(w.first) {
		return w.first[i]
	}
	return w.program(i).Source
}

func (w *predictWL) do(tr *tracer) (string, error) {
	if tr == nil {
		prog, err := hpfperf.Compile(w.src)
		if err != nil {
			return "", err
		}
		pred, err := hpfperf.Predict(prog, nil)
		if err != nil {
			return "", err
		}
		return publicDigest(pred, pred.Profile()), nil
	}
	return traced(tr, func(op int) (string, error) {
		h, err := compileTraced(tr, op, w.src)
		if err != nil {
			return "", err
		}
		rep, err := predictTraced(tr, op, h, nil)
		if err != nil {
			return "", err
		}
		s := tr.start(op, "report")
		prof := report.Profile(rep)
		tr.end(s)
		return predictionDigest(rep, prof), nil
	})
}

func (w *predictWL) check(i int, d string) error { return checkExpected(w.exp, i, d) }

// ---------------------------------------------------------------------------
// whatif: warm re-predict of a small compiled set with STEPS pinned.

const (
	whatifPrograms = 24
	whatifValues   = 8
)

type whatifWL struct {
	seed  int64
	progs []*hpfperf.Program
	hirs  []*hir.Program
	ks    []int64
	cur   int
	exp   []string
	seen  map[int]string
}

var (
	stepsParam = regexp.MustCompile(`, STEPS = (\d+)`)
	stepsLoop  = regexp.MustCompile(`(?m)^DO \w+ = 1, STEPS$`)
)

// pinnable moves STEPS out of PARAMETER into an assignment before the
// time loop, which makes it a critical variable a caller can pin.
func pinnable(src string) (string, error) {
	m := stepsParam.FindStringSubmatch(src)
	loop := stepsLoop.FindStringIndex(src)
	if m == nil || loop == nil {
		return "", fmt.Errorf("no STEPS parameter and time loop to rewrite")
	}
	out := src[:loop[0]] + "STEPS = " + m[1] + "\n" + src[loop[0]:]
	out = strings.Replace(out, m[0], "", 1)
	return strings.Replace(out, "\nREAL ", "\nINTEGER STEPS\nREAL ", 1), nil
}

func (w *whatifWL) sources() ([]string, error) {
	fams := []corpus.Family{corpus.Stencil1D, corpus.Stencil2D, corpus.Relax, corpus.NBody}
	var out []string
	for i := 0; i < whatifPrograms; i++ {
		src, err := pinnable(corpus.GenerateOne(w.seed, fams[i%len(fams)], i/len(fams)).Source)
		if err != nil {
			return nil, err
		}
		out = append(out, src)
	}
	return out, nil
}

func (w *whatifWL) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.ks = nil
	for _, k := range rng.Perm(61)[:whatifValues] {
		w.ks = append(w.ks, int64(k+4))
	}
	srcs, err := w.sources()
	if err != nil {
		return err
	}
	w.progs = w.progs[:0]
	for _, src := range srcs {
		prog, err := hpfperf.Compile(src)
		if err != nil {
			return err
		}
		// The first predict also warms the calibration cache.
		if _, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{IntValues: map[string]int64{"STEPS": w.ks[0]}}); err != nil {
			return err
		}
		w.progs = append(w.progs, prog)
	}
	w.seen = make(map[int]string)
	w.exp, err = loadExpected("whatif", w.seed)
	return err
}

func (w *whatifWL) setupTrace() error {
	srcs, err := w.sources()
	if err != nil {
		return err
	}
	w.hirs = w.hirs[:0]
	for _, src := range srcs {
		h, err := compiler.CompileWithContext(bg, src, compiler.Options{})
		if err != nil {
			return err
		}
		w.hirs = append(w.hirs, h)
	}
	return nil
}

func (w *whatifWL) passLen() int  { return whatifPrograms * whatifValues }
func (w *whatifWL) prepare(i int) { w.cur = i % w.passLen() }
func (w *whatifWL) inputKey(i int) string {
	return fmt.Sprint(i % w.passLen())
}

func (w *whatifWL) input() (prog int, k int64) {
	return w.cur % whatifPrograms, w.ks[w.cur/whatifPrograms]
}

func (w *whatifWL) do(tr *tracer) (string, error) {
	p, k := w.input()
	values := map[string]int64{"STEPS": k}
	if tr == nil {
		pred, err := hpfperf.Predict(w.progs[p], &hpfperf.PredictOptions{IntValues: values})
		if err != nil {
			return "", err
		}
		return publicDigest(pred, ""), nil
	}
	return traced(tr, func(op int) (string, error) {
		rep, err := predictTraced(tr, op, w.hirs[p], values)
		if err != nil {
			return "", err
		}
		return predictionDigest(rep, ""), nil
	})
}

// check compares with the expected digest and, for any seed, with the
// first result of the same (program, STEPS) input in this run.
func (w *whatifWL) check(i int, d string) error {
	if err := checkExpected(w.exp, i, d); err != nil {
		return err
	}
	key := i % w.passLen()
	if first, ok := w.seen[key]; ok && first != d {
		return fmt.Errorf("the same input gave digest %s earlier, now %s", first, d)
	}
	w.seen[key] = d
	return nil
}

// ---------------------------------------------------------------------------
// table2: one Table 2 point per op: compile, predict, measure, error.

const (
	table2Perturb = 0.01
	// table2Band is the error band TestTable2AccuracyBandsQuick holds.
	table2Band = 0.30
)

type point struct {
	prog        string
	size, procs int
	src         string
}

type table2WL struct {
	seed   int64
	points []point
	perms  map[int][]int
	cur    point
	pseed  int64
	exp    []string
	relErr float64
	maxErr float64 // largest relative error of any op in the run
}

// setup builds the point set: every suite program at its two smallest
// problem sizes on each of its processor counts. Larger sizes take up
// to 2.8 s an op, so a run would hold only a handful of them.
func (w *table2WL) setup() error {
	w.points = w.points[:0]
	warmed := make(map[int]bool)
	for _, p := range hpfperf.Suite() {
		for _, n := range p.Sizes[:2] {
			for _, np := range p.Procs {
				src := p.Source(n, np)
				w.points = append(w.points, point{prog: p.Name, size: n, procs: np, src: src})
				if !warmed[np] {
					warmed[np] = true
					if err := predictOnce(src); err != nil {
						return err
					}
				}
			}
		}
	}
	w.perms = make(map[int][]int)
	var err error
	w.exp, err = loadExpected("table2", w.seed)
	return err
}

func (w *table2WL) setupTrace() error { return nil }
func (w *table2WL) passLen() int      { return len(w.points) }

// prepare picks op i: pass i/n visits every point once in a seeded
// order, and every op gets its own perturbation seed.
func (w *table2WL) prepare(i int) {
	pass := i / len(w.points)
	perm, ok := w.perms[pass]
	if !ok {
		perm = rand.New(rand.NewSource(w.seed*7919 + int64(pass))).Perm(len(w.points))
		w.perms = map[int][]int{pass: perm}
	}
	w.cur = w.points[perm[i%len(w.points)]]
	w.pseed = w.seed*1_000_003 + int64(i) + 1
}

func (w *table2WL) inputKey(i int) string {
	w.prepare(i)
	return fmt.Sprintf("%s|%d|%d|%d", w.cur.prog, w.cur.size, w.cur.procs, w.pseed)
}

func (w *table2WL) do(tr *tracer) (string, error) {
	if tr == nil {
		prog, err := hpfperf.Compile(w.cur.src)
		if err != nil {
			return "", err
		}
		pred, err := hpfperf.Predict(prog, nil)
		if err != nil {
			return "", err
		}
		meas, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Runs: 1, Perturb: table2Perturb, Seed: w.pseed})
		if err != nil {
			return "", err
		}
		w.relErr = math.Abs(pred.Microseconds()-meas.Microseconds()) / meas.Microseconds()
		return digest(pred.Microseconds(), meas.Microseconds(), meas.Printed()), nil
	}
	return traced(tr, func(op int) (string, error) {
		h, err := compileTraced(tr, op, w.cur.src)
		if err != nil {
			return "", err
		}
		rep, err := predictTraced(tr, op, h, nil)
		if err != nil {
			return "", err
		}
		res, err := measureTraced(tr, op, h, w.pseed)
		if err != nil {
			return "", err
		}
		w.relErr = math.Abs(rep.TotalUS()-res.MeasuredUS) / res.MeasuredUS
		return digest(rep.TotalUS(), res.MeasuredUS, res.Printed), nil
	})
}

func (w *table2WL) check(i int, d string) error {
	w.maxErr = math.Max(w.maxErr, w.relErr)
	if !(w.relErr <= table2Band) {
		return fmt.Errorf("%s n=%d p=%d: prediction error %.1f%% is outside the %.0f%% band",
			w.cur.prog, w.cur.size, w.cur.procs, 100*w.relErr, 100*table2Band)
	}
	return checkExpected(w.exp, i, d)
}

// predictOnce compiles and predicts src through the public API.
func predictOnce(src string) error {
	prog, err := hpfperf.Compile(src)
	if err != nil {
		return err
	}
	_, err = hpfperf.Predict(prog, nil)
	return err
}

// ---------------------------------------------------------------------------
// The single-caller loops shared by the in-process workloads.

type inprocRunner struct {
	w     inproc
	peaks []float64 // VmHWM of each timed pass, in MB
}

func (r *inprocRunner) setup() error { return r.w.setup() }
func (r *inprocRunner) close()       {}

// peakRSSMB is the median over the timed passes of each pass's VmHWM.
// One pass whose collection started late would otherwise set the peak
// of the whole run.
func (r *inprocRunner) peakRSSMB() (float64, error) { return median(r.peaks), nil }

// run times ops one after another until the timed phase has lasted
// seconds and a pass is complete. Input generation, output checks and
// the per-pass VmHWM reading happen between ops and are left out of the
// timed phase.
func (r *inprocRunner) run(seconds float64) (*loopResult, error) {
	res := &loopResult{}
	var paused time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		p0 := time.Now()
		if i%r.w.passLen() == 0 {
			if i > 0 {
				mb, err := peakRSS(os.Getpid())
				if err != nil {
					return nil, err
				}
				r.peaks = append(r.peaks, mb)
			}
			if (p0.Sub(start) - paused).Seconds() >= seconds {
				break
			}
			// Writing 5 to clear_refs resets VmHWM to the current RSS.
			if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
				return nil, fmt.Errorf("resetting the peak RSS: %w", err)
			}
		}
		r.w.prepare(i)
		t0 := time.Now()
		d, err := r.w.do(nil)
		t1 := time.Now()
		if err == nil {
			err = r.w.check(i, d)
		}
		paused += t0.Sub(p0) + time.Since(t1)
		res.attempted++
		if err != nil {
			res.fail(i, err)
			continue
		}
		res.lat = append(res.lat, t1.Sub(t0).Seconds())
	}
	res.wall = (time.Since(start) - paused).Seconds()
	return res, nil
}

// trace repeats the first pass of ops until seconds have passed,
// running each op untraced and traced, then makes one more pass that
// counts allocations. Every traced op must give the digest of the
// public entry points on the same input.
func (r *inprocRunner) trace(seconds float64) (*traceResult, error) {
	if err := r.w.setupTrace(); err != nil {
		return nil, err
	}
	n := r.w.passLen()
	res := &traceResult{metrics: make(map[string]float64)}
	lr := &loopResult{}
	pub := make([]string, n)
	var ratios []float64
	busy := make(map[string][]float64)
	var last *tracer
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start).Seconds() < seconds; pass++ {
		// Each op runs untraced and traced back to back, in alternating
		// order, so both see the same machine; the attribution calls
		// wait until the pass is over.
		runtime.GC()
		tr := newTracer(false, 16*n)
		var plain time.Duration
		for i := 0; i < n; i++ {
			r.w.prepare(i)
			var d, dt string
			var err, errt error
			timePlain := func() {
				t0 := time.Now()
				d, err = r.w.do(nil)
				plain += time.Since(t0)
			}
			if i%2 == 0 {
				timePlain()
				dt, errt = r.w.do(tr)
			} else {
				dt, errt = r.w.do(tr)
				timePlain()
			}
			if pass == 0 {
				if err == nil {
					err = r.w.check(i, d)
				}
				pub[i] = d
			}
			if err == nil && errt == nil && dt != pub[i] {
				errt = fmt.Errorf("decomposed calls gave digest %s, the public entry points %s", dt, pub[i])
			}
			for _, e := range []error{err, errt} {
				lr.attempted++
				if e != nil {
					lr.fail(i, e)
				}
			}
		}
		tr.flush()
		ratios = append(ratios, tr.opSeconds()/plain.Seconds())
		secs, _ := tr.selfTimes()
		for _, l := range busyLayers {
			busy[l] = append(busy[l], secs[l])
		}
		last = tr
	}
	for _, l := range busyLayers {
		res.metrics[l+".busy_s"] = median(busy[l])
	}
	for _, l := range []string{"sysmodel", "core.compile", "core.saag", "core.evaluate", "analysis.trace"} {
		res.metrics["core.predict.busy_s"] += res.metrics[l+".busy_s"]
	}
	res.metrics["trace.overhead_pct"] = 100 * (median(ratios) - 1)

	// Allocation counts repeat only to within 0.5% or half an allocation
	// per op: map layouts follow a per-map random hash seed, and
	// sync.Pool refills follow collection cycles. The other counters
	// repeat exactly.
	ct := newTracer(true, 16*n)
	for i := 0; i < n; i++ {
		r.w.prepare(i)
		if _, err := r.w.do(ct); err != nil {
			return nil, err
		}
	}
	ct.flush()
	_, allocs := ct.selfTimes()
	for _, l := range busyLayers {
		res.metrics[l+".allocs"] = allocs[l] / float64(n)
	}
	for k, v := range ct.counts {
		res.metrics[k] = v / float64(n)
	}
	keys := make([]string, repeatPrefix)
	for i := range keys {
		keys[i] = r.w.inputKey(i)
	}
	res.metrics["input.repeat_share"] = repeatShare(keys)
	if t, ok := r.w.(*table2WL); ok {
		res.metrics["table2.max_err_pct"] = 100 * t.maxErr
	}
	res.attempted, res.failed, res.errs = lr.attempted, lr.failed, lr.errs
	res.spans = last.spans
	return res, nil
}

// expected digests the first pass through the public entry points.
func (r *inprocRunner) expected() ([]string, error) {
	var out []string
	for i := 0; i < r.w.passLen(); i++ {
		r.w.prepare(i)
		d, err := r.w.do(nil)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		out = append(out, d)
	}
	return out, nil
}
