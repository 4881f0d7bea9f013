// Closure-compiled prediction core (ROADMAP: "lower the AAG to a
// compact prediction IR"). The reference tree-walking interpreter
// re-dispatches on hir.Stmt types at every AAU; this file compiles
// the SAAG once per (program, machine, static options) into a tree of
// cost thunks ("cnodes") whose statically determinable inputs — op
// costs, loop triplets without scalar references, communication volumes,
// partition maps, kill sets — are resolved at compile time. A sweep then
// evaluates pre-compiled closures against a tiny per-point state instead
// of re-walking HIR.
//
// This is the only prediction path: traced and untraced requests run the
// same closures and consult the subtree memo the same way; a traced one
// also records the stage and interp.<kind> spans (DESIGN.md §11).
// Evaluation is bit-identical to the reference tree walker
// (InterpretTree) by construction: every floating-point accumulation the
// walker performs (per-AAU add order, clock advance, by-line
// accumulation) is replayed in exactly the same sequence, and the
// differential suite in equiv_test.go enforces it.
//
// Incremental re-evaluation: EvaluateWith memoizes each top-level
// subtree under a key formed from the resolved critical-variable values
// that feed it (entry values of its scalar read set, pinned-ness of its
// write set, trip-count overrides and traced bounds of its loops). When
// only inputs that feed other subtrees change between sweep points, the
// untouched subtrees replay a recorded op log — the same adds in the
// same order — rather than re-evaluating their closures. Recording starts
// with a form's second evaluation: a form evaluated once never pays for
// op logs it would not replay.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hpfperf/internal/analysis"
	"hpfperf/internal/dist"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
	"hpfperf/internal/sem"
	"hpfperf/internal/sysmodel"
)

// memoCap bounds the number of memoized subtree evaluations kept per
// compiled program; traceCap bounds memoized definition-tracing runs.
const (
	memoCap  = 4096
	traceCap = 64
)

// Compiled is the closure-compiled form of one (program, machine, static
// options) triple. It is immutable after compilation apart from its
// internal memo tables and safe for concurrent Evaluate/EvaluateWith.
type Compiled struct {
	prog  *hir.Program
	mach  *sysmodel.Machine
	lib   *ipsc.CommLibrary
	opts  Options // Values/TripCounts act as Evaluate defaults
	costs map[hir.Stmt]costParts

	tmpl  *SAAG // metric-free template, cloned per evaluation
	maxID int
	tops  []cnode
	meta  []topMeta

	// evals counts evaluations started. The subtree memo is consulted
	// and recorded only from a form's second evaluation on, so a form
	// that is evaluated once (a report-cache miss) keeps no op logs.
	evals atomic.Int64

	mu     sync.Mutex
	traces map[string]*analysis.Trace
	memo   map[string]*memoEntry
}

// cnode is one compiled AAU: a cost thunk plus the identifiers needed to
// attribute its results and name its span.
type cnode struct {
	id   int
	line int
	kind Kind
	fn   evalFn
}

// evalFn evaluates one compiled AAU at a multiplicity.
type evalFn func(st *evalState, mult float64) (Metrics, error)

// topMeta is the memoization interface of one top-level subtree: the
// dynamic inputs that can change its evaluation between points.
type topMeta struct {
	reads  []string // scalar names the subtree may read from the env
	writes []string // scalar names it may kill or assign (pin-sensitive)
	lines  []int    // loop/while lines consulting Options.TripCounts
	loops  []*hir.Loop
	whiles []*hir.While
}

// memoOp is one replayable side effect of a subtree evaluation.
type memoOp struct {
	kind uint8
	id   int // AAU ID (add/clock) or comm-table index (comm)
	line int
	m    Metrics // scaled metrics for add; (bytes, cost, count) for comm
	s    string  // warning text / env name
	v    sem.Value
}

const (
	mopAdd uint8 = iota
	mopClock
	mopComm
	mopWarn
	mopEnvSet
	mopEnvDel
)

// memoEntry is a recorded subtree evaluation: its op log and the metrics
// the subtree returned.
type memoEntry struct {
	ops   []memoOp
	total Metrics
}

// evalState is the per-evaluation mutable state — the compiled
// counterpart of the Interpreter's byLine/warnings/clock/env fields.
type evalState struct {
	c      *Compiled
	ctx    context.Context
	env    absEnv
	pinned map[string]bool
	trips  map[int]int
	trace  *analysis.Trace

	byID     []*AAU
	recs     []*CommRec
	byLine   map[int]*Metrics
	warnings []string
	clock    float64
	stride   int

	rec  *[]memoOp // non-nil while recording a memoizable subtree
	span *obs.Span // current parent span; nil when untraced
}

// ---------------------------------------------------------------------------
// Public API

// CompilePrediction builds the closure-compiled prediction form of prog
// for mach under opts. The returned Compiled can be evaluated repeatedly
// (and concurrently) with varying critical-variable values and trip
// counts; static options (memory model, load model, mask density, branch
// probability, comm model, machine) are bound at compile time. A traced
// ctx records the work as core.compile, with calibrate and core.saag
// children.
func CompilePrediction(ctx context.Context, prog *hir.Program, mach *sysmodel.Machine, opts Options) (*Compiled, error) {
	ctx, span := obs.Start(ctx, "core.compile")
	defer span.End()
	it, err := NewContext(ctx, prog, mach, opts)
	if err != nil {
		return nil, err
	}
	it.costs = make(map[hir.Stmt]costParts)
	it.prepass(it.prog.Body, 0)
	gs := span.StartChild("core.saag")
	tmpl := BuildSAAG(it.prog)
	gs.End()
	c := &Compiled{
		prog:   it.prog,
		mach:   it.mach,
		lib:    it.lib,
		opts:   it.opts,
		costs:  it.costs,
		tmpl:   tmpl,
		traces: make(map[string]*analysis.Trace),
		memo:   make(map[string]*memoEntry),
	}
	c.tmpl.Walk(func(a *AAU) {
		if a.ID > c.maxID {
			c.maxID = a.ID
		}
	})
	c.tops = c.compileAAUs(c.tmpl.Root.Children)
	for _, a := range c.tmpl.Root.Children {
		c.meta = append(c.meta, subtreeMeta(a.Stmt))
	}
	return c, nil
}

// Evaluate runs the compiled prediction under the Values/TripCounts
// bound at compile time.
func (c *Compiled) Evaluate(ctx context.Context) (*Report, error) {
	return c.evaluate(ctx, c.opts.Values, c.opts.TripCounts, false)
}

// EvaluateWith re-evaluates the prediction under new critical-variable
// values and trip counts, reusing memoized subtree evaluations whose
// resolved inputs are unchanged (the incremental-sweep path). The memo
// is recorded only once the form is being reused: the first evaluation
// of a form, by Evaluate or EvaluateWith, records nothing, the second
// records, and later ones replay what matches.
func (c *Compiled) EvaluateWith(ctx context.Context, values map[string]sem.Value, trips map[int]int) (*Report, error) {
	return c.evaluate(ctx, values, trips, true)
}

// MemoEntries reports how many subtree evaluations the memo holds.
func (c *Compiled) MemoEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.memo)
}

// Procs returns the processor-grid size the program was compiled for.
func (c *Compiled) Procs() int { return c.prog.Info.Grid.Size() }

// Program returns the compiled program's name.
func (c *Compiled) Program() string { return c.prog.Name }

// ---------------------------------------------------------------------------
// Compilation

func (c *Compiled) compileAAUs(aaus []*AAU) []cnode {
	out := make([]cnode, len(aaus))
	for i, a := range aaus {
		out[i] = c.compileAAU(a)
	}
	return out
}

func (c *Compiled) compileAAU(a *AAU) cnode {
	n := cnode{id: a.ID, line: a.Line, kind: a.Kind}
	switch a.Kind {
	case Seq:
		n.fn = c.compileSeq(a)
	case Iter, IterD:
		if _, ok := a.Stmt.(*hir.While); ok {
			n.fn = c.compileWhile(a)
		} else {
			n.fn = c.compileLoop(a)
		}
	case Condt, CondtD:
		n.fn = c.compileCondt(a)
	case Comm:
		n.fn = c.compileComm(a)
	case IO:
		n.fn = c.compileIO(a)
	default:
		n.fn = failFn(fmt.Errorf("core: cannot interpret AAU kind %s", a.Kind))
	}
	return n
}

// failFn is the thunk of an AAU the engine cannot interpret.
func failFn(err error) evalFn {
	return func(*evalState, float64) (Metrics, error) { return Metrics{}, err }
}

func (c *Compiled) compileSeq(a *AAU) evalFn {
	x := a.Stmt.(*hir.Assign)
	parts := c.costs[a.Stmt]
	P := c.mach.Node.P
	base := Metrics{CompUS: parts.compUS, OvhdUS: parts.ovhdUS, Execs: 1}
	if x.Guard {
		base.OvhdUS += P.CyclesToUS(P.GuardCycles)
	}
	var lhs string
	if lv, ok := x.Lhs.(*hir.ScalarLV); ok {
		lhs = lv.Name
	}
	rhs := x.Rhs
	// A right-hand side without scalar references evaluates identically
	// in every environment; resolve it once.
	var staticVal sem.Value
	staticKnown := false
	static := lhs != "" && len(hir.ScalarRefs(rhs)) == 0
	if static {
		staticVal, staticKnown = evalScalar(rhs, nil)
	}
	id, line := a.ID, a.Line
	return func(st *evalState, mult float64) (Metrics, error) {
		if lhs != "" && !st.pinned[lhs] {
			if static {
				if staticKnown {
					st.envSet(lhs, staticVal)
				} else {
					st.envDel(lhs)
				}
			} else if v, ok := evalScalar(rhs, st.env); ok {
				st.envSet(lhs, v)
			} else {
				st.envDel(lhs)
			}
		}
		return st.add(id, line, mult, base), nil
	}
}

func (c *Compiled) compileWhile(a *AAU) evalFn {
	w := a.Stmt.(*hir.While)
	condParts := c.costs[a.Stmt]
	children := c.compileAAUs(a.Children)
	kills := killSet(w.Body)
	id, line := a.ID, a.Line
	return func(st *evalState, mult float64) (Metrics, error) {
		trips, ok := st.trips[line]
		if !ok {
			if wt := st.trace.Whiles[w]; wt != nil && wt.CondResolved && !wt.CondValue {
				trips = 0
			} else {
				return Metrics{}, fmt.Errorf("core: line %d: DO WHILE trip count is a critical value; supply Options.TripCounts[%d]", line, line)
			}
		}
		m := Metrics{CompUS: condParts.compUS * float64(trips+1), OvhdUS: condParts.ovhdUS * float64(trips+1), Execs: 1}
		self := st.add(id, line, mult, m)
		body, err := st.run(children, mult*float64(trips))
		if err != nil {
			return Metrics{}, err
		}
		st.kill(kills)
		self.Accumulate(body)
		return self, nil
	}
}

func (c *Compiled) compileLoop(a *AAU) evalFn {
	x := a.Stmt.(*hir.Loop)
	bound := c.costs[a.Stmt]
	children := c.compileAAUs(a.Children)
	kills := killSet(x.Body)
	P := c.mach.Node.P
	loopOvhdUS := P.CyclesToUS(P.LoopOverheadCycles)
	load := c.opts.LoadModel
	var parMap *dist.ArrayMap
	if x.Par != nil {
		parMap = c.prog.Info.ArrayMap(x.Par.Array)
	}
	// Triplets without scalar references resolve identically in every
	// environment; bind them at compile time.
	static := len(hir.ScalarRefs(x.Lo))+len(hir.ScalarRefs(x.Hi))+len(hir.ScalarRefs(x.Step)) == 0
	var sLo, sHi, sStep int
	var sResolved bool
	if static {
		sLo, sHi, sStep, sResolved = resolveTriplet(x, nil)
	}
	id, line := a.ID, a.Line
	return func(st *evalState, mult float64) (Metrics, error) {
		var lo, hi, step int
		var resolved bool
		if static {
			lo, hi, step, resolved = sLo, sHi, sStep, sResolved
		} else {
			lo, hi, step, resolved = resolveTriplet(x, st.env)
		}
		if !resolved {
			if lt := st.trace.Loops[x]; lt != nil && lt.Resolved {
				lo, hi, step, resolved = lt.Lo, lt.Hi, lt.Step, true
			}
		}
		var localTrips float64
		if !resolved {
			if t, ok := st.trips[line]; ok {
				localTrips = float64(t)
				if x.Par != nil {
					localTrips = partitionTrips(parMap, x.Par, load, 1, t, 1)
				}
			} else {
				return Metrics{}, loopBoundsErr(st.trace, line, x, st.env)
			}
		} else {
			localTrips = float64(countTrips(lo, hi, step))
			if x.Par != nil {
				localTrips = partitionTrips(parMap, x.Par, load, lo, hi, step)
			}
		}
		m := Metrics{CompUS: bound.compUS, OvhdUS: bound.ovhdUS + localTrips*loopOvhdUS, Execs: 1}
		self := st.add(id, line, mult, m)
		if resolved {
			st.envSet(x.Var, sem.IntVal(int64((lo+hi)/2)))
		} else {
			st.envDel(x.Var)
		}
		body, err := st.run(children, mult*localTrips)
		if err != nil {
			return Metrics{}, err
		}
		st.kill(kills)
		st.envDel(x.Var)
		self.Accumulate(body)
		return self, nil
	}
}

func (c *Compiled) compileCondt(a *AAU) evalFn {
	x := a.Stmt.(*hir.If)
	parts := c.costs[a.Stmt]
	P := c.mach.Node.P
	base := Metrics{CompUS: parts.compUS, OvhdUS: parts.ovhdUS + P.CyclesToUS(P.BranchCycles), Execs: 1}
	then := c.compileAAUs(a.Children[:a.ElseStart])
	els := c.compileAAUs(a.Children[a.ElseStart:])
	killsThen := killSet(x.Then)
	killsElse := killSet(x.Else)
	isD := a.Kind == CondtD
	d := c.opts.MaskDensity
	bp := c.opts.BranchProb
	cond := x.Cond
	static := len(hir.ScalarRefs(cond)) == 0
	var sVal sem.Value
	sKnown := false
	if static {
		sVal, sKnown = evalScalar(cond, nil)
	}
	warn := fmt.Sprintf("line %d: IF condition depends on run-time data; weighting branches %.2f/%.2f", a.Line, bp, 1-bp)
	id, line := a.ID, a.Line
	return func(st *evalState, mult float64) (Metrics, error) {
		self := st.add(id, line, mult, base)
		if isD {
			tm, err := st.run(then, mult*d)
			if err != nil {
				return Metrics{}, err
			}
			em, err := st.run(els, mult*(1-d))
			if err != nil {
				return Metrics{}, err
			}
			st.kill(killsThen)
			st.kill(killsElse)
			self.Accumulate(tm)
			self.Accumulate(em)
			return self, nil
		}
		v, ok := sVal, sKnown
		if !static {
			v, ok = evalScalar(cond, st.env)
		}
		if ok {
			branch := then
			if !v.B {
				branch = els
			}
			bm, err := st.run(branch, mult)
			if err != nil {
				return Metrics{}, err
			}
			self.Accumulate(bm)
			return self, nil
		}
		st.warnf(warn)
		tm, err := st.run(then, mult*bp)
		if err != nil {
			return Metrics{}, err
		}
		em, err := st.run(els, mult*(1-bp))
		if err != nil {
			return Metrics{}, err
		}
		st.kill(killsThen)
		st.kill(killsElse)
		self.Accumulate(tm)
		self.Accumulate(em)
		return self, nil
	}
}

func (c *Compiled) compileComm(a *AAU) evalFn {
	recIdx := a.CommRec.ID - 1
	simple := c.opts.SimpleCommModel
	id, line := a.ID, a.Line
	switch x := a.Stmt.(type) {
	case *hir.Shift:
		// Fully static: the offset is part of the HIR node.
		var commUS, bytes float64
		var warn string
		sym := c.prog.Info.Sym(x.Array)
		switch {
		case sym == nil:
			warn = fmt.Sprintf("line %d: shift of unknown array %s ignored", line, x.Array)
		case sym.Map != nil && (x.Dim < 0 || x.Dim >= len(sym.Map.Dims)):
			warn = fmt.Sprintf("line %d: shift of %s along invalid dimension %d ignored", line, x.Array, x.Dim)
		case sym.Map != nil && !sym.Map.Replicated && sym.Map.Dims[x.Dim].NProc > 1:
			vol := stripBytesMax(sym.Map, sym.Type.Bytes(), x.Dim, x.Offset)
			bytes = float64(vol)
			commUS = evalPW(simple, c.lib.Shift, vol)
		}
		return func(st *evalState, mult float64) (Metrics, error) {
			if warn != "" {
				st.warnf(warn)
			}
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CommUS: commUS, Execs: 1}), nil
		}
	case *hir.CShift, *hir.EOShift:
		var src string
		var dim int
		var shiftE hir.Expr
		if cs, ok := x.(*hir.CShift); ok {
			src, dim, shiftE = cs.Src, cs.Dim, cs.Shift
		} else {
			eo := x.(*hir.EOShift)
			src, dim, shiftE = eo.Src, eo.Dim, eo.Shift
		}
		sym := c.prog.Info.Sym(src)
		if sym == nil {
			warn := fmt.Sprintf("line %d: shift of unknown array %s ignored", line, src)
			return func(st *evalState, mult float64) (Metrics, error) {
				st.warnf(warn)
				st.comm(recIdx, 0, 0, mult)
				return st.add(id, line, mult, Metrics{Execs: 1}), nil
			}
		}
		// Local data movement of the shifted copy is shift-independent.
		M := c.mach.Node.M
		local := sym.Elems()
		if sym.Map != nil && !sym.Map.Replicated {
			local = sym.Map.MaxLocalCount()
		}
		compUS := c.mach.Node.P.CyclesToUS(float64(local) * (M.LoadCycles + M.StoreCycles + 2))
		distributed := sym.Map != nil && !sym.Map.Replicated && dim < len(sym.Map.Dims) && sym.Map.Dims[dim].NProc > 1
		elemBytes := sym.Type.Bytes()
		symMap := sym.Map
		lib := c.lib
		unresolvedWarn := fmt.Sprintf("line %d: shift amount unresolved; assuming 1", line)
		volFor := func(shift int) (bytes, commUS float64) {
			if !distributed {
				return 0, 0
			}
			vol := stripBytesMax(symMap, elemBytes, dim, shift)
			return float64(vol), evalPW(simple, lib.Shift, vol)
		}
		if len(hir.ScalarRefs(shiftE)) == 0 {
			// Shift amount is environment-independent: bind it now.
			shift := 1
			known := true
			if v, ok := evalScalar(shiftE, nil); ok {
				shift = int(v.AsInt())
			} else {
				known = false
			}
			bytes, commUS := volFor(shift)
			return func(st *evalState, mult float64) (Metrics, error) {
				if !known {
					st.warnf(unresolvedWarn)
				}
				st.comm(recIdx, bytes, commUS, mult)
				return st.add(id, line, mult, Metrics{CompUS: compUS, CommUS: commUS, Execs: 1}), nil
			}
		}
		return func(st *evalState, mult float64) (Metrics, error) {
			shift := 1
			if v, ok := evalScalar(shiftE, st.env); ok {
				shift = int(v.AsInt())
			} else {
				st.warnf(unresolvedWarn)
			}
			bytes, commUS := volFor(shift)
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CompUS: compUS, CommUS: commUS, Execs: 1}), nil
		}
	case *hir.Reduce:
		b := 8
		if x.LocSrc != "" {
			b = 16
		}
		bytes := float64(b)
		commUS := c.lib.Reduce.Eval(b)
		return func(st *evalState, mult float64) (Metrics, error) {
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CommUS: commUS, Execs: 1}), nil
		}
	case *hir.AllGather:
		sym := c.prog.Info.Sym(x.Array)
		total := sym.Elems() * sym.Type.Bytes()
		bytes := float64(total)
		commUS := evalPW(simple, c.lib.Gather, total)
		return func(st *evalState, mult float64) (Metrics, error) {
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CommUS: commUS, Execs: 1}), nil
		}
	case *hir.FetchElem:
		bytes := float64(x.Typ.Bytes())
		commUS := evalPW(simple, c.lib.Bcast, x.Typ.Bytes())
		compUS := c.costs[a.Stmt].compUS
		return func(st *evalState, mult float64) (Metrics, error) {
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CompUS: compUS, CommUS: commUS, Execs: 1}), nil
		}
	}
	return failFn(fmt.Errorf("core: cannot interpret Comm AAU for %T", a.Stmt))
}

func (c *Compiled) compileIO(a *AAU) evalFn {
	x := a.Stmt.(*hir.Print)
	io := c.mach.Node.IO
	parts := c.costs[a.Stmt]
	commUS := io.HostStartupUS + float64(16*len(x.Args))*io.HostPerByteUS
	bytes := float64(16 * len(x.Args))
	recIdx := a.CommRec.ID - 1
	id, line := a.ID, a.Line
	return func(st *evalState, mult float64) (Metrics, error) {
		st.comm(recIdx, bytes, commUS, mult)
		return st.add(id, line, mult, Metrics{CompUS: parts.compUS, CommUS: commUS, Execs: 1}), nil
	}
}

// ---------------------------------------------------------------------------
// Evaluation

func (c *Compiled) evaluate(ctx context.Context, values map[string]sem.Value, trips map[int]int, memoize bool) (*Report, error) {
	// Chaos hook at entry, matching the tree walker.
	if err := faults.Fire(faults.SiteInterp); err != nil {
		return nil, err
	}
	if c.evals.Add(1) == 1 {
		memoize = false
	}
	span := obs.SpanFromContext(ctx)
	trace := c.traceFor(span, values)
	g, byID, recs := c.instantiate()
	st := &evalState{
		c:      c,
		ctx:    ctx,
		env:    make(absEnv, len(values)),
		pinned: make(map[string]bool, len(values)),
		trips:  trips,
		trace:  trace,
		byID:   byID,
		recs:   recs,
		byLine: make(map[int]*Metrics),
		span:   span,
	}
	for k, v := range values {
		st.env[k] = v
		st.pinned[k] = true
	}
	total, err := st.runTop(memoize)
	if err != nil {
		return nil, err
	}
	g.Root.ClockUS = st.clock
	return &Report{
		Program:  c.prog.Name,
		Procs:    c.prog.Info.Grid.Size(),
		SAAG:     g,
		Total:    total,
		ByLine:   st.byLine,
		Warnings: st.warnings,
	}, nil
}

// instantiate clones the SAAG template into a fresh metric-free graph
// with its own communication table.
func (c *Compiled) instantiate() (*SAAG, []*AAU, []*CommRec) {
	byID := make([]*AAU, c.maxID+1)
	recs := make([]*CommRec, len(c.tmpl.Table))
	var clone func(a *AAU) *AAU
	clone = func(a *AAU) *AAU {
		n := &AAU{ID: a.ID, Kind: a.Kind, Label: a.Label, Line: a.Line, Stmt: a.Stmt, ElseStart: a.ElseStart}
		if a.CommRec != nil {
			r := *a.CommRec
			r.AAU = n
			n.CommRec = &r
			recs[r.ID-1] = &r
		}
		if len(a.Children) > 0 {
			n.Children = make([]*AAU, len(a.Children))
			for i, ch := range a.Children {
				n.Children[i] = clone(ch)
			}
		}
		byID[a.ID] = n
		return n
	}
	root := clone(c.tmpl.Root)
	g := &SAAG{Program: c.tmpl.Program, Root: root, Table: recs, nextID: c.tmpl.nextID}
	return g, byID, recs
}

// traceFor returns the (memoized) definition-tracing result for a pinned
// value set; a miss runs the tracer under an analysis.trace child of span.
func (c *Compiled) traceFor(span *obs.Span, values map[string]sem.Value) *analysis.Trace {
	key := valuesFP(values)
	c.mu.Lock()
	if t, ok := c.traces[key]; ok {
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()
	ts := span.StartChild("analysis.trace")
	t := analysis.TraceProgram(c.prog, values)
	ts.End()
	c.mu.Lock()
	if len(c.traces) >= traceCap {
		c.traces = make(map[string]*analysis.Trace)
	}
	c.traces[key] = t
	c.mu.Unlock()
	return t
}

// runTop evaluates the root's children, consulting the subtree memo when
// memoize is set. Mirrors interpAAUs at the root level.
func (st *evalState) runTop(memoize bool) (Metrics, error) {
	var total Metrics
	for i := range st.c.tops {
		n := &st.c.tops[i]
		if st.stride++; st.stride >= ctxCheckStride {
			st.stride = 0
			if err := st.ctx.Err(); err != nil {
				return total, err
			}
			if err := faults.Fire(faults.SiteInterp); err != nil {
				return total, err
			}
		}
		var m Metrics
		var err error
		if memoize {
			key := st.c.memoKey(i, st)
			if e := st.c.memoGet(key); e != nil {
				m, err = st.call(n, 1, e)
			} else {
				var ops []memoOp
				st.rec = &ops
				m, err = st.call(n, 1, nil)
				st.rec = nil
				if err == nil {
					st.c.memoPut(key, &memoEntry{ops: ops, total: m})
				}
			}
		} else {
			m, err = st.call(n, 1, nil)
		}
		if err != nil {
			return total, err
		}
		st.setClock(n.id)
		total.Accumulate(m)
	}
	return total, nil
}

// run evaluates nested children, mirroring interpAAUs: per-AAU stride
// checks, per-child clock stamps, metric accumulation.
func (st *evalState) run(ns []cnode, mult float64) (Metrics, error) {
	var total Metrics
	for i := range ns {
		n := &ns[i]
		if st.stride++; st.stride >= ctxCheckStride {
			st.stride = 0
			if err := st.ctx.Err(); err != nil {
				return total, err
			}
			if err := faults.Fire(faults.SiteInterp); err != nil {
				return total, err
			}
		}
		m, err := st.call(n, mult, nil)
		if err != nil {
			return total, err
		}
		st.setClock(n.id)
		total.Accumulate(m)
	}
	return total, nil
}

// call evaluates one compiled AAU, inside an interp.<kind> span when the
// evaluation is traced. A non-nil e is a memoized evaluation of n to
// replay instead; its span is marked replay=true.
func (st *evalState) call(n *cnode, mult float64, e *memoEntry) (Metrics, error) {
	parent := st.span
	if parent == nil {
		return st.eval(n, mult, e)
	}
	s := parent.StartChild("interp." + n.kind.String())
	if n.line > 0 {
		s.SetAttrInt("line", n.line)
	}
	if e != nil {
		s.SetAttr("replay", "true")
	}
	st.span = s
	m, err := st.eval(n, mult, e)
	s.End()
	st.span = parent
	return m, err
}

// eval runs n's closures, or replays e when non-nil.
func (st *evalState) eval(n *cnode, mult float64, e *memoEntry) (Metrics, error) {
	if e != nil {
		return st.replay(e), nil
	}
	return n.fn(st, mult)
}

// add mirrors Interpreter.add: scale by multiplicity, accumulate into
// the AAU, the clock and the line index.
func (st *evalState) add(id, line int, mult float64, m Metrics) Metrics {
	m.CompUS *= mult
	m.CommUS *= mult
	m.OvhdUS *= mult
	m.Execs *= mult
	st.applyAdd(id, line, m)
	if st.rec != nil {
		*st.rec = append(*st.rec, memoOp{kind: mopAdd, id: id, line: line, m: m})
	}
	return m
}

func (st *evalState) applyAdd(id, line int, m Metrics) {
	a := st.byID[id]
	a.Metrics.Accumulate(m)
	st.clock += m.TotalUS()
	if line > 0 {
		lm, ok := st.byLine[line]
		if !ok {
			lm = &Metrics{}
			st.byLine[line] = lm
		}
		lm.Accumulate(m)
	}
}

func (st *evalState) setClock(id int) {
	st.byID[id].ClockUS = st.clock
	if st.rec != nil {
		*st.rec = append(*st.rec, memoOp{kind: mopClock, id: id})
	}
}

func (st *evalState) comm(recIdx int, bytes, costUS, mult float64) {
	r := st.recs[recIdx]
	r.Bytes = bytes
	r.CostUS = costUS
	r.Count += mult
	if st.rec != nil {
		*st.rec = append(*st.rec, memoOp{kind: mopComm, id: recIdx, m: Metrics{CompUS: bytes, CommUS: costUS, OvhdUS: mult}})
	}
}

func (st *evalState) warnf(text string) {
	st.warnings = append(st.warnings, text)
	if st.rec != nil {
		*st.rec = append(*st.rec, memoOp{kind: mopWarn, s: text})
	}
}

func (st *evalState) envSet(name string, v sem.Value) {
	st.env[name] = v
	if st.rec != nil {
		*st.rec = append(*st.rec, memoOp{kind: mopEnvSet, s: name, v: v})
	}
}

func (st *evalState) envDel(name string) {
	delete(st.env, name)
	if st.rec != nil {
		*st.rec = append(*st.rec, memoOp{kind: mopEnvDel, s: name})
	}
}

// kill is the compiled counterpart of Interpreter.killAssigned: remove
// every non-pinned name of a precomputed kill set.
func (st *evalState) kill(names []string) {
	for _, n := range names {
		if st.pinned[n] {
			continue
		}
		st.envDel(n)
	}
}

// replay re-applies a recorded subtree evaluation: the same adds in the
// same order (so clocks, by-line sums and totals stay bit-identical),
// plus env/comm/warning side effects.
func (st *evalState) replay(e *memoEntry) Metrics {
	for i := range e.ops {
		op := &e.ops[i]
		switch op.kind {
		case mopAdd:
			st.applyAdd(op.id, op.line, op.m)
		case mopClock:
			st.byID[op.id].ClockUS = st.clock
		case mopComm:
			r := st.recs[op.id]
			r.Bytes = op.m.CompUS
			r.CostUS = op.m.CommUS
			r.Count += op.m.OvhdUS
		case mopWarn:
			st.warnings = append(st.warnings, op.s)
		case mopEnvSet:
			st.env[op.s] = op.v
		case mopEnvDel:
			delete(st.env, op.s)
		}
	}
	return e.total
}

// ---------------------------------------------------------------------------
// Memoization keys

func (c *Compiled) memoGet(key string) *memoEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memo[key]
}

func (c *Compiled) memoPut(key string, e *memoEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.memo) >= memoCap {
		c.memo = make(map[string]*memoEntry)
	}
	c.memo[key] = e
}

// memoKey fingerprints every dynamic input of top-level subtree i: the
// entry values of its scalar read set, the pinned-ness of its write set,
// trip-count overrides for its loop lines, and the traced bounds of its
// loops and whiles. Two evaluations with equal keys take identical paths
// through the subtree's closures.
func (c *Compiled) memoKey(i int, st *evalState) string {
	meta := &c.meta[i]
	var b strings.Builder
	fmt.Fprintf(&b, "%d", i)
	for _, n := range meta.reads {
		if v, ok := st.env[n]; ok {
			b.WriteString("|r:")
			b.WriteString(n)
			b.WriteByte('=')
			b.WriteString(valKey(v))
		} else {
			b.WriteString("|r:")
			b.WriteString(n)
			b.WriteString("=?")
		}
	}
	for _, n := range meta.writes {
		if st.pinned[n] {
			b.WriteString("|p:")
			b.WriteString(n)
		}
	}
	for _, l := range meta.lines {
		if t, ok := st.trips[l]; ok {
			fmt.Fprintf(&b, "|t:%d=%d", l, t)
		}
	}
	for _, lp := range meta.loops {
		if lt := st.trace.Loops[lp]; lt != nil && lt.Resolved {
			fmt.Fprintf(&b, "|L%d:%d:%d:%d", lp.SrcLine, lt.Lo, lt.Hi, lt.Step)
		}
	}
	for _, w := range meta.whiles {
		if wt := st.trace.Whiles[w]; wt != nil && wt.CondResolved {
			fmt.Fprintf(&b, "|W%d:%t", w.SrcLine, wt.CondValue)
		}
	}
	return b.String()
}

// valKey canonicalizes a sem.Value for fingerprinting (bit-exact on
// reals).
func valKey(v sem.Value) string {
	return fmt.Sprintf("%d:%d:%x:%t", v.Type, v.I, math.Float64bits(v.R), v.B)
}

// valuesFP fingerprints a whole pinned-value set (the tracing memo key).
func valuesFP(values map[string]sem.Value) string {
	if len(values) == 0 {
		return ""
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(valKey(values[n]))
		b.WriteByte(';')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Subtree metadata

// subtreeMeta computes the dynamic-input interface of one top-level
// statement subtree.
func subtreeMeta(s hir.Stmt) topMeta {
	var m topMeta
	readSeen := make(map[string]bool)
	lineSeen := make(map[int]bool)
	addReads := func(es ...hir.Expr) {
		for _, e := range es {
			if e == nil {
				continue
			}
			for _, n := range hir.ScalarRefs(e) {
				if !readSeen[n] {
					readSeen[n] = true
					m.reads = append(m.reads, n)
				}
			}
		}
	}
	addLine := func(l int) {
		if !lineSeen[l] {
			lineSeen[l] = true
			m.lines = append(m.lines, l)
		}
	}
	var scan func(ss []hir.Stmt)
	scan = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Assign:
				addReads(x.Rhs)
			case *hir.Loop:
				addReads(x.Lo, x.Hi, x.Step)
				addLine(x.SrcLine)
				m.loops = append(m.loops, x)
				scan(x.Body)
			case *hir.While:
				addLine(x.SrcLine)
				m.whiles = append(m.whiles, x)
				scan(x.Body)
			case *hir.If:
				addReads(x.Cond)
				scan(x.Then)
				scan(x.Else)
			case *hir.CShift:
				addReads(x.Shift)
			case *hir.EOShift:
				addReads(x.Shift)
			}
		}
	}
	scan([]hir.Stmt{s})
	m.writes = killSet([]hir.Stmt{s})
	return m
}

// killSet lists, in deterministic order, every scalar name the
// tree-walker's killAssigned would delete for this subtree.
func killSet(ss []hir.Stmt) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	var scan func(ss []hir.Stmt)
	scan = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Assign:
				if lv, ok := x.Lhs.(*hir.ScalarLV); ok {
					add(lv.Name)
				}
			case *hir.Loop:
				add(x.Var)
				scan(x.Body)
			case *hir.While:
				scan(x.Body)
			case *hir.If:
				scan(x.Then)
				scan(x.Else)
			case *hir.Reduce:
				add(x.Dst)
				add(x.LocDst)
			case *hir.FetchElem:
				add(x.Dst)
			}
		}
	}
	scan(ss)
	return out
}
