package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"hpfperf/internal/analysis"
	"hpfperf/internal/dist"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
	"hpfperf/internal/sem"
	"hpfperf/internal/sysmodel"
)

// LoadModel selects how per-processor iteration counts of distributed
// loops enter the prediction.
type LoadModel int

const (
	// MaxLoaded charges the most loaded processor's share (the loosely
	// synchronous completion time; the paper's model).
	MaxLoaded LoadModel = iota
	// Average charges the mean share (an ablation alternative).
	Average
)

// Options configure the interpretation engine (§3.3: "models and
// heuristics ... and user experimentation with system and run-time
// parameters").
type Options struct {
	// MemoryModel enables the SAU memory-hierarchy model (footprint-based
	// average miss cost per access).
	MemoryModel bool
	// LoadModel selects MaxLoaded (default) or Average accounting.
	LoadModel LoadModel
	// MaskDensity is the assumed truth density of elemental masks
	// (FORALL/WHERE conditionals); default 1.0 like the paper's
	// worst-case assumption.
	MaskDensity float64
	// BranchProb is the assumed probability of unresolvable scalar
	// conditionals taking the THEN branch.
	BranchProb float64
	// TripCounts supplies iteration counts, keyed by source line, for
	// loops whose critical variables cannot be traced (e.g. DO WHILE).
	TripCounts map[int]int
	// Values supplies user-specified critical variable values (§4.2:
	// "or by allowing the user to explicitly specify their values").
	Values map[string]sem.Value
	// CommLibrary overrides the calibrated collective models (when nil
	// the engine calibrates against the simulated machine off-line).
	CommLibrary *ipsc.CommLibrary
	// SimpleCommModel collapses the piecewise (short/long protocol)
	// collective models into single linear fits — an ablation of the
	// characterization fidelity.
	SimpleCommModel bool
}

// DefaultOptions returns the paper-faithful default configuration.
func DefaultOptions() Options {
	return Options{MemoryModel: true, LoadModel: MaxLoaded, MaskDensity: 1.0, BranchProb: 0.5}
}

// Report is the output of the interpretation engine.
type Report struct {
	Program  string
	Procs    int
	SAAG     *SAAG
	Total    Metrics
	ByLine   map[int]*Metrics
	Warnings []string
}

// TotalUS is the predicted execution time in microseconds.
func (r *Report) TotalUS() float64 { return r.Total.TotalUS() }

// EstimatedSeconds is the predicted execution time in seconds.
func (r *Report) EstimatedSeconds() float64 { return r.TotalUS() / 1e6 }

// LineMetrics returns the metrics accumulated for a source line (the
// per-line query of the output module).
func (r *Report) LineMetrics(line int) Metrics {
	if m, ok := r.ByLine[line]; ok {
		return *m
	}
	return Metrics{}
}

// LineRangeMetrics sums metrics over an inclusive source line range
// (a sub-AAG query). The scan is ascending by line so the floating-point
// accumulation order — and therefore the result, bit for bit — matches
// the original sorted-keys implementation without allocating or sorting.
func (r *Report) LineRangeMetrics(lo, hi int) Metrics {
	var out Metrics
	if len(r.ByLine) == 0 || hi < lo {
		return out
	}
	// Clamp the window to lines that actually occur, bounding the scan by
	// the program length rather than the caller's range.
	first := true
	minLine, maxLine := 0, 0
	for l := range r.ByLine {
		if first || l < minLine {
			minLine = l
		}
		if first || l > maxLine {
			maxLine = l
		}
		first = false
	}
	if lo < minLine {
		lo = minLine
	}
	if hi > maxLine {
		hi = maxLine
	}
	for l := lo; l <= hi; l++ {
		if m, ok := r.ByLine[l]; ok {
			out.Accumulate(*m)
		}
	}
	return out
}

// costParts splits a statement's one-execution cost into computation and
// overhead microseconds.
type costParts struct {
	compUS float64
	ovhdUS float64
}

// Interpreter is the interpretation engine: it recursively applies the
// per-AAU-kind interpretation functions to the SAAG.
type Interpreter struct {
	prog  *hir.Program
	mach  *sysmodel.Machine
	lib   *ipsc.CommLibrary
	opts  Options
	saag  *SAAG
	costs map[hir.Stmt]costParts

	byLine   map[int]*Metrics
	warnings []string
	pinned   map[string]bool // user-specified critical values never invalidated
	clock    float64         // running global clock (predicted microseconds)

	// trace holds the definition-tracing result (§4.2): loop bounds the
	// static analyzer resolved are consulted when the inline abstract
	// environment cannot resolve them, before demanding Options.Values.
	trace *analysis.Trace

	ctx       context.Context // cooperative cancellation for InterpretTree
	ctxStride int             // AAU interpretations since the last ctx check
}

// New builds an interpreter for a compiled program on the given machine
// abstraction.
func New(prog *hir.Program, mach *sysmodel.Machine, opts Options) (*Interpreter, error) {
	return NewContext(context.Background(), prog, mach, opts)
}

// NewContext builds an interpreter whose calibration step and
// InterpretTree run honor ctx: once ctx ends, interpretation stops at the
// next AAU boundary and returns the ctx error instead of a report.
func NewContext(ctx context.Context, prog *hir.Program, mach *sysmodel.Machine, opts Options) (*Interpreter, error) {
	if mach == nil {
		mach = sysmodel.IPSC860()
	}
	if opts.MaskDensity <= 0 {
		opts.MaskDensity = 1.0
	}
	if opts.BranchProb <= 0 {
		opts.BranchProb = 0.5
	}
	procs := prog.Info.Grid.Size()
	if procs > mach.MaxNodes {
		return nil, fmt.Errorf("core: program needs %d processors, %s has %d", procs, mach.Name, mach.MaxNodes)
	}
	lib := opts.CommLibrary
	if lib == nil {
		cs := obs.SpanFromContext(ctx).StartChild("calibrate")
		cs.SetAttrInt("procs", procs)
		var err error
		lib, err = calibratedLib(ctx, mach, procs)
		cs.End()
		if err != nil {
			return nil, err
		}
	}
	pinned := make(map[string]bool)
	for k := range opts.Values {
		pinned[k] = true
	}
	return &Interpreter{prog: prog, mach: mach, lib: lib, opts: opts, pinned: pinned, ctx: ctx}, nil
}

// calibCache memoizes machine calibration: CalibrateMachineContext is
// deterministic (noise-free simulation of a registry-built machine), so
// one library per (machine, size, procs) serves every interpreter.
// Machines are only ever constructed by the sysmodel registry and only
// vary by MaxNodes, which the key includes.
var calibCache sync.Map // "name|maxnodes|procs" -> *ipsc.CommLibrary

func calibratedLib(ctx context.Context, mach *sysmodel.Machine, procs int) (*ipsc.CommLibrary, error) {
	// A cache hit must not weaken the cancellation contract the
	// uncached calibration run provided.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%d|%d", mach.Name, mach.MaxNodes, procs)
	if v, ok := calibCache.Load(key); ok {
		return v.(*ipsc.CommLibrary), nil
	}
	lib, err := ipsc.CalibrateMachineContext(ctx, mach, procs)
	if err != nil {
		// Calibration errors (e.g. ctx cancellation) are never cached.
		return nil, err
	}
	calibCache.Store(key, lib)
	return lib, nil
}

// InterpretTree runs the reference tree-walking interpretation algorithm
// over the SAAG. It is the reference implementation only: predictions
// are served by CompilePrediction and Compiled.Evaluate, traced or not,
// and this walker exists so the differential suites (the core
// equivalence tests, the sweep cache test and the corpus harness's
// tree≡compiled gate) can check the compiled form against it bit for bit.
func (it *Interpreter) InterpretTree() (*Report, error) {
	// Chaos hook at entry, so the interp site is reachable even for
	// programs too small to hit the per-stride hook below.
	if err := faults.Fire(faults.SiteInterp); err != nil {
		return nil, err
	}
	it.saag = BuildSAAG(it.prog)
	it.byLine = make(map[int]*Metrics)
	it.costs = make(map[hir.Stmt]costParts)
	it.prepass(it.prog.Body, 0)
	it.trace = analysis.TraceProgram(it.prog, it.opts.Values)

	env := make(absEnv)
	for k, v := range it.opts.Values {
		env[k] = v
	}
	total, err := it.interpAAUs(it.saag.Root.Children, env, 1.0)
	if err != nil {
		return nil, err
	}
	// The root AAU carries no self time; its sub-AAG (SubgraphMetrics)
	// yields the program total.
	it.saag.Root.ClockUS = it.clock
	return &Report{
		Program:  it.prog.Name,
		Procs:    it.prog.Info.Grid.Size(),
		SAAG:     it.saag,
		Total:    total,
		ByLine:   it.byLine,
		Warnings: it.warnings,
	}, nil
}

func (it *Interpreter) warnf(format string, args ...any) {
	it.warnings = append(it.warnings, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Cost prepass

// loadCycles returns the modeled per-access memory cost under the SAU
// memory model (flat cache-hit cost plus a footprint-dependent average
// miss contribution when the memory model is enabled).
func (it *Interpreter) accessCycles(fp int) float64 {
	M := it.mach.Node.M
	c := M.LoadCycles
	if !it.opts.MemoryModel {
		return c
	}
	if fp > M.DCacheBytes {
		c += M.MissPenaltyCycles * 4.0 / float64(M.LineBytes)
	} else {
		c += M.MissPenaltyCycles * 0.03
	}
	return c
}

// opCost converts an operation tally into cost parts. Array element
// accesses (c.Elems) pay the memory-model cost; scalar references are
// register/cache resident and pay the hit cost only.
func (it *Interpreter) opCost(c hir.OpCount, fp int) costParts {
	P := it.mach.Node.P
	M := it.mach.Node.M
	acc := it.accessCycles(fp)
	elemAcc := float64(c.Elems)
	scalarAcc := float64(c.Load+c.Store) - elemAcc
	if scalarAcc < 0 {
		scalarAcc = 0
	}
	// Irregular (gathered) accesses defeat spatial locality; the memory
	// model charges most of a miss per such access when the working set
	// exceeds the cache, and a small residual when it fits.
	shadowExtra := 0.0
	if it.opts.MemoryModel {
		rate := 0.2
		if fp > M.DCacheBytes {
			rate = 0.7
		}
		shadowExtra = float64(c.ShadowLoad) * rate * M.MissPenaltyCycles
	}
	comp := float64(c.FAdd)*P.FAddCycles +
		float64(c.FMul)*P.FMulCycles +
		float64(c.FDiv)*P.FDivCycles +
		float64(c.Pow)*P.PowCycles +
		float64(c.IntOp)*P.IntOpCycles +
		float64(c.Cmp)*P.CmpCycles +
		float64(c.Logical)*P.LogicalCycles +
		elemAcc*acc +
		shadowExtra +
		scalarAcc*M.LoadCycles
	for name, n := range c.Intrinsics {
		ic, ok := P.IntrinsicCycles[name]
		if !ok {
			ic = 20
		}
		comp += float64(n) * (ic + P.IntrinsicCallCycles)
	}
	ovhd := P.StartupStatueCycles + float64(c.Elems)*P.IndexCycles
	return costParts{compUS: P.CyclesToUS(comp), ovhdUS: P.CyclesToUS(ovhd)}
}

func (it *Interpreter) prepass(ss []hir.Stmt, fp int) {
	for _, s := range ss {
		switch x := s.(type) {
		case *hir.Assign:
			it.costs[s] = it.opCost(x.Cost, fp)
		case *hir.Loop:
			it.costs[s] = it.opCost(x.BoundCost, fp)
			inner := fp
			if inner == 0 {
				inner = it.nestFootprint(x)
			}
			it.prepass(x.Body, inner)
		case *hir.While:
			it.costs[s] = it.opCost(x.Cost, fp)
			it.prepass(x.Body, fp)
		case *hir.If:
			it.costs[s] = it.opCost(x.Cost, fp)
			it.prepass(x.Then, fp)
			it.prepass(x.Else, fp)
		case *hir.FetchElem:
			it.costs[s] = it.opCost(x.Cost, fp)
		case *hir.Print:
			it.costs[s] = it.opCost(x.Cost, fp)
		}
	}
}

// nestFootprint estimates the per-node bytes touched within a loop nest
// (the SAU memory model's working-set input).
func (it *Interpreter) nestFootprint(loop *hir.Loop) int {
	seen := make(map[string]int)
	add := func(name string, shadow bool) {
		sym := it.prog.Info.Sym(name)
		if sym == nil || sym.Kind != sem.SymArray {
			return
		}
		b := sym.Elems() * sym.Type.Bytes()
		if sym.Map != nil && !sym.Map.Replicated && !shadow {
			b = sym.Map.MaxLocalCount() * sym.Type.Bytes()
		}
		if b > seen[name] {
			seen[name] = b
		}
	}
	var scanExpr func(e hir.Expr)
	scanExpr = func(e hir.Expr) {
		switch x := e.(type) {
		case *hir.Elem:
			add(x.Array, x.Shadow)
			for _, sub := range x.Subs {
				scanExpr(sub)
			}
		case *hir.Bin:
			scanExpr(x.X)
			scanExpr(x.Y)
		case *hir.Un:
			scanExpr(x.X)
		case *hir.Intr:
			for _, a := range x.Args {
				scanExpr(a)
			}
		}
	}
	var scan func(ss []hir.Stmt)
	scan = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Assign:
				scanExpr(x.Rhs)
				if lhs, ok := x.Lhs.(*hir.ElemLV); ok {
					add(lhs.Array, false)
					for _, sub := range lhs.Subs {
						scanExpr(sub)
					}
				}
			case *hir.Loop:
				scan(x.Body)
			case *hir.While:
				scanExpr(x.Cond)
				scan(x.Body)
			case *hir.If:
				scanExpr(x.Cond)
				scan(x.Then)
				scan(x.Else)
			}
		}
	}
	scan(loop.Body)
	total := 0
	for _, b := range seen {
		total += b
	}
	return total
}

// ---------------------------------------------------------------------------
// Interpretation functions

// add accumulates a one-execution cost, scaled by the multiplicity, into
// an AAU and the line index, and returns the scaled metrics.
func (it *Interpreter) add(a *AAU, mult float64, m Metrics) Metrics {
	m.CompUS *= mult
	m.CommUS *= mult
	m.OvhdUS *= mult
	m.Execs *= mult
	a.Metrics.Accumulate(m)
	it.clock += m.TotalUS()
	if a.Line > 0 {
		lm, ok := it.byLine[a.Line]
		if !ok {
			lm = &Metrics{}
			it.byLine[a.Line] = lm
		}
		lm.Accumulate(m)
	}
	return m
}

// ctxCheckStride bounds how many AAU interpretations may pass between
// cooperative cancellation checks. The interpretation algorithm visits
// each AAU a bounded number of times (bodies are interpreted once and
// scaled, not iterated), so the stride keeps the check off the common
// path while still bounding cancellation latency for deeply conditional
// programs.
const ctxCheckStride = 64

func (it *Interpreter) interpAAUs(aaus []*AAU, env absEnv, mult float64) (Metrics, error) {
	var total Metrics
	for _, a := range aaus {
		if it.ctxStride++; it.ctxStride >= ctxCheckStride {
			it.ctxStride = 0
			if err := it.ctx.Err(); err != nil {
				return total, err
			}
			// Chaos hook: shares the stride so the happy path stays one
			// counter increment per AAU.
			if err := faults.Fire(faults.SiteInterp); err != nil {
				return total, err
			}
		}
		m, err := it.interpAAU(a, env, mult)
		if err != nil {
			return total, err
		}
		a.ClockUS = it.clock
		total.Accumulate(m)
	}
	return total, nil
}

func (it *Interpreter) interpAAU(a *AAU, env absEnv, mult float64) (Metrics, error) {
	switch a.Kind {
	case Seq:
		return it.interpSeq(a, env, mult), nil
	case Iter, IterD:
		return it.interpIter(a, env, mult)
	case Condt, CondtD:
		return it.interpCondt(a, env, mult)
	case Comm:
		return it.interpComm(a, env, mult), nil
	case IO:
		return it.interpIO(a, mult), nil
	}
	return Metrics{}, fmt.Errorf("core: cannot interpret AAU kind %s", a.Kind)
}

// interpSeq interprets straight-line computation and traces critical
// variable definitions.
func (it *Interpreter) interpSeq(a *AAU, env absEnv, mult float64) Metrics {
	x := a.Stmt.(*hir.Assign)
	parts := it.costs[a.Stmt]
	m := Metrics{CompUS: parts.compUS, OvhdUS: parts.ovhdUS, Execs: 1}
	if x.Guard {
		m.OvhdUS += it.mach.Node.P.CyclesToUS(it.mach.Node.P.GuardCycles)
	}
	if lv, ok := x.Lhs.(*hir.ScalarLV); ok && !it.pinned[lv.Name] {
		if v, ok2 := evalScalar(x.Rhs, env); ok2 {
			env[lv.Name] = v
		} else {
			delete(env, lv.Name)
		}
	}
	return it.add(a, mult, m)
}

// interpIter interprets Iter and IterD AAUs: trip counts are resolved
// from critical variables; distributed loops charge the maximum-loaded
// (or average) processor's share.
func (it *Interpreter) interpIter(a *AAU, env absEnv, mult float64) (Metrics, error) {
	if w, ok := a.Stmt.(*hir.While); ok {
		trips, ok := it.opts.TripCounts[a.Line]
		if !ok {
			// Definition tracing can still prove the loop never runs.
			if wt := it.trace.Whiles[w]; wt != nil && wt.CondResolved && !wt.CondValue {
				trips = 0
			} else {
				return Metrics{}, fmt.Errorf("core: line %d: DO WHILE trip count is a critical value; supply Options.TripCounts[%d]", a.Line, a.Line)
			}
		}
		condParts := it.costs[a.Stmt]
		m := Metrics{CompUS: condParts.compUS * float64(trips+1), OvhdUS: condParts.ovhdUS * float64(trips+1), Execs: 1}
		self := it.add(a, mult, m)
		body, err := it.interpAAUs(a.Children, env, mult*float64(trips))
		if err != nil {
			return Metrics{}, err
		}
		it.killAssigned(w.Body, env)
		self.Accumulate(body)
		return self, nil
	}

	x := a.Stmt.(*hir.Loop)
	lo, hi, step, resolved := resolveTriplet(x, env)
	if !resolved {
		// Fall back to the definition-tracing result: the fixpoint
		// analysis resolves bounds the one-pass inline environment loses
		// (e.g. loop-invariant redefinitions inside an enclosing loop).
		if lt := it.trace.Loops[x]; lt != nil && lt.Resolved {
			lo, hi, step, resolved = lt.Lo, lt.Hi, lt.Step, true
		}
	}
	var trips, localTrips float64
	if !resolved {
		if t, ok := it.opts.TripCounts[a.Line]; ok {
			trips, localTrips = float64(t), float64(t)
			if x.Par != nil {
				localTrips = partitionTrips(it.prog.Info.ArrayMap(x.Par.Array), x.Par, it.opts.LoadModel, 1, t, 1)
			}
		} else {
			return Metrics{}, loopBoundsErr(it.trace, a.Line, x, env)
		}
	} else {
		trips = float64(countTrips(lo, hi, step))
		localTrips = trips
		if x.Par != nil {
			localTrips = partitionTrips(it.prog.Info.ArrayMap(x.Par.Array), x.Par, it.opts.LoadModel, lo, hi, step)
		}
	}

	P := it.mach.Node.P
	bound := it.costs[a.Stmt]
	m := Metrics{
		CompUS: bound.compUS,
		OvhdUS: bound.ovhdUS + localTrips*P.CyclesToUS(P.LoopOverheadCycles),
		Execs:  1,
	}
	self := it.add(a, mult, m)

	// Interpret the body once at the midpoint index value and scale by the
	// local trip count.
	if resolved {
		env[x.Var] = sem.IntVal(int64((lo + hi) / 2))
	} else {
		delete(env, x.Var)
	}
	body, err := it.interpAAUs(a.Children, env, mult*localTrips)
	if err != nil {
		return Metrics{}, err
	}
	it.killAssigned(x.Body, env)
	delete(env, x.Var)
	self.Accumulate(body)
	return self, nil
}

// resolveTriplet resolves loop bounds through the abstract environment.
func resolveTriplet(x *hir.Loop, env absEnv) (lo, hi, step int, ok bool) {
	lv, ok1 := evalScalar(x.Lo, env)
	hv, ok2 := evalScalar(x.Hi, env)
	sv, ok3 := evalScalar(x.Step, env)
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, false
	}
	step = int(sv.AsInt())
	if step == 0 {
		return 0, 0, 0, false
	}
	return int(lv.AsInt()), int(hv.AsInt()), step, true
}

func countTrips(lo, hi, step int) int {
	if step > 0 {
		if hi < lo {
			return 0
		}
		return (hi-lo)/step + 1
	}
	if hi > lo {
		return 0
	}
	return (lo-hi)/(-step) + 1
}

// partitionTrips returns the per-processor iteration share of a
// partitioned loop under the configured load model.
func partitionTrips(m *dist.ArrayMap, par *hir.ParSpec, load LoadModel, lo, hi, step int) float64 {
	if m == nil || m.Replicated {
		return float64(countTrips(lo, hi, step))
	}
	dd := m.Dims[par.Dim]
	if dd.Kind == dist.Collapsed || dd.NProc <= 1 {
		return float64(countTrips(lo, hi, step))
	}
	glo, ghi := lo+par.Offset, hi+par.Offset
	if load == Average {
		return float64(countTrips(lo, hi, step)) / float64(dd.NProc)
	}
	return float64(dd.MaxLoopCount(glo, ghi, step))
}

// loopBoundsErr builds the last-resort unresolved-bounds error. When the
// tracer recorded blocking definitions it names each one with its source
// line; otherwise it falls back to listing the unresolved variables.
func loopBoundsErr(tr *analysis.Trace, line int, x *hir.Loop, env absEnv) error {
	if bs := tr.LoopBlockers(x); len(bs) > 0 {
		parts := make([]string, len(bs))
		for i, b := range bs {
			parts[i] = b.String()
		}
		return fmt.Errorf(
			"core: line %d: cannot resolve loop bounds of %s (blocked by: %s); supply Options.Values or Options.TripCounts[%d]",
			line, x.Var, strings.Join(parts, "; "), line)
	}
	return fmt.Errorf(
		"core: line %d: cannot resolve loop bounds of %s (critical variables: %s); supply Options.Values or Options.TripCounts",
		line, x.Var, strings.Join(criticalVars(x, env), ", "))
}

// criticalVars lists the unresolved variable names in loop bounds.
func criticalVars(x *hir.Loop, env absEnv) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range []hir.Expr{x.Lo, x.Hi, x.Step} {
		for _, v := range exprVars(e) {
			if _, ok := env[v]; !ok && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 {
		out = append(out, "<expression>")
	}
	return out
}

// interpCondt interprets conditional AAUs: data-dependent (CondtD)
// conditionals use the mask density model; replicated scalar conditionals
// resolve through critical variables when possible.
func (it *Interpreter) interpCondt(a *AAU, env absEnv, mult float64) (Metrics, error) {
	x := a.Stmt.(*hir.If)
	parts := it.costs[a.Stmt]
	P := it.mach.Node.P
	m := Metrics{CompUS: parts.compUS, OvhdUS: parts.ovhdUS + P.CyclesToUS(P.BranchCycles), Execs: 1}
	self := it.add(a, mult, m)

	then := a.Children[:a.ElseStart]
	els := a.Children[a.ElseStart:]

	if a.Kind == CondtD {
		d := it.opts.MaskDensity
		tm, err := it.interpAAUs(then, env, mult*d)
		if err != nil {
			return Metrics{}, err
		}
		em, err := it.interpAAUs(els, env, mult*(1-d))
		if err != nil {
			return Metrics{}, err
		}
		it.killAssigned(x.Then, env)
		it.killAssigned(x.Else, env)
		self.Accumulate(tm)
		self.Accumulate(em)
		return self, nil
	}

	if v, ok := evalScalar(x.Cond, env); ok {
		branch := then
		if !v.B {
			branch = els
		}
		bm, err := it.interpAAUs(branch, env, mult)
		if err != nil {
			return Metrics{}, err
		}
		self.Accumulate(bm)
		return self, nil
	}
	it.warnf("line %d: IF condition depends on run-time data; weighting branches %.2f/%.2f",
		a.Line, it.opts.BranchProb, 1-it.opts.BranchProb)
	tm, err := it.interpAAUs(then, env, mult*it.opts.BranchProb)
	if err != nil {
		return Metrics{}, err
	}
	em, err := it.interpAAUs(els, env, mult*(1-it.opts.BranchProb))
	if err != nil {
		return Metrics{}, err
	}
	it.killAssigned(x.Then, env)
	it.killAssigned(x.Else, env)
	self.Accumulate(tm)
	self.Accumulate(em)
	return self, nil
}

// ---------------------------------------------------------------------------
// Communication interpretation

// evalPW evaluates a piecewise collective model, optionally degraded to
// its long-message segment only (the SimpleCommModel ablation).
func evalPW(simple bool, p ipsc.Piecewise, n int) float64 {
	if simple {
		return p.Long.Eval(n)
	}
	return p.Eval(n)
}

// killAssigned invalidates traced values assigned in a subtree, keeping
// user-pinned values intact.
func (it *Interpreter) killAssigned(ss []hir.Stmt, env absEnv) {
	if len(it.pinned) == 0 {
		killAssigned(ss, env)
		return
	}
	saved := make(map[string]sem.Value)
	for k := range it.pinned {
		if v, ok := env[k]; ok {
			saved[k] = v
		}
	}
	killAssigned(ss, env)
	for k, v := range saved {
		env[k] = v
	}
}

// stripBytesMax returns the worst per-node halo volume of a shift.
func stripBytesMax(m *dist.ArrayMap, elemBytes, dim, delta int) int {
	if delta < 0 {
		delta = -delta
	}
	dd := m.Dims[dim]
	rows := delta
	switch dd.Kind {
	case dist.Block:
		if rows > dd.BlockSize() {
			rows = dd.BlockSize()
		}
	case dist.Cyclic:
		rows = dist.CyclicShiftRows(dd.MaxLocalSize(), dd.BlockSize(), delta)
	}
	vol := rows
	for d, o := range m.Dims {
		if d != dim {
			vol *= o.MaxLocalSize()
		}
	}
	return vol * elemBytes
}

func (it *Interpreter) interpComm(a *AAU, env absEnv, mult float64) Metrics {
	rec := a.CommRec
	var commUS, compUS float64
	var bytes float64
	switch x := a.Stmt.(type) {
	case *hir.Shift:
		sym := it.prog.Info.Sym(x.Array)
		switch {
		case sym == nil:
			it.warnf("line %d: shift of unknown array %s ignored", a.Line, x.Array)
		case sym.Map != nil && (x.Dim < 0 || x.Dim >= len(sym.Map.Dims)):
			it.warnf("line %d: shift of %s along invalid dimension %d ignored", a.Line, x.Array, x.Dim)
		case sym.Map != nil && !sym.Map.Replicated && sym.Map.Dims[x.Dim].NProc > 1:
			vol := stripBytesMax(sym.Map, sym.Type.Bytes(), x.Dim, x.Offset)
			bytes = float64(vol)
			commUS = evalPW(it.opts.SimpleCommModel, it.lib.Shift, vol)
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
		sym := it.prog.Info.Sym(src)
		if sym == nil {
			it.warnf("line %d: shift of unknown array %s ignored", a.Line, src)
			break
		}
		shift := 1
		if v, ok := evalScalar(shiftE, env); ok {
			shift = int(v.AsInt())
		} else {
			it.warnf("line %d: shift amount unresolved; assuming 1", a.Line)
		}
		if sym.Map != nil && !sym.Map.Replicated && dim < len(sym.Map.Dims) && sym.Map.Dims[dim].NProc > 1 {
			vol := stripBytesMax(sym.Map, sym.Type.Bytes(), dim, shift)
			bytes = float64(vol)
			commUS = evalPW(it.opts.SimpleCommModel, it.lib.Shift, vol)
		}
		// Local data movement of the shifted copy.
		M := it.mach.Node.M
		local := sym.Elems()
		if sym.Map != nil && !sym.Map.Replicated {
			local = sym.Map.MaxLocalCount()
		}
		compUS = it.mach.Node.P.CyclesToUS(float64(local) * (M.LoadCycles + M.StoreCycles + 2))
	case *hir.Reduce:
		b := 8
		if x.LocSrc != "" {
			b = 16
		}
		bytes = float64(b)
		commUS = it.lib.Reduce.Eval(b)
	case *hir.AllGather:
		sym := it.prog.Info.Sym(x.Array)
		total := sym.Elems() * sym.Type.Bytes()
		bytes = float64(total)
		commUS = evalPW(it.opts.SimpleCommModel, it.lib.Gather, total)
	case *hir.FetchElem:
		bytes = float64(x.Typ.Bytes())
		commUS = evalPW(it.opts.SimpleCommModel, it.lib.Bcast, x.Typ.Bytes())
		parts := it.costs[a.Stmt]
		compUS += parts.compUS
	}
	rec.Bytes = bytes
	rec.CostUS = commUS
	rec.Count += mult
	return it.add(a, mult, Metrics{CompUS: compUS, CommUS: commUS, Execs: 1})
}

func (it *Interpreter) interpIO(a *AAU, mult float64) Metrics {
	x := a.Stmt.(*hir.Print)
	io := it.mach.Node.IO
	parts := it.costs[a.Stmt]
	commUS := io.HostStartupUS + float64(16*len(x.Args))*io.HostPerByteUS
	a.CommRec.Bytes = float64(16 * len(x.Args))
	a.CommRec.CostUS = commUS
	a.CommRec.Count += mult
	return it.add(a, mult, Metrics{CompUS: parts.compUS, CommUS: commUS, Execs: 1})
}
