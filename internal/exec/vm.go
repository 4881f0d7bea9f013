package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
)

// Options controls program execution.
type Options struct {
	// Runs is the number of independently perturbed timed runs to average
	// (the paper averaged 1000 measured runs; a handful reproduces the
	// same statistics on the deterministic simulator). Default 1.
	Runs int
	// MaxSteps bounds statement executions as a runaway guard.
	MaxSteps int64
	// Sequential forces the timed runs to execute one after another on a
	// single goroutine (they run concurrently by default when Runs > 1;
	// results are identical either way — each run gets its own
	// deterministically seeded machine clone).
	Sequential bool
}

// Result of executing a program on the simulated machine.
type Result struct {
	// MeasuredUS is the mean measured completion time in microseconds.
	MeasuredUS float64
	// RunsUS holds the per-run measured times.
	RunsUS []float64
	// PerNodeUS holds the final clock of every node (last run).
	PerNodeUS []float64
	// Printed collects list-directed output lines.
	Printed []string
	// Stats holds simulator counters from the last run.
	Stats ipsc.Stats
	// Steps is the number of executed statements (last run).
	Steps int64
}

// Run compiles-in and executes the program, averaging opts.Runs timed runs.
func Run(prog *hir.Program, mach *ipsc.Machine, opts Options) (*Result, error) {
	return RunContext(context.Background(), prog, mach, opts)
}

// RunContext is Run with cooperative cancellation: the statement loop
// checks ctx every ctxCheckSteps executed statements, so a cancelled or
// timed-out request escapes a long simulation mid-sweep instead of
// running it to completion.
//
// The program is lowered once (statement costs, scalar slots, array
// storage indices, owner arithmetic) and the lowered form is shared
// read-only by every timed run; each run gets its own frame and its own
// deterministically seeded machine clone.
func RunContext(ctx context.Context, prog *hir.Program, mach *ipsc.Machine, opts Options) (*Result, error) {
	if opts.Runs <= 0 {
		opts.Runs = 1
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 2_000_000_000
	}
	_, span := obs.Start(ctx, "exec.vm")
	defer span.End()
	span.SetAttrInt("runs", opts.Runs)
	grid := prog.Info.Grid
	span.SetAttrInt("procs", grid.Size())
	if grid.Size() != mach.Nodes() {
		return nil, fmt.Errorf("exec: program grid %s has %d processors but machine has %d nodes",
			grid, grid.Size(), mach.Nodes())
	}
	lp := lower(prog, mach)
	res := &Result{}
	res.RunsUS = make([]float64, opts.Runs)

	type runOut struct {
		fr  *frame
		err error
	}
	outs := make([]runOut, opts.Runs)
	oneRun := func(run int) {
		fr := newFrame(ctx, lp, mach.CloneForRun(run), opts.MaxSteps)
		if err := fr.exec(lp.body, fr.pcs[pcFree]); err != nil {
			outs[run] = runOut{err: err}
			return
		}
		res.RunsUS[run] = fr.mach.MeasuredTimeUS()
		outs[run] = runOut{fr: fr}
	}
	if opts.Sequential || opts.Runs == 1 {
		for run := 0; run < opts.Runs; run++ {
			oneRun(run)
		}
	} else {
		// Timed runs are independent: fan them out, bounded by the CPU
		// count (share memory by communicating completion, not state).
		sem := make(chan struct{}, maxParallel())
		var wg sync.WaitGroup
		for run := 0; run < opts.Runs; run++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(run int) {
				defer wg.Done()
				defer func() { <-sem }()
				oneRun(run)
			}(run)
		}
		wg.Wait()
	}
	var last *frame
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		last = o.fr
	}
	for _, t := range res.RunsUS {
		res.MeasuredUS += t / float64(opts.Runs)
	}
	res.PerNodeUS = make([]float64, mach.Nodes())
	for r := 0; r < mach.Nodes(); r++ {
		res.PerNodeUS[r] = last.mach.Time(r)
	}
	res.Printed = last.printed
	res.Stats = last.mach.Stats
	res.Steps = last.steps
	return res, nil
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// frame is the mutable state of one timed run of a lowered program:
// scalar slots, array storage, partition-context buffers and the run's
// machine clone.
type frame struct {
	p    *program
	mach *ipsc.Machine
	ctx  context.Context

	ints   []int64
	floats []float64
	bools  []bool
	vals   []val  // scalars written with several kinds
	set    []bool // vals[i] has been assigned
	arrays [][]float64
	// pcs holds the partition-context buffers (see pcFree, pcGuard,
	// pcLoops), one coordinate per grid dimension, -1 = unconstrained.
	pcs     [][]int
	fetched float64 // element located by the current FetchElem

	printed []string
	steps   int64
	maxStep int64
	line    int   // source line of the statement executing (or last executed)
	err     error // first run-time error raised inside an expression
}

func newFrame(ctx context.Context, p *program, mach *ipsc.Machine, maxSteps int64) *frame {
	fr := &frame{
		p: p, mach: mach, ctx: ctx, maxStep: maxSteps,
		ints:   make([]int64, p.nints),
		floats: make([]float64, p.nfloats),
		bools:  make([]bool, p.nbools),
		vals:   make([]val, p.nvals),
		set:    make([]bool, p.nvals),
		arrays: make([][]float64, len(p.arrays)),
		pcs:    make([][]int, p.npcs),
	}
	for i, a := range p.arrays {
		fr.arrays[i] = make([]float64, a.size)
	}
	pcs := make([]int, p.npcs*p.dims)
	for i := range pcs {
		pcs[i] = -1
	}
	for i := range fr.pcs {
		fr.pcs[i] = pcs[i*p.dims : (i+1)*p.dims : (i+1)*p.dims]
	}
	return fr
}

// runtimeError is an execution error with source line context.
type runtimeError struct {
	line int
	msg  string
}

func (e *runtimeError) Error() string {
	if e.line > 0 {
		return fmt.Sprintf("runtime error at line %d: %s", e.line, e.msg)
	}
	return "runtime error: " + e.msg
}

// errorf returns a run-time error at the current line.
func (fr *frame) errorf(format string, args ...any) error {
	return &runtimeError{line: fr.line, msg: fmt.Sprintf(format, args...)}
}

// fail records a run-time error raised while evaluating an expression;
// the first one raised wins, as evaluation would have stopped there.
func (fr *frame) fail(format string, args ...any) {
	if fr.err == nil {
		fr.err = fr.errorf(format, args...)
	}
}

func (fr *frame) failBounds(dim int, array string, g, lo, hi int) {
	fr.fail("subscript %d of %s is %d, outside [%d,%d]", dim, array, g, lo, hi)
}

// exec runs a statement list under partition context pc.
func (fr *frame) exec(body []stmt, pc []int) error {
	for i := range body {
		s := &body[i]
		fr.line = s.line
		if err := fr.tick(); err != nil {
			return err
		}
		if err := s.run(fr, pc); err != nil {
			return err
		}
	}
	return nil
}

// ctxCheckSteps is how many executed statements may pass between
// cooperative cancellation checks; at simulator speeds this bounds
// cancellation latency well below a millisecond.
const ctxCheckSteps = 1024

// tick counts one executed statement or loop iteration.
func (fr *frame) tick() error {
	fr.steps++
	if fr.steps > fr.maxStep || fr.steps%ctxCheckSteps == 0 {
		return fr.checkpoint()
	}
	return nil
}

func (fr *frame) checkpoint() error {
	if fr.steps > fr.maxStep {
		return fr.errorf("execution exceeded %d statements (runaway loop?)", fr.maxStep)
	}
	if err := fr.ctx.Err(); err != nil {
		return err
	}
	// Chaos hook: shares the stride so the statement loop stays at one
	// modulo per statement when chaos is off.
	return faults.Fire(faults.SiteExec)
}

// charge adds cycles to every rank matching the partition context.
func (fr *frame) charge(pc []int, cycles float64) {
	if cycles == 0 {
		return
	}
	fr.computeOn(pc, cycles)
}

// computeOn advances the clock of every rank matching pc by cycles, in
// rank order.
func (fr *frame) computeOn(pc []int, cycles float64) {
	p := fr.p
	rank, pinned := 0, true
	for d, c := range pc {
		if c < 0 {
			pinned = false
			break
		}
		rank += c * p.rankStride[d]
	}
	if pinned {
		fr.mach.Compute(rank, cycles)
		return
	}
	for r := 0; r < p.nodes; r++ {
		coords := p.coords[r*p.dims : (r+1)*p.dims]
		match := true
		for d, want := range pc {
			if want >= 0 && coords[d] != want {
				match = false
				break
			}
		}
		if match {
			fr.mach.Compute(r, cycles)
		}
	}
}
