package sweep

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Stats aggregates per-stage counters and wall-times of a sweep engine.
// All fields are updated atomically; a Stats value may be shared by
// concurrent workers and by several engines (e.g. to accumulate totals
// across figures). Read consistent values through Snapshot.
type Stats struct {
	// Compiles counts front-end pipeline runs (scanner→parser→sem→
	// compiler) that actually executed, i.e. cache misses that did work.
	Compiles atomic.Int64
	// CompileHits / CompileMisses count compile-cache lookups.
	CompileHits   atomic.Int64
	CompileMisses atomic.Int64
	// Interps counts interpretation runs that actually executed: each
	// is an evaluation of the compiled prediction form (the tree-walking
	// interpreter is the reference implementation only and never runs
	// here).
	Interps atomic.Int64
	// PredictHits / PredictMisses count compiled-prediction-form cache
	// lookups.
	PredictHits   atomic.Int64
	PredictMisses atomic.Int64
	// ReportHits / ReportMisses count interpretation-report cache lookups.
	ReportHits   atomic.Int64
	ReportMisses atomic.Int64
	// Execs counts simulated-machine executions that actually ran
	// (measurement-cache misses that did work).
	Execs atomic.Int64
	// ExecHits / ExecMisses count measurement-result cache lookups (the
	// simulator is deterministic per MeasureSpec, so results memoize).
	ExecHits   atomic.Int64
	ExecMisses atomic.Int64
	// Points counts sweep points completed through Map.
	Points atomic.Int64
	// Retries counts transient point failures retried by Map's bounded
	// backoff loop.
	Retries atomic.Int64
	// PointPanics counts panics recovered from point bodies (isolated
	// into *PanicError instead of crashing the pool).
	PointPanics atomic.Int64
	// CheckpointSkips counts sweep results excluded from a checkpoint
	// file because they do not round-trip through JSON (on record or on
	// load). A resumed run re-evaluates exactly these points, so the
	// counter explains why a resume did work a clean resume would not.
	CheckpointSkips atomic.Int64
	// Per-stage cumulative wall time, nanoseconds (summed across workers,
	// so stage times can exceed WallNS on multicore).
	CompileNS atomic.Int64
	InterpNS  atomic.Int64
	ExecNS    atomic.Int64
	// WallNS is the cumulative elapsed time spent inside Map calls.
	WallNS atomic.Int64
}

// lookups returns the hit and miss counters of one cached kind
// ("compile", "predict", "report" or "exec").
func (s *Stats) lookups(kind string) (hits, misses *atomic.Int64) {
	switch kind {
	case "compile":
		return &s.CompileHits, &s.CompileMisses
	case "predict":
		return &s.PredictHits, &s.PredictMisses
	case "report":
		return &s.ReportHits, &s.ReportMisses
	case "exec":
		return &s.ExecHits, &s.ExecMisses
	}
	panic("sweep: unknown cache kind " + kind)
}

// Snapshot is a consistent copy of the counters plus derived rates.
type Snapshot struct {
	Compiles        int64
	CompileHits     int64
	CompileMisses   int64
	Interps         int64
	PredictHits     int64
	PredictMisses   int64
	ReportHits      int64
	ReportMisses    int64
	Execs           int64
	ExecHits        int64
	ExecMisses      int64
	Points          int64
	Retries         int64
	PointPanics     int64
	CheckpointSkips int64
	CompileTime     time.Duration
	InterpTime      time.Duration
	ExecTime        time.Duration
	WallTime        time.Duration
	// PointsPerSec is Points divided by the wall time spent in Map
	// (0 when no Map ran).
	PointsPerSec float64
}

// Snapshot returns a copy of the current counters with derived rates.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Compiles:        s.Compiles.Load(),
		CompileHits:     s.CompileHits.Load(),
		CompileMisses:   s.CompileMisses.Load(),
		Interps:         s.Interps.Load(),
		PredictHits:     s.PredictHits.Load(),
		PredictMisses:   s.PredictMisses.Load(),
		ReportHits:      s.ReportHits.Load(),
		ReportMisses:    s.ReportMisses.Load(),
		Execs:           s.Execs.Load(),
		ExecHits:        s.ExecHits.Load(),
		ExecMisses:      s.ExecMisses.Load(),
		Points:          s.Points.Load(),
		Retries:         s.Retries.Load(),
		PointPanics:     s.PointPanics.Load(),
		CheckpointSkips: s.CheckpointSkips.Load(),
		CompileTime:     time.Duration(s.CompileNS.Load()),
		InterpTime:      time.Duration(s.InterpNS.Load()),
		ExecTime:        time.Duration(s.ExecNS.Load()),
		WallTime:        time.Duration(s.WallNS.Load()),
	}
	if secs := snap.WallTime.Seconds(); secs > 0 {
		snap.PointsPerSec = float64(snap.Points) / secs
	}
	return snap
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	s.Compiles.Store(0)
	s.CompileHits.Store(0)
	s.CompileMisses.Store(0)
	s.Interps.Store(0)
	s.PredictHits.Store(0)
	s.PredictMisses.Store(0)
	s.ReportHits.Store(0)
	s.ReportMisses.Store(0)
	s.Execs.Store(0)
	s.ExecHits.Store(0)
	s.ExecMisses.Store(0)
	s.Points.Store(0)
	s.Retries.Store(0)
	s.PointPanics.Store(0)
	s.CheckpointSkips.Store(0)
	s.CompileNS.Store(0)
	s.InterpNS.Store(0)
	s.ExecNS.Store(0)
	s.WallNS.Store(0)
}

// String renders the snapshot as the multi-line block printed by the
// -stats flag of hpfexp/hpfpc.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep stats:\n")
	fmt.Fprintf(&b, "  points      %d (%.1f points/sec)\n", s.Points, s.PointsPerSec)
	fmt.Fprintf(&b, "  compile     %d runs, cache %d hit / %d miss, %v\n",
		s.Compiles, s.CompileHits, s.CompileMisses, s.CompileTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  interpret   %d runs, cache %d hit / %d miss, %v\n",
		s.Interps, s.ReportHits, s.ReportMisses, s.InterpTime.Round(time.Microsecond))
	if s.PredictHits > 0 || s.PredictMisses > 0 {
		fmt.Fprintf(&b, "  predict     compiled forms, cache %d hit / %d miss\n",
			s.PredictHits, s.PredictMisses)
	}
	fmt.Fprintf(&b, "  execute     %d runs, cache %d hit / %d miss, %v\n",
		s.Execs, s.ExecHits, s.ExecMisses, s.ExecTime.Round(time.Microsecond))
	// Resilience counters only appear when something actually went wrong,
	// keeping happy-path -stats output identical to earlier releases.
	if s.Retries > 0 || s.PointPanics > 0 {
		fmt.Fprintf(&b, "  resilience  %d retries, %d point panics recovered\n", s.Retries, s.PointPanics)
	}
	if s.CheckpointSkips > 0 {
		fmt.Fprintf(&b, "  checkpoint  %d results skipped (re-evaluated on resume)\n", s.CheckpointSkips)
	}
	fmt.Fprintf(&b, "  wall        %v", s.WallTime.Round(time.Microsecond))
	return b.String()
}
