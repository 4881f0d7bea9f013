package core

import (
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
)

// pinnedIfSrc assigns the pinned critical variable N inside an IF whose
// condition depends on run-time data (S is a reduction result). The
// engine must weight the branches, but the user-pinned value of N has to
// survive the branch kill so the second IF and the trailing DO still
// resolve against it.
const pinnedIfSrc = `PROGRAM pin
REAL A(64)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
S = SUM(A)
IF (S .GT. 0.5) THEN
N = 3
ELSE
N = 7
ENDIF
IF (N .GT. 0) THEN
Y = 1.0
ELSE
Y = 2.0
ENDIF
DO I = 1, N
X = X + 1.0
ENDDO
END`

// TestPinnedValueSurvivesUnresolvedIf is the regression test for the
// unresolved-scalar-IF path invalidating Options.Values: before the fix
// it called the package-level killAssigned instead of the pinned-aware
// method, so the second IF lost N and spuriously warned + weighted its
// branches.
func TestPinnedValueSurvivesUnresolvedIf(t *testing.T) {
	opts := DefaultOptions()
	opts.Values = map[string]sem.Value{"N": sem.IntVal(5)}
	rep := interpret(t, pinnedIfSrc, opts)

	if len(rep.Warnings) != 1 {
		t.Fatalf("want exactly 1 branch-weighting warning (the S IF), got %d: %q",
			len(rep.Warnings), rep.Warnings)
	}
	if !strings.Contains(rep.Warnings[0], "line 6:") {
		t.Errorf("warning should be about the run-time IF at line 6, got %q", rep.Warnings[0])
	}
	// The second IF must resolve N=5 > 0: its THEN body (Y = 1.0 at line
	// 12) runs at full weight, the ELSE body (line 14) not at all.
	if got := rep.LineMetrics(12).Execs; got != 1 {
		t.Errorf("resolved THEN branch Execs = %v, want 1 (full weight)", got)
	}
	if got := rep.LineMetrics(14).Execs; got != 0 {
		t.Errorf("dead ELSE branch Execs = %v, want 0", got)
	}
	// And the trailing DO I = 1, N still resolves its bounds from the
	// pinned value: body line 17 executes N=5 times.
	if got := rep.LineMetrics(17).Execs; got != 5 {
		t.Errorf("loop body Execs = %v, want 5 (pinned N)", got)
	}
}

// shiftSrc produces an overlap Shift for B (nearest-neighbor read on a
// block-distributed array).
const shiftSrc = `PROGRAM sh
REAL A(64), B(64)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
FORALL (K=2:63) A(K) = B(K-1)
END`

// findShifts walks a statement tree collecting every *hir.Shift.
func findShifts(ss []hir.Stmt) []*hir.Shift {
	var out []*hir.Shift
	var scan func(ss []hir.Stmt)
	scan = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Shift:
				out = append(out, x)
			case *hir.Loop:
				scan(x.Body)
			case *hir.While:
				scan(x.Body)
			case *hir.If:
				scan(x.Then)
				scan(x.Else)
			}
		}
	}
	scan(ss)
	return out
}

// TestShiftMalformedDimWarns is the regression test for the unguarded
// sym.Map.Dims[x.Dim] index in the *hir.Shift case: a malformed HIR node
// must degrade to a warning, not a panic.
func TestShiftMalformedDimWarns(t *testing.T) {
	prog, err := compiler.Compile(shiftSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	shifts := findShifts(prog.Body)
	if len(shifts) == 0 {
		t.Fatal("no Shift comm inserted; test program no longer exercises the overlap path")
	}
	shifts[0].Dim = 7 // out of range for a 1-D map

	rep, err := predict(prog, DefaultOptions())
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "dimension") {
			found = true
		}
	}
	if !found {
		t.Errorf("want an invalid-dimension warning, got %q", rep.Warnings)
	}
}

// TestShiftUnknownArrayWarns covers the sym == nil guard of the same
// case: a Shift naming a symbol the program does not declare.
func TestShiftUnknownArrayWarns(t *testing.T) {
	prog, err := compiler.Compile(shiftSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	shifts := findShifts(prog.Body)
	if len(shifts) == 0 {
		t.Fatal("no Shift comm inserted; test program no longer exercises the overlap path")
	}
	shifts[0].Array = "NOSUCHARRAY"

	rep, err := predict(prog, DefaultOptions())
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "NOSUCHARRAY") {
			found = true
		}
	}
	if !found {
		t.Errorf("want an unknown-array warning, got %q", rep.Warnings)
	}
}

// lineRangeMetricsRef is the pre-PR-6 implementation of
// Report.LineRangeMetrics (allocate every key, sort, sum the subset),
// kept verbatim as the equality reference for the sort-free rewrite.
func lineRangeMetricsRef(r *Report, lo, hi int) Metrics {
	var out Metrics
	lines := make([]int, 0, len(r.ByLine))
	for l := range r.ByLine {
		lines = append(lines, l)
	}
	sortInts(lines)
	for _, l := range lines {
		if l >= lo && l <= hi {
			out.Accumulate(*r.ByLine[l])
		}
	}
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestLineRangeMetricsMatchesSorted pins the rewritten LineRangeMetrics
// to the old sorted-iteration implementation, bit for bit, across
// partial, full, inverted, and out-of-range windows.
func TestLineRangeMetricsMatchesSorted(t *testing.T) {
	rep := interpret(t, pinnedIfSrc, func() Options {
		o := DefaultOptions()
		o.Values = map[string]sem.Value{"N": sem.IntVal(5)}
		return o
	}())
	ranges := [][2]int{{1, 100}, {6, 11}, {13, 13}, {0, 5}, {50, 40}, {-10, 3}, {19, 1 << 30}}
	for _, r := range ranges {
		got := rep.LineRangeMetrics(r[0], r[1])
		want := lineRangeMetricsRef(rep, r[0], r[1])
		if got != want {
			t.Errorf("LineRangeMetrics(%d,%d) = %+v, want %+v", r[0], r[1], got, want)
		}
	}
}
