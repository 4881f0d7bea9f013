package suite

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/exec"
	"hpfperf/internal/ipsc"
)

func TestSuiteComplete(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("suite has %d programs, want 16 (Table 1)", len(all))
	}
	names := map[string]bool{}
	for _, p := range all {
		if names[p.Name] {
			t.Errorf("duplicate program %s", p.Name)
		}
		names[p.Name] = true
		if len(p.Sizes) == 0 || len(p.Procs) == 0 {
			t.Errorf("%s missing sweep configuration", p.Name)
		}
	}
	for _, want := range []string{"LFK 1", "LFK 2", "LFK 3", "LFK 9", "LFK 14", "LFK 22",
		"PBS 1", "PBS 2", "PBS 3", "PBS 4", "PI", "N-Body", "Finance",
		"Laplace (Blk-Blk)", "Laplace (Blk-X)", "Laplace (X-Blk)"} {
		if !names[want] {
			t.Errorf("missing program %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("pi") == nil {
		t.Error("ByName should be case-insensitive")
	}
	if ByName("nope") != nil {
		t.Error("unknown name should return nil")
	}
}

// TestAllProgramsCompileAndRun compiles, interprets and executes every
// suite program at its smallest size on 1 and 4 processors.
func TestAllProgramsCompileAndRun(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				src := p.Source(p.Sizes[0], procs)
				prog, err := compiler.Compile(src)
				if err != nil {
					t.Fatalf("procs=%d: compile: %v\nsource:\n%s", procs, err, src)
				}
				cp, err := core.CompilePrediction(context.Background(), prog, nil, core.DefaultOptions())
				if err != nil {
					t.Fatalf("procs=%d: interpreter: %v", procs, err)
				}
				rep, err := cp.Evaluate(context.Background())
				if err != nil {
					t.Fatalf("procs=%d: interpret: %v", procs, err)
				}
				if rep.TotalUS() <= 0 {
					t.Errorf("procs=%d: zero prediction", procs)
				}
				cfg := ipsc.DefaultConfig(procs)
				cfg.PerturbAmp = 0
				m, err := ipsc.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := exec.Run(prog, m, exec.Options{})
				if err != nil {
					t.Fatalf("procs=%d: run: %v", procs, err)
				}
				if res.MeasuredUS <= 0 {
					t.Errorf("procs=%d: zero measured time", procs)
				}
			}
		})
	}
}

func TestGrid2D(t *testing.T) {
	cases := map[int]string{1: "(1,1)", 2: "(1,2)", 4: "(2,2)", 8: "(2,4)", 6: "(2,3)"}
	for p, want := range cases {
		if got := Grid2D(p); got != want {
			t.Errorf("Grid2D(%d) = %s, want %s", p, got, want)
		}
	}
}

func TestLineOf(t *testing.T) {
	p := Finance()
	src := p.Source(64, 4)
	l1 := LineOf(src, FinancePhase1Marker)
	l2 := LineOf(src, FinancePhase2Marker)
	if l1 == 0 || l2 == 0 || l2 <= l1 {
		t.Errorf("phase markers at %d, %d", l1, l2)
	}
}

// TestFunctionalResults checks suite programs against closed-form or
// reference values computed directly in Go.
func TestFunctionalResults(t *testing.T) {
	runProg := func(t *testing.T, src string) []string {
		t.Helper()
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
		cfg.PerturbAmp = 0
		m, _ := ipsc.New(cfg)
		res, err := exec.Run(prog, m, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Printed
	}

	t.Run("PI converges", func(t *testing.T) {
		// PI's suite source has no PRINT; append one before END.
		src := withPrint(PI().Source(2048, 4), "API")
		out := runProg(t, src)
		v := parseLast(t, out)
		if v < 3.141 || v > 3.142 {
			t.Errorf("pi = %g", v)
		}
	})

	t.Run("PBS4 harmonic-like sum", func(t *testing.T) {
		src := withPrint(PBS4().Source(128, 4), "R")
		out := runProg(t, src)
		want := 0.0
		for k := 1; k <= 128; k++ {
			want += 1.0 / (1.0 + 0.01*float64(k))
		}
		v := parseLast(t, out)
		if diff := v - want; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("R = %g, want %g", v, want)
		}
	})

	t.Run("LFK22 guarded", func(t *testing.T) {
		src := withPrint(LFK22().Source(128, 4), "CHK")
		out := runProg(t, src)
		v := parseLast(t, out)
		// W = X/(EXP(Y)-1) with X=0.7, Y∈[1.5,3.1]: each term positive and
		// below 0.7/(e^1.5-1) ≈ 0.2; the sum over 128 elements is bounded.
		if v <= 0 || v > 0.2*128 {
			t.Errorf("LFK22 CHK = %g out of physical range", v)
		}
	})

	t.Run("Finance prices positive", func(t *testing.T) {
		src := withPrint(Finance().Source(64, 4), "CHK")
		out := runProg(t, src)
		if v := parseLast(t, out); v <= 0 {
			t.Errorf("total option value = %g", v)
		}
	})
}

// withPrint inserts a PRINT of one scalar before the final END.
func withPrint(src, name string) string {
	return strings.TrimSuffix(src, "END") + "PRINT *, " + name + "\nEND"
}

func parseLast(t *testing.T, printed []string) float64 {
	t.Helper()
	if len(printed) == 0 {
		t.Fatal("no output")
	}
	var v float64
	if _, err := fmt.Sscanf(printed[len(printed)-1], "%g", &v); err != nil {
		t.Fatalf("parse %q: %v", printed[len(printed)-1], err)
	}
	return v
}
