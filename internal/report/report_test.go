package report

import (
	"context"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
)

func sampleReport(t *testing.T) *core.Report {
	t.Helper()
	src := `PROGRAM sample
PARAMETER (N = 256)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) B(K) = REAL(K)
FORALL (K=2:N-1) A(K) = B(K-1) + B(K+1)
S = SUM(A)
PRINT *, S
END`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.CompilePrediction(context.Background(), prog, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cp.Evaluate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFormatUS(t *testing.T) {
	cases := map[float64]string{
		12.3:    "12.3us",
		4500:    "4.50ms",
		2500000: "2.500s",
	}
	for in, want := range cases {
		if got := FormatUS(in); got != want {
			t.Errorf("FormatUS(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestProfile(t *testing.T) {
	rep := sampleReport(t)
	p := Profile(rep)
	for _, want := range []string{"SAMPLE", "computation", "communication", "overhead", "%"} {
		if !strings.Contains(p, want) {
			t.Errorf("profile missing %q:\n%s", want, p)
		}
	}
}

func TestPhaseProfile(t *testing.T) {
	rep := sampleReport(t)
	phases := PhaseProfile(rep, []Phase{
		{Name: "init", FromLine: 9, ToLine: 9},
		{Name: "stencil", FromLine: 10, ToLine: 10},
	})
	if len(phases) != 2 {
		t.Fatalf("phases = %d", len(phases))
	}
	if phases[0].Metrics.TotalUS() <= 0 || phases[1].Metrics.TotalUS() <= 0 {
		t.Error("empty phase metrics")
	}
	// The stencil phase communicates (halo shifts); init does not.
	if phases[0].Metrics.CommUS != 0 {
		t.Error("init phase should not communicate")
	}
	if phases[1].Metrics.CommUS <= 0 {
		t.Error("stencil phase should include shift communication")
	}
	txt := RenderPhaseProfile("test", phases)
	if !strings.Contains(txt, "init") || !strings.Contains(txt, "#") {
		t.Errorf("rendering:\n%s", txt)
	}
}

func TestCommTable(t *testing.T) {
	rep := sampleReport(t)
	txt := CommTable(rep)
	if !strings.Contains(txt, "shift") || !strings.Contains(txt, "reduce") {
		t.Errorf("comm table:\n%s", txt)
	}
}

func TestAAGView(t *testing.T) {
	rep := sampleReport(t)
	full := AAGView(rep, 0)
	shallow := AAGView(rep, 1)
	if len(shallow) >= len(full) {
		t.Error("depth limit should shorten the view")
	}
	if !strings.Contains(full, "IterD") {
		t.Error("AAG view missing loop AAUs")
	}
}

func TestLineQueryAndHotLines(t *testing.T) {
	rep := sampleReport(t)
	q := LineQuery(rep, 10)
	if !strings.Contains(q, "line 10") {
		t.Errorf("line query: %s", q)
	}
	hot := HotLines(rep, 2)
	if len(strings.Split(strings.TrimSpace(hot), "\n")) != 2 {
		t.Errorf("hot lines:\n%s", hot)
	}
}

func TestTable(t *testing.T) {
	txt := Table([]string{"a", "bbb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing separator")
	}
}

func TestChart(t *testing.T) {
	txt := Chart("title", "x", "y", []Series{
		{Label: "a", X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}},
		{Label: "b", X: []float64{1, 2, 3}, Y: []float64{2, 3, 4}},
	})
	if !strings.Contains(txt, "title") || !strings.Contains(txt, "o = a") {
		t.Errorf("chart:\n%s", txt)
	}
}

func TestBars(t *testing.T) {
	txt := Bars("bars", "min", []string{"x", "y"}, []float64{10, 40})
	if !strings.Contains(txt, "####") {
		t.Errorf("bars:\n%s", txt)
	}
}

func TestChartDegenerate(t *testing.T) {
	// Single point, zero range: must not panic or divide by zero.
	txt := Chart("t", "x", "y", []Series{{Label: "a", X: []float64{5}, Y: []float64{0}}})
	if txt == "" {
		t.Error("empty chart")
	}
}

func TestAAUQuery(t *testing.T) {
	rep := sampleReport(t)
	var id int
	rep.SAAG.Walk(func(a *core.AAU) {
		if id == 0 && a.Kind == core.IterD {
			id = a.ID
		}
	})
	q := AAUQuery(rep, id)
	if !strings.Contains(q, "IterD") || !strings.Contains(q, "clock") {
		t.Errorf("AAU query: %s", q)
	}
	if !strings.Contains(AAUQuery(rep, 99999), "not found") {
		t.Error("missing-AAU message")
	}
}
