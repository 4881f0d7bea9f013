package trace

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
)

func sampleReport(t *testing.T) *core.Report {
	t.Helper()
	src := `PROGRAM tr
PARAMETER (N = 64)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) B(K) = REAL(K)
FORALL (K=2:N-1) A(K) = B(K-1) + B(K+1)
S = SUM(A)
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

func TestFromReportStructure(t *testing.T) {
	rep := sampleReport(t)
	tr := FromReport(rep)
	if tr.Procs != 4 {
		t.Fatalf("procs = %d", tr.Procs)
	}
	counts := map[EventType]int{}
	for _, e := range tr.Events {
		counts[e.Type]++
	}
	if counts[TraceStart] != 4 || counts[TraceStop] != 4 {
		t.Errorf("start/stop = %d/%d", counts[TraceStart], counts[TraceStop])
	}
	if counts[Send] == 0 || counts[Recv] == 0 {
		t.Error("no communication events (shifts + reduce expected)")
	}
	if counts[BlockBegin] == 0 || counts[BlockBegin] != counts[BlockEnd] {
		t.Errorf("block begin/end = %d/%d", counts[BlockBegin], counts[BlockEnd])
	}
}

func TestTimestampsMonotonePerProc(t *testing.T) {
	tr := FromReport(sampleReport(t))
	last := make(map[int]float64)
	for _, e := range tr.Events {
		if e.TimeUS < last[e.Proc]-1e-9 {
			t.Fatalf("time went backwards on proc %d: %g < %g", e.Proc, e.TimeUS, last[e.Proc])
		}
		last[e.Proc] = e.TimeUS
	}
}

func TestEndTimeMatchesPrediction(t *testing.T) {
	rep := sampleReport(t)
	tr := FromReport(rep)
	end := tr.EndTimeUS()
	if end <= 0 {
		t.Fatal("zero end time")
	}
	// The condensed trace replays the AAG once; its span should be within
	// a factor of the predicted total (loops are represented scaled).
	if end > rep.TotalUS()*1.5 {
		t.Errorf("trace end %g far beyond prediction %g", end, rep.TotalUS())
	}
}

func TestWritePICLFormat(t *testing.T) {
	tr := FromReport(sampleReport(t))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tr.Events) {
		t.Fatalf("lines = %d, events = %d", len(lines), len(tr.Events))
	}
	// First records are the per-processor trace starts.
	if !strings.HasPrefix(lines[0], "-3 0.000000000 0") {
		t.Errorf("first record = %q", lines[0])
	}
	for _, l := range lines {
		if len(strings.Fields(l)) < 3 {
			t.Fatalf("malformed record %q", l)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if tr.EndTimeUS() != 0 {
		t.Error("empty trace end time")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	tr := FromReport(sampleReport(t))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Procs != tr.Procs || len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip: procs %d/%d events %d/%d",
			back.Procs, tr.Procs, len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		a, b := tr.Events[i], back.Events[i]
		if a.Type != b.Type || a.Proc != b.Proc {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, a, b)
		}
		if d := a.TimeUS - b.TimeUS; d > 1e-3 || d < -1e-3 {
			t.Fatalf("event %d time drift %g", i, d)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"x 1 2", "-3 abc 2", "-3 1.0 zz", "-3 1.0"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("want parse error for %q", bad)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	tr := FromReport(sampleReport(t))
	g := tr.Gantt(60)
	if !strings.Contains(g, "P0") || !strings.Contains(g, "#") || !strings.Contains(g, "~") {
		t.Errorf("gantt:\n%s", g)
	}
	if (&Trace{}).Gantt(40) != "(empty trace)\n" {
		t.Error("empty trace rendering")
	}
}

func TestSummarize(t *testing.T) {
	tr := FromReport(sampleReport(t))
	st := tr.Summarize()
	if st.Procs != 4 || st.TotalUS <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	for p := 0; p < st.Procs; p++ {
		if st.BusyUS[p] <= 0 || st.CommUS[p] <= 0 {
			t.Errorf("proc %d busy=%g comm=%g", p, st.BusyUS[p], st.CommUS[p])
		}
		if st.BusyUS[p]+st.CommUS[p] > st.TotalUS*1.01 {
			t.Errorf("proc %d activity exceeds total", p)
		}
	}
}
