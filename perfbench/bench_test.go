package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"hpfperf"
)

// exactCounters repeat exactly for a seed. Allocation counts repeat to
// within 0.5% or half an allocation per op (see inprocRunner.trace).
var exactCounters = []string{
	"scanner.tokens", "compiler.hir_stmts", "compiler.comm_calls", "core.aaus",
	"exec.steps", "ipsc.messages", "ipsc.bytes_moved", "ipsc.collectives", "input.repeat_share",
}

// raceBuild is set when the test runs under the race detector.
var raceBuild bool

// TestCountersRepeat traces each in-process workload twice with one seed
// and compares the counters.
func TestCountersRepeat(t *testing.T) {
	for _, name := range []string{"predict", "whatif", "table2"} {
		t.Run(name, func(t *testing.T) {
			var runs []map[string]float64
			for k := 0; k < 2; k++ {
				w, err := newWorkload(config{workload: name, seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.setup(); err != nil {
					t.Fatal(err)
				}
				res, err := w.trace(0.1)
				w.close()
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.errs)
				}
				runs = append(runs, res.metrics)
			}
			for _, c := range exactCounters {
				if runs[0][c] != runs[1][c] {
					t.Errorf("%s: %v, then %v", c, runs[0][c], runs[1][c])
				}
			}
			for _, l := range busyLayers {
				if raceBuild {
					break
				}
				a, b := runs[0][l+".allocs"], runs[1][l+".allocs"]
				if math.Abs(a-b) > math.Max(0.005*math.Max(a, b), 0.5) {
					t.Errorf("%s.allocs: %v, then %v", l, a, b)
				}
			}
		})
	}
}

// TestServeStreamRepeats checks that the serve op stream, and so its
// input.repeat_share, is a pure function of the seed.
func TestServeStreamRepeats(t *testing.T) {
	if !reflect.DeepEqual(serveStream(3), serveStream(3)) {
		t.Fatal("two streams of seed 3 differ")
	}
	counts := make(map[opKind]int)
	for _, op := range serveStream(3)[:repeatPrefix] {
		counts[op.kind]++
	}
	if share := float64(counts[opPredict]) / repeatPrefix; share < 0.65 || share > 0.75 {
		t.Errorf("predict share %.3f, want about 0.70", share)
	}
}

// TestPinnable checks that the what-if rewrite leaves a program whose
// prediction follows the pinned STEPS.
func TestPinnable(t *testing.T) {
	w := &whatifWL{seed: 5}
	srcs, err := w.sources()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if strings.Contains(src, ", STEPS =") {
			t.Fatalf("STEPS still a PARAMETER:\n%s", src)
		}
	}
	a, b := predictUS(t, srcs[0], 5), predictUS(t, srcs[0], 50)
	if !(b > a) {
		t.Errorf("prediction with STEPS=50 (%v us) not above STEPS=5 (%v us)", b, a)
	}
}

func predictUS(t *testing.T, src string, steps int64) float64 {
	t.Helper()
	prog, err := hpfperf.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{IntValues: map[string]int64{"STEPS": steps}})
	if err != nil {
		t.Fatal(err)
	}
	return pred.Microseconds()
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics this program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(config{workload: wl.Name, hpfserve: "hpfserve"}); err != nil {
			t.Errorf("workload %s: %v", wl.Name, err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
