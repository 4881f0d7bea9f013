// Command perfbench is the repository benchmark. It runs one of four
// seeded workloads through the entry points users call (hpfperf.Compile,
// Predict and Measure in process; hpfclient against an hpfserve process),
// checks every output, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run gives the per-layer ones. See README.md.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many times a run sets its workload up: each
// sample but the last runs in a fresh child process, so caches start
// cold every time, and setup_s is their median.
const setupSamples = 5

// repeatPrefix is the number of leading ops of the seeded op sequence
// over which input.repeat_share is computed.
const repeatPrefix = 4096

type config struct {
	workload string
	seed     int64
	seconds  float64
	hpfserve string
	out      string
	commit   string
}

// A workload is set up once per process, then either timed or traced.
type workload interface {
	setup() error
	// run is the untraced closed loop of the end-to-end metrics.
	run(seconds float64) (*loopResult, error)
	// trace is the separate traced run of the per-layer metrics.
	trace(seconds float64) (*traceResult, error)
	// peakRSSMB is the VmHWM of the process doing the work.
	peakRSSMB() (float64, error)
	close()
	// expected returns the digests to pin for the default seed.
	expected() ([]string, error)
}

type loopResult struct {
	lat               []float64 // seconds, one per successful op
	wall              float64   // seconds in the timed phase
	attempted, failed int
	errs              []string
}

func (r *loopResult) fail(i int, err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("op %d: %v", i, err))
	}
}

type traceResult struct {
	metrics           map[string]float64
	attempted, failed int
	errs              []string
	spans             []span // of one traced pass, written to a file
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// busyLayers are the layers whose self time the in-process traced run
// attributes; each gets <layer>.busy_s, and all but core.predict get
// <layer>.allocs.
var busyLayers = []string{
	"scanner", "parser", "sem", "compiler", "sysmodel", "core.compile", "core.saag",
	"analysis.trace", "core.evaluate", "report", "ipsc", "exec", "unattributed",
}

// perLayer lists the per-layer metrics with their units. Every workload
// prints all of them; a layer a workload never calls reads 0.
var perLayer = func() [][2]string {
	var out [][2]string
	for _, l := range busyLayers {
		out = append(out, [2]string{l + ".busy_s", "s"})
	}
	out = append(out, [2]string{"core.predict.busy_s", "s"})
	for _, l := range busyLayers {
		out = append(out, [2]string{l + ".allocs", "count/op"})
	}
	return append(out,
		[2]string{"scanner.tokens", "count/op"},
		[2]string{"compiler.hir_stmts", "count/op"},
		[2]string{"compiler.comm_calls", "count/op"},
		[2]string{"core.aaus", "count/op"},
		[2]string{"exec.steps", "count/op"},
		[2]string{"ipsc.messages", "count/op"},
		[2]string{"ipsc.bytes_moved", "count/op"},
		[2]string{"ipsc.collectives", "count/op"},
		[2]string{"input.repeat_share", "1"},
		[2]string{"table2.max_err_pct", "%"},
		[2]string{"server.predict.p50_ms", "ms"},
		[2]string{"server.batch.p50_ms", "ms"},
		[2]string{"server.measure.p50_ms", "ms"},
		[2]string{"jobs.submit_to_done_p90_ms", "ms"},
		[2]string{"sweep.compile.hit_ratio", "1"},
		[2]string{"sweep.predict.hit_ratio", "1"},
		[2]string{"sweep.report.hit_ratio", "1"},
		[2]string{"sweep.exec.hit_ratio", "1"},
		[2]string{"sweep.evictions", "count"},
		[2]string{"sweep.compile.busy_s", "s"},
		[2]string{"sweep.interp.busy_s", "s"},
		[2]string{"sweep.exec.busy_s", "s"},
		[2]string{"server.shed", "count"},
		[2]string{"server.cost_rejected", "count"},
		[2]string{"server.breaker_rejected", "count"},
		[2]string{"jobs.events", "count"},
		[2]string{"fail_ratio", "1"},
		[2]string{"trace.overhead_pct", "%"},
	)
}()

func main() {
	var cfg config
	var traceFlag int
	var setupOnly bool
	var update string
	flag.StringVar(&cfg.workload, "workload", "", "workload: predict, whatif, table2 or serve")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 for the end-to-end metrics, 1 for the traced per-layer run")
	flag.StringVar(&cfg.hpfserve, "hpfserve", "", "hpfserve binary (serve workload)")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and job journals")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, for the stamp")
	flag.BoolVar(&setupOnly, "setup-only", false, "set the workload up once, print the seconds it took, and exit")
	flag.StringVar(&update, "update-expected", "", "write the default seed's digests into this expected/ directory and exit")
	flag.Parse()

	if err := run(cfg, traceFlag, setupOnly, update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "predict":
		return &inprocRunner{w: &predictWL{seed: cfg.seed}}, nil
	case "whatif":
		return &inprocRunner{w: &whatifWL{seed: cfg.seed}}, nil
	case "table2":
		return &inprocRunner{w: &table2WL{seed: cfg.seed}}, nil
	case "serve":
		if cfg.hpfserve == "" {
			return nil, errors.New("the serve workload needs --hpfserve")
		}
		return &serveWL{seed: cfg.seed, bin: cfg.hpfserve, out: cfg.out}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want predict, whatif, table2 or serve)", cfg.workload)
}

func run(cfg config, traceFlag int, setupOnly bool, update string) error {
	// The benchmark process runs on one P. The in-process workloads are
	// one caller of sequential library code, so this only moves the
	// collector onto the caller's CPU; left on the second vCPU, whose
	// share of the host varies, it made runs spread several times more.
	// The serve callers wait on hpfserve, which keeps its default.
	runtime.GOMAXPROCS(1)
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	if update != "" {
		if cfg.seed != defaultSeed {
			return fmt.Errorf("--update-expected records seed %d only", defaultSeed)
		}
		if err := w.setup(); err != nil {
			return err
		}
		defer w.close()
		d, err := w.expected()
		if err != nil {
			return err
		}
		return writeExpected(update, cfg.workload, d)
	}

	var samples []float64
	if traceFlag == 0 && !setupOnly {
		for k := 1; k < setupSamples; k++ {
			s, err := childSetup(cfg)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
	}
	t0 := time.Now()
	if err := w.setup(); err != nil {
		w.close()
		return fmt.Errorf("setup: %w", err)
	}
	samples = append(samples, time.Since(t0).Seconds())
	defer w.close()
	if setupOnly {
		fmt.Println(strconv.FormatFloat(samples[0], 'g', -1, 64))
		return nil
	}

	stamp := hostStamp(cfg)
	sj, _ := json.Marshal(stamp)
	fmt.Printf("# stamp %s\n", sj)
	res := result{Metrics: make(map[string]metricValue)}
	var errs []string
	if traceFlag == 0 {
		lr, err := w.run(cfg.seconds)
		if err != nil {
			return err
		}
		rss, err := w.peakRSSMB()
		if err != nil {
			return err
		}
		sort.Float64s(lr.lat)
		values := map[string]float64{
			"setup_s":     median(samples),
			"ops_per_s":   float64(len(lr.lat)) / lr.wall,
			"p50_ms":      1e3 * quantile(lr.lat, 0.5),
			"p90_ms":      1e3 * quantile(lr.lat, 0.9),
			"peak_rss_mb": rss,
		}
		for _, m := range endToEnd {
			res.Metrics[m[0]] = metricValue{values[m[0]], m[1]}
		}
		res.Attempted, res.Failed, errs = lr.attempted, lr.failed, lr.errs
		fmt.Printf("# %s: %d ops in %.3f s, setup samples %v\n", cfg.workload, lr.attempted, lr.wall, samples)
	} else {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		tr, err := w.trace(cfg.seconds)
		if err != nil {
			return err
		}
		if err := writeSpans(path, stamp, tr.spans); err != nil {
			return err
		}
		tr.metrics["fail_ratio"] = float64(tr.failed) / math.Max(1, float64(tr.attempted))
		for _, m := range perLayer {
			res.Metrics[m[0]] = metricValue{tr.metrics[m[0]], m[1]}
		}
		res.Attempted, res.Failed, errs = tr.attempted, tr.failed, tr.errs
		fmt.Printf("# spans written to %s\n", path)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return errors.New("no op was attempted")
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// childSetup sets the workload up in a fresh process and returns the
// seconds that took.
func childSetup(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := osexec.Command(self, "--setup-only", "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--hpfserve", cfg.hpfserve, "--out", cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup sample: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// hostStamp records where and on what a result was measured.
func hostStamp(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     cfg.commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSS reads VmHWM, in MB, from /proc/<pid>/status.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// repeatShare is the share of keys equal to an earlier key.
func repeatShare(keys []string) float64 {
	seen := make(map[string]bool, len(keys))
	rep := 0
	for _, k := range keys {
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(len(keys))
}
