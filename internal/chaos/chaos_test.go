package chaos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpfperf/hpfclient"
	"hpfperf/internal/experiments"
	"hpfperf/internal/faults"
	"hpfperf/internal/server"
	"hpfperf/internal/sweep"
)

// rate returns the injection rate for this run (HPFPERF_CHAOS_RATE,
// default 0.10), so CI can sweep a rate matrix over the same tests.
func rate(t *testing.T) float64 {
	t.Helper()
	v := os.Getenv("HPFPERF_CHAOS_RATE")
	if v == "" {
		return 0.10
	}
	r, err := strconv.ParseFloat(v, 64)
	if err != nil || r < 0 || r > 1 {
		t.Fatalf("bad HPFPERF_CHAOS_RATE %q", v)
	}
	return r
}

func activate(t *testing.T, spec string, seed int64) {
	t.Helper()
	inj, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(inj)
	t.Cleanup(faults.Deactivate)
}

const tinyProgram = `      PROGRAM TINY
!HPF$ PROCESSORS P(4)
      REAL A(32)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
      A = 1.0
      PRINT *, A(1)
      END PROGRAM TINY
`

// TestChaosServerSurvives is the headline acceptance test: the server
// runs with faults injected across every layer (handlers, compile,
// cache, interpreter, VM, sweep) at the configured rate while
// concurrent clients hammer it through hpfclient's retry loop. The
// contract: the process does not crash, retried requests mostly
// succeed, the error rate stays bounded, health stays OK and no
// goroutines leak.
func TestChaosServerSurvives(t *testing.T) {
	r := rate(t)
	spec := fmt.Sprintf(
		"server.predict:%g:error,server.predict:%g:panic,server.analyze:%g:error,"+
			"server.measure:%g:panic,compile:%g:error,cache:%g:error,"+
			"interp:%g:error,exec:%g:error,sweep:%g:delay:200us",
		r, r/2, r, r/2, r/2, r/2, r/2, r/2, r)
	activate(t, spec, 42)

	// A private engine with an aggressive retry policy: transient
	// injected faults inside the pipeline are mostly absorbed below the
	// HTTP surface.
	eng := sweep.New(sweep.Options{
		Workers: 4,
		Retry:   sweep.RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond},
	})
	srv := server.New(server.Config{
		Engine:        eng,
		MaxConcurrent: 8,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	goroutinesBefore := runtime.NumGoroutine()

	clients := 6
	perClient := 10
	if testing.Short() {
		clients, perClient = 3, 4
	}
	c := hpfclient.New(hpfclient.Config{
		BaseURL: ts.URL,
		Retry:   hpfclient.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	var okCount, failCount atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				var err error
				switch (w + i) % 3 {
				case 0:
					var resp *hpfclient.PredictResponse
					resp, err = c.Predict(ctx, &hpfclient.PredictRequest{Source: tinyProgram})
					if err == nil && (resp.Program != "TINY" || resp.EstUS <= 0) {
						t.Errorf("corrupt predict response under chaos: %+v", resp)
					}
				case 1:
					var resp *hpfclient.AnalyzeResponse
					resp, err = c.Analyze(ctx, &hpfclient.AnalyzeRequest{Source: tinyProgram})
					if err == nil && resp.Program != "TINY" {
						t.Errorf("corrupt analyze response under chaos: %+v", resp)
					}
				default:
					var resp *hpfclient.MeasureResponse
					resp, err = c.Measure(ctx, &hpfclient.MeasureRequest{Source: tinyProgram, Runs: 1})
					if err == nil && resp.MeasuredUS <= 0 {
						t.Errorf("corrupt measure response under chaos: %+v", resp)
					}
				}
				cancel()
				if err != nil {
					failCount.Add(1)
				} else {
					okCount.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	total := okCount.Load() + failCount.Load()
	// With client retries on top of sweep retries, the residual failure
	// rate must stay well below the injection rate's raw failure odds.
	// Allow up to 25% at the default 10% injection rate (panics at the
	// handler layer are 500s the client does not retry).
	maxFail := int64(float64(total) * (0.05 + 2*r))
	if failCount.Load() > maxFail {
		t.Errorf("failure rate too high under chaos: %d/%d failed (budget %d)",
			failCount.Load(), total, maxFail)
	}
	if okCount.Load() == 0 {
		t.Fatal("no request succeeded under chaos")
	}

	// The server is still healthy once the storm passes.
	faults.Deactivate()
	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Errorf("health after chaos: %+v, %v", h, err)
	}
	if _, err := c.Predict(context.Background(), &hpfclient.PredictRequest{Source: tinyProgram}); err != nil {
		t.Errorf("predict after chaos: %v", err)
	}

	// No goroutine leaks: allow the HTTP client/server machinery to
	// settle, then compare against the baseline with headroom for
	// runtime background goroutines.
	http.DefaultClient.CloseIdleConnections()
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore+8 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore+8 {
		t.Errorf("goroutines grew %d -> %d under chaos", goroutinesBefore, g)
	}
}

// chaosConfig returns a quick experiment config on a private engine
// with a deep, fast retry budget.
func chaosConfig(retries int) (experiments.Config, *sweep.Engine) {
	eng := sweep.New(sweep.Options{
		Workers: 4,
		Retry:   sweep.RetryPolicy{MaxAttempts: retries, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond},
	})
	cfg := experiments.QuickConfig()
	cfg.Engine = eng
	return cfg, eng
}

// TestChaosSweepRetriesToSuccess: a Table 2 quick sweep under injected
// sweep-point faults must converge to output byte-identical to a clean
// run — retries recompute deterministic points, never corrupt them.
func TestChaosSweepRetriesToSuccess(t *testing.T) {
	cleanCfg, _ := chaosConfig(1)
	cleanRows, err := experiments.Table2(cleanCfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := experiments.RenderTable2(cleanRows)

	r := rate(t)
	activate(t, fmt.Sprintf("sweep:%g:error,sweep:%g:panic", r, r/2), 11)
	// At 10% error + 5% panic per attempt, 8 attempts drive the odds of
	// a point exhausting its budget to ~0.15^8 per point.
	chaosCfg, eng := chaosConfig(8)
	rows, err := experiments.Table2(chaosCfg)
	if err != nil {
		t.Fatalf("sweep did not converge under %g%% faults: %v", 100*r, err)
	}
	if got := experiments.RenderTable2(rows); got != clean {
		t.Errorf("chaos output differs from clean run:\n--- clean ---\n%s\n--- chaos ---\n%s", clean, got)
	}
	if r > 0 {
		if snap := eng.Snapshot(); snap.Retries == 0 {
			t.Error("no retries recorded — the fault site did not fire")
		}
	}
}

// TestChaosCheckpointResume: a sweep killed by exhausted retries leaves
// a checkpoint; a second run with faults off resumes from it, evaluates
// strictly fewer points, removes the file, and renders byte-identical
// output to an uninterrupted run.
func TestChaosCheckpointResume(t *testing.T) {
	cleanCfg, cleanEng := chaosConfig(1)
	cleanRows, err := experiments.Table2(cleanCfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := experiments.RenderTable2(cleanRows)
	fullExecs := cleanEng.Snapshot().Execs

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "table2.ckpt")

	// Run 1: no retry budget, heavy faults — some points fail, the
	// completed ones are checkpointed. (Rarely every point survives a
	// 35% rate; retry with new seeds until the run actually fails.)
	var failed bool
	for seed := int64(1); seed <= 5; seed++ {
		activate(t, "sweep:0.35:error", seed)
		cfg, _ := chaosConfig(1)
		cfg.CheckpointDir = dir
		if _, err := experiments.Table2(cfg); err != nil {
			failed = true
			break
		}
		// Success removes the checkpoint; try a different seed.
		faults.Deactivate()
	}
	if !failed {
		t.Fatal("sweep never failed under 35% faults across 5 seeds")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after failed sweep: %v", err)
	}
	faults.Deactivate()

	// Run 2: faults off, same config and checkpoint dir — resumes.
	cfg2, eng2 := chaosConfig(1)
	cfg2.CheckpointDir = dir
	rows, err := experiments.Table2(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.RenderTable2(rows); got != clean {
		t.Errorf("resumed output differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s", clean, got)
	}
	// The resumed run must have recomputed only the missing points: its
	// engine executed strictly fewer measured runs than a full sweep.
	if resumed := eng2.Snapshot().Execs; resumed >= fullExecs {
		t.Errorf("resumed run executed %d sweeps, full run %d — checkpoint not used", resumed, fullExecs)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after successful resume: %v", err)
	}
}

// TestChaosDelayKindOnlySlows: delay faults change latency, never
// results.
func TestChaosDelayKindOnlySlows(t *testing.T) {
	cleanCfg, _ := chaosConfig(1)
	cleanRows, err := experiments.Table2(cleanCfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := experiments.RenderTable2(cleanRows)

	activate(t, "sweep:0.5:delay:100us,interp:0.3:delay:50us", 5)
	cfg, _ := chaosConfig(1)
	rows, err := experiments.Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.RenderTable2(rows); got != clean {
		t.Error("delay faults changed sweep results")
	}
}

// TestChaosStatsVisible: the injector's own accounting must reflect
// activity, so operators can verify a chaos run actually injected.
func TestChaosStatsVisible(t *testing.T) {
	// 0.25^20 per-point exhaustion odds keep this deterministic in
	// practice while still firing often enough to show up in Stats.
	inj, err := faults.Parse("sweep:0.25:error", 9)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(inj)
	t.Cleanup(faults.Deactivate)

	eng := sweep.New(sweep.Options{
		Workers: 2,
		Retry:   sweep.RetryPolicy{MaxAttempts: 20, BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond},
	})
	if _, err := sweep.Map(eng, 50, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	stats := inj.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Calls == 0 || stats[0].Fired == 0 {
		t.Errorf("injector saw no activity: %+v", stats[0])
	}
	if !strings.HasPrefix(stats[0].Site, "sweep") {
		t.Errorf("site = %q", stats[0].Site)
	}
}
