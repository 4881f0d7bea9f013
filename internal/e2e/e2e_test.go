// Package e2e boots the full hpfserve stack in-process and drives it
// through the public hpfclient — the same path an external consumer
// takes: client → HTTP → drain and concurrency gates → pipeline →
// response. It pins the end-to-end contracts no single-package test
// can: every route round-trips through the client types, traced
// requests return well-formed span trees, and a drained server leaks
// no goroutines. The server runs its default configuration throughout.
package e2e

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfperf"
	"hpfperf/hpfclient"
	"hpfperf/internal/faults"
	"hpfperf/internal/obs"
	"hpfperf/internal/server"
)

// laplace returns the suite's Laplace solver (block-X decomposition) —
// the paper's running example — at a modest size on 4 processors.
var laplace = sync.OnceValue(func() string {
	p, err := hpfperf.SuiteProgramByName("Laplace (Blk-X)")
	if err != nil {
		panic(err)
	}
	return p.Source(64, 4)
})

// harness is one in-process server plus a client pointed at it.
type harness struct {
	srv *server.Server
	ts  *httptest.Server
	cli *hpfclient.Client
}

func newHarness(t *testing.T, cfg server.Config, clientCfg hpfclient.Config) *harness {
	t.Helper()
	// The harness plays a trusted deployment where the client may read
	// the trace ring; hpfserve itself only mounts /v1/traces on the
	// isolated -debug-addr listener (server.TracesHandler).
	cfg.ExposeTraces = true
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	clientCfg.BaseURL = ts.URL
	return &harness{srv: srv, ts: ts, cli: hpfclient.New(clientCfg)}
}

// checkTree asserts the span-tree invariants the API promises: a tree
// is present, has a single root named for the route, no orphan spans,
// and no child outlives its parent's duration budget.
func checkTree(t *testing.T, tree *obs.Tree, wantRoot string) {
	t.Helper()
	if tree == nil || tree.Root == nil {
		t.Fatalf("no span tree on a traced %s response", wantRoot)
	}
	if tree.Orphans != 0 {
		t.Errorf("%s trace has %d orphan spans", wantRoot, tree.Orphans)
	}
	if tree.Root.Name != wantRoot {
		t.Errorf("root span = %q, want %q", tree.Root.Name, wantRoot)
	}
	spans := 0
	tree.Root.Walk(func(_ int, n *obs.Node) {
		spans++
		if n.DurUS < 0 {
			t.Errorf("span %s: negative duration %g", n.Name, n.DurUS)
		}
		// Children may run concurrently (autotune fans candidates out
		// over the worker pool), so their durations can sum past the
		// parent's wall time — but each must still fit inside the
		// parent's window (1% + 1us slack for clock granularity).
		end := n.StartUS + n.DurUS*1.01 + 1
		for _, c := range n.Children {
			if c.StartUS+1 < n.StartUS || c.StartUS+c.DurUS > end {
				t.Errorf("span %s [%.1f..%.1f]us escapes parent %s [%.1f..%.1f]us",
					c.Name, c.StartUS, c.StartUS+c.DurUS, n.Name, n.StartUS, n.StartUS+n.DurUS)
			}
		}
	})
	if spans != tree.Spans {
		t.Errorf("tree advertises %d spans, walk found %d", tree.Spans, spans)
	}
}

// TestAllRoutesThroughClient drives every API route through the traced
// client and checks each response's span tree.
func TestAllRoutesThroughClient(t *testing.T) {
	h := newHarness(t, server.Config{}, hpfclient.Config{Trace: true})
	ctx := context.Background()

	pr, err := h.cli.Predict(ctx, &hpfclient.PredictRequest{Source: laplace()})
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if pr.Procs != 4 || pr.EstUS <= 0 {
		t.Errorf("predict: procs=%d est=%g", pr.Procs, pr.EstUS)
	}
	checkTree(t, pr.Trace, "server.predict")

	mr, err := h.cli.Measure(ctx, &hpfclient.MeasureRequest{Source: laplace(), NoPerturb: true})
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if mr.MeasuredUS <= 0 {
		t.Errorf("measure: measured=%g", mr.MeasuredUS)
	}
	checkTree(t, mr.Trace, "server.measure")

	ar, err := h.cli.Autotune(ctx, &hpfclient.AutotuneRequest{Source: laplace(), Procs: 4})
	if err != nil {
		t.Fatalf("autotune: %v", err)
	}
	if len(ar.Candidates) == 0 {
		t.Error("autotune returned no candidates")
	}
	checkTree(t, ar.Trace, "server.autotune")

	nr, err := h.cli.Analyze(ctx, &hpfclient.AnalyzeRequest{Source: laplace()})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if nr.Diagnostics == nil {
		t.Error("analyze: diagnostics must be present (possibly empty)")
	}
	checkTree(t, nr.Trace, "server.analyze")

	// The four traced requests are all retrievable from the ring,
	// newest first.
	tr, err := h.cli.Traces(ctx)
	if err != nil {
		t.Fatalf("traces: %v", err)
	}
	if len(tr.Traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(tr.Traces))
	}
	wantRoutes := []string{"analyze", "autotune", "measure", "predict"}
	for i, rec := range tr.Traces {
		if rec.Route != wantRoutes[i] {
			t.Errorf("trace %d: route %q, want %q", i, rec.Route, wantRoutes[i])
		}
	}
}

// TestTracedPredictAccountsLatency is the end-to-end acceptance check:
// through the real client, the compile+interp span durations of a
// cache-miss Laplace predict sum to within 10% of the reported
// server-side latency.
func TestTracedPredictAccountsLatency(t *testing.T) {
	const tries = 5
	var last float64
	for attempt := 0; attempt < tries; attempt++ {
		h := newHarness(t, server.Config{}, hpfclient.Config{Trace: true})
		pr, err := h.cli.Predict(context.Background(), &hpfclient.PredictRequest{Source: laplace()})
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		checkTree(t, pr.Trace, "server.predict")
		var sum float64
		pr.Trace.Root.Walk(func(_ int, n *obs.Node) {
			if n.Name == "compile" || n.Name == "interp" {
				sum += n.DurUS
			}
		})
		if pr.ElapsedUS <= 0 {
			t.Fatalf("elapsed_us = %g", pr.ElapsedUS)
		}
		last = sum / pr.ElapsedUS
		if last >= 0.9 && last <= 1.01 {
			return
		}
	}
	t.Fatalf("compile+interp spans account for %.0f%% of request latency, want >= 90%%", last*100)
}

// TestClientRetriesUntilDrainRefusal: a draining server answers 503;
// the client classifies that as temporary and retries, then surfaces a
// structured APIError with correlation IDs intact.
func TestClientRetriesUntilDrainRefusal(t *testing.T) {
	h := newHarness(t, server.Config{}, hpfclient.Config{
		Retry: hpfclient.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := h.cli.Predict(ctx, &hpfclient.PredictRequest{Source: laplace()})
	if err == nil {
		t.Fatal("predict succeeded against a draining server")
	}
	apiErr, ok := err.(*hpfclient.APIError)
	if !ok {
		t.Fatalf("error type %T, want *APIError", err)
	}
	if apiErr.Status != 503 || apiErr.Stage != "overload" {
		t.Errorf("drain refusal = %d (%s), want 503 overload", apiErr.Status, apiErr.Stage)
	}
}

// TestNoGoroutineLeakAfterDrain: serve a traced workload, drain the
// server, and require the goroutine count to return to its baseline —
// the worker pool, queue waiters, and span bookkeeping must all stop.
func TestNoGoroutineLeakAfterDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	h := newHarness(t, server.Config{Workers: 4}, hpfclient.Config{Trace: true})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := h.cli.Predict(ctx, &hpfclient.PredictRequest{Source: laplace()}); err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
	}
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	h.ts.Close()

	// httptest teardown and idle HTTP keep-alives unwind asynchronously;
	// poll with a deadline instead of asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 { // allow the test framework's own helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after drain\n%s", before, now, firstLines(string(buf[:n]), 80))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// chaosRate mirrors the internal/chaos convention: HPFPERF_CHAOS_RATE
// scales the injection rate (default 0.01 here — light chaos; this is
// an e2e suite, not the dedicated chaos harness).
func chaosRate(t *testing.T) float64 {
	t.Helper()
	v := os.Getenv("HPFPERF_CHAOS_RATE")
	if v == "" {
		return 0.01
	}
	r, err := strconv.ParseFloat(v, 64)
	if err != nil || r < 0 || r > 1 {
		t.Fatalf("bad HPFPERF_CHAOS_RATE %q", v)
	}
	return r
}

// TestTracedWorkloadUnderChaos forces tracing on for every request
// while transient faults fire across the pipeline: the client's retry
// loop must absorb them, every surviving response must still carry a
// well-formed span tree, and the drained server must not leak
// goroutines. This is the CI e2e job's contract (tracing on + chaos).
func TestTracedWorkloadUnderChaos(t *testing.T) {
	rate := chaosRate(t)
	spec := fmt.Sprintf("server.predict:%g:error,interp:%g:error,sweep:%g:error", rate, rate, rate)
	inj, err := faults.Parse(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(inj)
	t.Cleanup(faults.Deactivate)

	before := runtime.NumGoroutine()
	h := newHarness(t,
		server.Config{TraceAll: true},
		hpfclient.Config{Trace: true, Retry: hpfclient.RetryPolicy{
			MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
		}})
	ctx := context.Background()

	const requests = 30
	failed := 0
	for i := 0; i < requests; i++ {
		pr, err := h.cli.Predict(ctx, &hpfclient.PredictRequest{Source: laplace()})
		if err != nil {
			failed++
			continue
		}
		checkTree(t, pr.Trace, "server.predict")
	}
	// Residual failures are those that exhausted 6 retry attempts; at
	// light rates that is vanishingly rare, so a third of the workload
	// is a generous budget even for the 10% chaos matrix entry.
	if failed > requests/3 {
		t.Errorf("%d/%d traced requests failed through retries at rate %g", failed, requests, rate)
	}

	// The ring survived the churn and holds well-formed trees.
	faults.Deactivate()
	tr, err := h.cli.Traces(ctx)
	if err != nil {
		t.Fatalf("traces: %v", err)
	}
	if len(tr.Traces) == 0 {
		t.Fatal("no traces recorded under chaos")
	}
	for _, rec := range tr.Traces {
		if rec.Status == 200 {
			checkTree(t, rec.Tree, "server.predict")
		}
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	h.ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after chaos drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
