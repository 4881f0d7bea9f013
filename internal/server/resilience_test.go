package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfperf/internal/faults"
	"hpfperf/internal/sweep"
)

const tinyProgram = `      PROGRAM TINY
!HPF$ PROCESSORS P(4)
      REAL A(32)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
      A = 1.0
      PRINT *, A(1)
      END PROGRAM TINY
`

func withServerFaults(t *testing.T, spec string, seed int64) {
	t.Helper()
	inj, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(inj)
	t.Cleanup(faults.Deactivate)
}

// TestQueueFullShedsImmediately pins the load-shedding satellite: with
// one worker slot and queue depth 1, a third concurrent request must be
// shed at once with 429 + Retry-After and counted in hpfserve_shed_total
// (not in the drain/abandon counter).
func TestQueueFullShedsImmediately(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueueDepth: 1,
		QueueWait:     5 * time.Second,
	})

	// Fire four concurrent slow requests at a gate with one slot and
	// one queue seat: one runs, one queues, the surplus must be shed
	// immediately (not held for QueueWait — the 5s budget vs. the
	// ~700ms a slow request takes bounds the distinction).
	const concurrent = 4
	slow := map[string]any{"source": bigSource(60), "runs": 2}
	type outcome struct {
		resp *http.Response
		body []byte
	}
	results := make(chan outcome, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/measure", slow)
			results <- outcome{resp, body}
		}()
	}
	wg.Wait()
	close(results)

	shed := 0
	for out := range results {
		if out.resp.StatusCode != http.StatusTooManyRequests {
			continue
		}
		shed++
		if ra := out.resp.Header.Get("Retry-After"); ra == "" {
			t.Error("shed response missing Retry-After")
		}
		var er ErrorResponse
		if err := json.Unmarshal(out.body, &er); err != nil || er.Stage != "overload" {
			t.Errorf("shed body = %s (stage %q), want overload stage", out.body, er.Stage)
		}
	}
	if shed == 0 {
		t.Fatal("gate never shed a request with slot and queue both full")
	}

	metricsBody := string(mustReadAll(t, ts.URL+"/metrics"))
	if !strings.Contains(metricsBody, "hpfserve_shed_total") {
		t.Fatalf("metrics missing shed counter:\n%s", metricsBody)
	}
	for _, line := range strings.Split(metricsBody, "\n") {
		if strings.HasPrefix(line, "hpfserve_shed_total ") {
			if strings.TrimPrefix(line, "hpfserve_shed_total ") == "0" {
				t.Errorf("shed counter is zero after a 429: %s", line)
			}
		}
	}
}

func mustReadAll(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestQueueWaitExpiryShed: a queued request whose wait expires is shed
// with 429 (not left hanging and not 503).
func TestQueueWaitExpiryShed(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueueDepth: 4,
		QueueWait:     50 * time.Millisecond,
	})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Hold the only slot long enough for the probe's wait to expire.
		resp, _ := post(t, ts.URL+"/v1/measure", map[string]any{"source": bigSource(80), "runs": 3})
		resp.Body.Close()
		close(release)
	}()
	time.Sleep(30 * time.Millisecond) // let the slow request take the slot
	resp, body := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
	if resp.StatusCode == http.StatusOK {
		t.Skip("slow request finished before the probe queued; nothing to assert")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-expiry shed missing Retry-After")
	}
	<-release
	wg.Wait()
}

// TestRepeatedPanicsDoNotShedRoute: a failure belongs to its input,
// not to the route. With the default configuration, a long run of
// consecutive 500s on /v1/predict must not change how later requests
// are answered: every predict fails with 500 on its own merits,
// /v1/analyze keeps answering 200 meanwhile, and once the fault is gone
// the very next predict succeeds with no 503 shedding in between.
func TestRepeatedPanicsDoNotShedRoute(t *testing.T) {
	const failures = 12
	withServerFaults(t, "server.predict:1:panic", 1)
	_, ts := newTestServer(t, Config{})
	body := map[string]any{"source": tinyProgram}

	for i := 0; i < failures; i++ {
		resp, raw := post(t, ts.URL+"/v1/predict", body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("predict %d: status = %d body %s, want 500", i, resp.StatusCode, raw)
		}
		var er ErrorResponse
		if json.Unmarshal(raw, &er) != nil || er.Stage != "internal" {
			t.Fatalf("predict %d: body = %s, want internal stage", i, raw)
		}
		if resp, raw := post(t, ts.URL+"/v1/analyze", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze after %d predict 500s: status = %d body %s, want 200", i+1, resp.StatusCode, raw)
		}
	}

	faults.Deactivate()
	if resp, raw := post(t, ts.URL+"/v1/predict", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after faults off: status = %d body %s, want 200", resp.StatusCode, raw)
	}
	metrics := string(mustReadAll(t, ts.URL+"/metrics"))
	if !strings.Contains(metrics, fmt.Sprintf("hpfserve_panics_total %d\n", failures)) {
		t.Errorf("panics not counted once per request:\n%s", grepLines(metrics, "panics"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestTypedPanicClassification is the satellite fix for the brittle
// strings.Contains(err.Error(), "internal panic") match: a wrapped
// *sweep.PanicError classifies as 500 internal, while an ordinary error
// whose text merely contains "internal panic" does not.
func TestTypedPanicClassification(t *testing.T) {
	pe := fmt.Errorf("interpret: %w", &sweep.PanicError{Stage: "interpret tiny", Value: "boom"})
	aerr := ctxErr(pe, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusInternalServerError || aerr.stage != "internal" {
		t.Errorf("typed panic → %d %q, want 500 internal", aerr.status, aerr.stage)
	}

	impostor := errors.New(`user program printed "internal panic: oops"`)
	aerr = ctxErr(impostor, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusUnprocessableEntity || aerr.stage != "interpret" {
		t.Errorf("impostor text → %d %q, want fallback 422 interpret", aerr.status, aerr.stage)
	}

	tr := fmt.Errorf("point: %w", &faults.InjectedError{Site: "sweep"})
	aerr = ctxErr(tr, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusServiceUnavailable || aerr.stage != "transient" {
		t.Errorf("transient → %d %q, want 503 transient", aerr.status, aerr.stage)
	}

	dl := fmt.Errorf("sweep: %w", context.DeadlineExceeded)
	aerr = ctxErr(dl, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusGatewayTimeout || aerr.stage != "deadline" {
		t.Errorf("deadline → %d %q, want 504 deadline", aerr.status, aerr.stage)
	}
}

// TestInjectedServerPanicRecovered: the panic fault kind exercises the
// handler's recover path end to end and is counted in /metrics.
func TestInjectedServerPanicRecovered(t *testing.T) {
	withServerFaults(t, "server.analyze:1:panic", 3)
	_, ts := newTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/analyze", map[string]any{"source": tinyProgram})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d body %s, want 500 from injected panic", resp.StatusCode, raw)
	}
	var er ErrorResponse
	if json.Unmarshal(raw, &er) != nil || er.Stage != "internal" {
		t.Errorf("body = %s, want internal stage", raw)
	}
	metrics := string(mustReadAll(t, ts.URL+"/metrics"))
	if strings.Contains(metrics, "hpfserve_panics_total 0\n") {
		t.Error("injected panic not counted in hpfserve_panics_total")
	}
	// The server survives: faults off, the same route works.
	faults.Deactivate()
	if resp, raw := post(t, ts.URL+"/v1/analyze", map[string]any{"source": tinyProgram}); resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d body %s after recovery", resp.StatusCode, raw)
	}
}

// TestDrainRejectionAdvertisesRetryAfter: the drain refusal is an
// overload signal clients may retry against a peer, so it carries
// Retry-After now.
func TestDrainRejectionAdvertisesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body %s, want 503 while draining", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain rejection missing Retry-After")
	}
	var er ErrorResponse
	if json.Unmarshal(raw, &er) != nil || er.Stage != "overload" {
		t.Errorf("drain body = %s, want overload stage", raw)
	}
}

// TestRefusalsCarryCorrelationIDs is the regression test for the
// request-ID gap: shed (429) and drain (503) refusals used to omit
// request_id/trace_id, leaving refused requests uncorrelatable with
// server logs. Every refusal path, and an internal failure (500), must
// now carry both fields in the body and the X-HPF-Request-Id header.
func TestRefusalsCarryCorrelationIDs(t *testing.T) {
	checkIDs := func(t *testing.T, resp *http.Response, raw []byte) {
		t.Helper()
		if resp.Header.Get("X-HPF-Request-Id") == "" {
			t.Error("refusal missing X-HPF-Request-Id header")
		}
		if resp.Header.Get("traceparent") == "" {
			t.Error("refusal missing traceparent header")
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("refusal body not JSON: %v: %s", err, raw)
		}
		if er.RequestID == "" {
			t.Errorf("refusal body missing request_id: %s", raw)
		}
		if er.TraceID == "" {
			t.Errorf("refusal body missing trace_id: %s", raw)
		}
		if got := resp.Header.Get("X-HPF-Request-Id"); got != er.RequestID {
			t.Errorf("header request ID %q != body request_id %q", got, er.RequestID)
		}
	}

	t.Run("shed-429", func(t *testing.T) {
		_, ts := newTestServer(t, Config{
			MaxConcurrent: 1,
			MaxQueueDepth: 1,
			QueueWait:     5 * time.Second,
		})
		slow := map[string]any{"source": bigSource(60), "runs": 2}
		type outcome struct {
			resp *http.Response
			body []byte
		}
		const concurrent = 4
		results := make(chan outcome, concurrent)
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := post(t, ts.URL+"/v1/measure", slow)
				results <- outcome{resp, body}
			}()
		}
		wg.Wait()
		close(results)
		shed := 0
		for out := range results {
			if out.resp.StatusCode != http.StatusTooManyRequests {
				continue
			}
			shed++
			checkIDs(t, out.resp, out.body)
		}
		if shed == 0 {
			t.Fatal("gate never shed a request; cannot assert the 429 path")
		}
	})

	t.Run("internal-500", func(t *testing.T) {
		withServerFaults(t, "server.predict:1:error", 7)
		_, ts := newTestServer(t, Config{})
		resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status = %d body %s, want 500", resp.StatusCode, raw)
		}
		checkIDs(t, resp, raw)
	})

	t.Run("drain-503", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d body %s, want 503 while draining", resp.StatusCode, raw)
		}
		checkIDs(t, resp, raw)
	})

	t.Run("method-not-allowed-405", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		resp, err := http.Get(ts.URL + "/v1/predict")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
		checkIDs(t, resp, raw)
	})
}
