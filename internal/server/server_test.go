package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bigSource returns a Laplace-style program whose simulated execution
// runs long enough to be mid-sweep when a short deadline fires.
func bigSource(iters int) string {
	return fmt.Sprintf(`      PROGRAM BIG
!HPF$ PROCESSORS P(4)
      REAL U(64,64), V(64,64)
!HPF$ TEMPLATE T(64,64)
!HPF$ ALIGN U WITH T
!HPF$ ALIGN V WITH T
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
      INTEGER I
      U = 1.0
      V = 0.0
      DO I = 1, %d
        V(2:63,2:63) = 0.25 * (U(1:62,2:63) + U(3:64,2:63) + U(2:63,1:62) + U(2:63,3:64))
        U = V
      END DO
      PRINT *, U(32,32)
      END PROGRAM BIG
`, iters)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestPredictHandlerTable(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 16 << 10})

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantStage  string
	}{
		{"empty body", ``, http.StatusBadRequest, "decode"},
		{"invalid json", `{`, http.StatusBadRequest, "decode"},
		{"unknown field", `{"sauce":"x"}`, http.StatusBadRequest, "decode"},
		{"missing source", `{"machine":"ipsc860"}`, http.StatusBadRequest, "decode"},
		{"bad machine", `{"source":"x","machine":"cray"}`, http.StatusBadRequest, "decode"},
		{"bad source", `{"source":"this is not fortran"}`, http.StatusBadRequest, "compile"},
		{"oversized body", `{"source":"` + strings.Repeat("x", 20<<10) + `"}`, http.StatusRequestEntityTooLarge, "decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body: %v", err)
			}
			if e.Stage != tc.wantStage {
				t.Errorf("stage = %q (%s), want %q", e.Stage, e.Error, tc.wantStage)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/predict")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

func TestPredictSuccess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: bigSource(10), HotLines: 2, Profile: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pr.Program != "BIG" || pr.Procs != 4 {
		t.Errorf("program/procs = %q/%d, want BIG/4", pr.Program, pr.Procs)
	}
	if pr.EstUS <= 0 || pr.Seconds <= 0 {
		t.Errorf("est = %v us / %v s, want positive", pr.EstUS, pr.Seconds)
	}
	if pr.Profile == "" || pr.HotLines == "" {
		t.Errorf("profile/hot_lines missing from response")
	}
}

func TestMeasureDeadlineMidSweep(t *testing.T) {
	// A 1ms deadline on a multi-second simulation must return a timeout
	// error promptly instead of hanging until the sweep completes.
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/measure", MeasureRequest{Source: bigSource(2000), TimeoutMS: 1})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if e.Stage != "deadline" {
		t.Errorf("stage = %q, want deadline", e.Stage)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timeout took %v; cancellation is not cooperative", elapsed)
	}
}

func TestPredictDeadline(t *testing.T) {
	// Interpretation + calibration under a zero-ish budget must also
	// honor the deadline (the interpreter loop checks ctx).
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, aerr := s.handlePredict(ctx, []byte(`{"source":"`+`x`+`"}`))
	if aerr == nil {
		t.Fatal("want error from cancelled ctx")
	}
}

func TestConcurrentIdenticalRequestsSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := bigSource(5)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(PredictRequest{Source: src})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	snap := s.Engine().Snapshot()
	if snap.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 (single-flight)", snap.Compiles)
	}
	if snap.Interps != 1 {
		t.Errorf("interps = %d, want 1 (report cache single-flight)", snap.Interps)
	}
	if snap.ReportHits < n-1 {
		t.Errorf("report hits = %d, want >= %d", snap.ReportHits, n-1)
	}
}

func TestEndToEndPredictAutotuneFlow(t *testing.T) {
	// The interactive workflow of §5.2: predict a program, search for a
	// better distribution, then predict the recommended variant and
	// confirm it is no slower.
	_, ts := newTestServer(t, Config{})
	src := bigSource(10)

	resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, body)
	}
	var before PredictResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatalf("decode: %v", err)
	}

	resp, body = post(t, ts.URL+"/v1/autotune", AutotuneRequest{Source: src, Procs: 4, IncludeSource: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("autotune: status %d: %s", resp.StatusCode, body)
	}
	var at AutotuneResponse
	if err := json.Unmarshal(body, &at); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(at.Candidates) == 0 || at.BestSource == "" {
		t.Fatalf("autotune returned no candidates or no source: %s", body)
	}

	resp, body = post(t, ts.URL+"/v1/predict", PredictRequest{Source: at.BestSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict best: status %d: %s", resp.StatusCode, body)
	}
	var after PredictResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if after.EstUS > before.EstUS*1.0001 {
		t.Errorf("recommended variant slower: %v us > %v us", after.EstUS, before.EstUS)
	}
	if after.EstUS != at.Candidates[0].EstUS {
		t.Errorf("predict of best source (%v us) disagrees with autotune rank (%v us)",
			after.EstUS, at.Candidates[0].EstUS)
	}
}

func TestMeasureSuccessAndDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MeasureRequest{Source: bigSource(3), NoPerturb: true}
	_, body1 := post(t, ts.URL+"/v1/measure", req)
	_, body2 := post(t, ts.URL+"/v1/measure", req)
	var m1, m2 MeasureResponse
	if err := json.Unmarshal(body1, &m1); err != nil {
		t.Fatalf("decode: %v (%s)", err, body1)
	}
	if err := json.Unmarshal(body2, &m2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m1.MeasuredUS <= 0 {
		t.Errorf("measured = %v, want positive", m1.MeasuredUS)
	}
	if m1.MeasuredUS != m2.MeasuredUS {
		t.Errorf("noise-free runs differ: %v vs %v", m1.MeasuredUS, m2.MeasuredUS)
	}
	if len(m1.Printed) == 0 {
		t.Errorf("no program output captured")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}

	post(t, ts.URL+"/v1/predict", PredictRequest{Source: bigSource(5)})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`hpfserve_requests_total{route="predict",code="200"} 1`,
		`hpfserve_request_duration_seconds_count{route="predict"} 1`,
		`sweep_cache_evictions_total{kind="compile"} 0`,
		`sweep_cache_evictions_total{kind="report"} 0`,
		`sweep_stage_runs_total{stage="compile"} 1`,
		`hpfserve_inflight_requests 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	_ = s
}

func TestDrainRefusesNewRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: "x"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 during drain", resp.StatusCode, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz status = %d, want 503 during drain", hresp.StatusCode)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	// A slow request admitted before Shutdown must complete; Shutdown
	// must block until it does.
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(MeasureRequest{Source: bigSource(50), NoPerturb: true})
		close(started)
		resp, err := http.Post(ts.URL+"/v1/measure", "application/json", bytes.NewReader(raw))
		if err != nil {
			result <- -1
			return
		}
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	<-started
	// Wait until the request is admitted: /healthz counts it in flight.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		var h HealthResponse
		if err := json.Unmarshal(mustReadAll(t, ts.URL+"/healthz"), &h); err != nil {
			t.Fatal(err)
		}
		if h.Inflight == 1 {
			break
		}
		select {
		case code := <-result:
			t.Fatalf("request finished with %d before it was seen in flight", code)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if code := <-result; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}
}

// okCounter counts the 200 responses its handler writes.
type okCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w okCounter) WriteHeader(code int) {
	if code == http.StatusOK {
		w.n.Add(1)
	}
	w.ResponseWriter.WriteHeader(code)
}

// TestShutdownRacesAdmission races concurrent requests against
// Shutdown and asserts the drain ordering: each request is either
// served (200) or refused as draining (503), and every handler that
// served a 200 wrote it before Shutdown returned — a request admitted
// while Shutdown waits must be waited for.
func TestShutdownRacesAdmission(t *testing.T) {
	const n = 16
	s := New(Config{})
	var written atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(okCounter{w, &written}, r)
	}))
	t.Cleanup(ts.Close)

	type outcome struct {
		code int
		body []byte
		err  error
	}
	out := make([]outcome, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(MeasureRequest{Source: bigSource(4), Seed: int64(i + 1)})
			<-start
			resp, err := http.Post(ts.URL+"/v1/measure", "application/json", bytes.NewReader(raw))
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, out[i].err = buf.ReadFrom(resp.Body)
			out[i].code, out[i].body = resp.StatusCode, buf.Bytes()
		}(i)
	}
	close(start)
	// Shut down once the first request is in flight, so admissions and
	// refusals interleave with the drain.
	for deadline := time.Now().Add(10 * time.Second); s.met.inflight.Load() == 0 && written.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	servedBeforeShutdown := written.Load()
	wg.Wait()

	served := int64(0)
	for i, o := range out {
		switch {
		case o.err != nil:
			t.Errorf("request %d: %v", i, o.err)
		case o.code == http.StatusOK:
			served++
		case o.code == http.StatusServiceUnavailable:
			var er ErrorResponse
			if json.Unmarshal(o.body, &er) != nil || er.Error != "server is draining" {
				t.Errorf("request %d: 503 body %s, want a drain refusal", i, o.body)
			}
		default:
			t.Errorf("request %d: status %d body %s, want 200 or 503", i, o.code, o.body)
		}
	}
	t.Logf("%d of %d requests served, the rest refused", served, n)
	if served != servedBeforeShutdown {
		t.Errorf("%d requests served, %d of them before Shutdown returned", served, servedBeforeShutdown)
	}
}

func TestConcurrencyGateBounds(t *testing.T) {
	// With MaxConcurrent=1, two slow requests serialize; both succeed.
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(MeasureRequest{Source: bigSource(20), NoPerturb: true})
			resp, err := http.Post(ts.URL+"/v1/measure", "application/json", bytes.NewReader(raw))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d: status %d, want 200", i, c)
		}
	}
}
