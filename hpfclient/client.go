// Package hpfclient is the Go client for the hpfserve HTTP API. It
// wraps the /v1 endpoints with context-aware retries: transient
// failures — network errors, 429 shed responses, 503 overload, drain
// and injected-fault rejections, 502s from intermediaries — are
// retried with full-jitter exponential backoff, honoring the server's
// Retry-After header when present. Permanent failures (4xx client
// errors, 500 internal errors, 504 deadline expiries) surface
// immediately as *APIError: hpfserve's pipeline is deterministic, so a
// 500 (a real panic) repeats for the same input.
package hpfclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hpfperf/internal/server"
)

// Re-exported request/response types so callers need not import the
// internal server package (which they cannot, from outside the module).
type (
	// PredictRequest is the body of POST /v1/predict.
	PredictRequest = server.PredictRequest
	// PredictResponse is the body of a successful predict call.
	PredictResponse = server.PredictResponse
	// PredictOptions selects the model options of one request.
	PredictOptions = server.PredictOptions
	// MeasureRequest is the body of POST /v1/measure.
	MeasureRequest = server.MeasureRequest
	// MeasureResponse is the body of a successful measure call.
	MeasureResponse = server.MeasureResponse
	// AutotuneRequest is the body of POST /v1/autotune.
	AutotuneRequest = server.AutotuneRequest
	// AutotuneResponse is the body of a successful autotune call.
	AutotuneResponse = server.AutotuneResponse
	// AnalyzeRequest is the body of POST /v1/analyze.
	AnalyzeRequest = server.AnalyzeRequest
	// AnalyzeResponse is the body of a successful analyze call.
	AnalyzeResponse = server.AnalyzeResponse
	// BatchRequest is the body of POST /v1/batch.
	BatchRequest = server.BatchRequest
	// BatchPoint is one predict-or-measure point of a batch.
	BatchPoint = server.BatchPoint
	// BatchResponse is the body of a successful batch call.
	BatchResponse = server.BatchResponse
	// BatchResult is one point's outcome within a batch response.
	BatchResult = server.BatchResult
	// BatchPointError is the isolated failure object of one batch point.
	BatchPointError = server.BatchPointError
	// HealthResponse is the body of GET /healthz.
	HealthResponse = server.HealthResponse
	// TracesResponse is the body of GET /v1/traces.
	TracesResponse = server.TracesResponse
)

// APIError is a non-2xx response from hpfserve.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Stage is the server-reported pipeline stage ("compile",
	// "overload", "transient", ...). Empty when the body was not a
	// structured error.
	Stage string
	// Message is the server-reported error text.
	Message string

	// retryAfter is the server-advertised Retry-After wait (0 = none);
	// advice for the retry loop, not part of the error's identity.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("hpfserve: %d (%s): %s", e.Status, e.Stage, e.Message)
	}
	return fmt.Sprintf("hpfserve: %d: %s", e.Status, e.Message)
}

// Temporary reports whether the request is worth retrying: the server
// shed it (429), refused it while overloaded or draining (503), or an
// intermediary failed (502). 500s are real pipeline failures and 504s
// already consumed the request's deadline, so neither is temporary.
func (e *APIError) Temporary() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// RetryPolicy bounds the client-side retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// 0 means DefaultRetryPolicy's value; 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (full jitter).
	BaseDelay time.Duration
	// MaxDelay caps both the computed backoff and any server-advertised
	// Retry-After wait.
	MaxDelay time.Duration
	// MaxElapsed is the total retry budget measured from the first
	// attempt: once exceeded, no further retry is scheduled and the
	// last error returns. 0 means DefaultRetryPolicy's value; negative
	// disables the budget (attempts alone bound the loop).
	MaxElapsed time.Duration
}

// DefaultRetryPolicy retries up to 4 attempts with 100ms..2s backoff
// inside a 15s total budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		MaxElapsed:  15 * time.Second,
	}
}

func (p RetryPolicy) normalized() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = d.MaxDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	if p.MaxElapsed == 0 {
		p.MaxElapsed = d.MaxElapsed
	}
	if p.MaxElapsed < 0 {
		p.MaxElapsed = 0 // negative sentinel: no total budget
	}
	return p
}

// backoff returns a full-jitter delay for the given retry (1-based).
func (p RetryPolicy) backoff(retry int) time.Duration {
	max := p.BaseDelay << uint(retry-1)
	if max > p.MaxDelay || max <= 0 {
		max = p.MaxDelay
	}
	return time.Duration(rand.Int64N(int64(max)) + 1)
}

// Config configures a Client.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient is the transport (nil = a client with a 60s timeout).
	HTTPClient *http.Client
	// Retry bounds the retry loop (zero value = DefaultRetryPolicy).
	Retry RetryPolicy
	// Trace opts every request into server-side tracing (the X-HPF-Trace
	// header): responses carry their span tree in the trace field.
	Trace bool
}

// Client talks to one hpfserve instance.
type Client struct {
	base  string
	hc    *http.Client
	sc    *http.Client // hc without the overall timeout, for SSE streams
	retry RetryPolicy
	trace bool
}

// New returns a client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	// http.Client.Timeout covers the whole body read, which would cut a
	// long-lived event stream mid-job; streaming uses the same transport
	// without it (the stream is bounded by ctx and server heartbeats).
	sc := &http.Client{
		Transport:     hc.Transport,
		CheckRedirect: hc.CheckRedirect,
		Jar:           hc.Jar,
	}
	return &Client{
		base:  strings.TrimRight(cfg.BaseURL, "/"),
		hc:    hc,
		sc:    sc,
		retry: cfg.Retry.normalized(),
		trace: cfg.Trace,
	}
}

// Predict calls POST /v1/predict.
func (c *Client) Predict(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	var resp PredictResponse
	if err := c.do(ctx, "/v1/predict", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Measure calls POST /v1/measure.
func (c *Client) Measure(ctx context.Context, req *MeasureRequest) (*MeasureResponse, error) {
	var resp MeasureResponse
	if err := c.do(ctx, "/v1/measure", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Autotune calls POST /v1/autotune.
func (c *Client) Autotune(ctx context.Context, req *AutotuneRequest) (*AutotuneResponse, error) {
	var resp AutotuneResponse
	if err := c.do(ctx, "/v1/autotune", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch calls POST /v1/batch: many predict/measure points in one
// request. Points sharing a source share one compile on the server,
// the whole batch passes cost admission in a single decision, and each
// point fails in isolation (inspect per-point Error objects in the
// results — a non-nil error here means the batch itself was refused).
func (c *Client) Batch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	var resp BatchResponse
	if err := c.do(ctx, "/v1/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Analyze calls POST /v1/analyze.
func (c *Client) Analyze(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	var resp AnalyzeResponse
	if err := c.do(ctx, "/v1/analyze", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health calls GET /healthz. A draining server answers 503 with a
// valid body; that is returned as a response, not an error.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer drain(hresp.Body)
	var out HealthResponse
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 1<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("healthz: decoding %d response: %w", hresp.StatusCode, err)
	}
	return &out, nil
}

// Traces calls GET /v1/traces: the server's ring of recent request
// traces, newest first. Against an hpfserve daemon the endpoint lives
// on the -debug-addr listener, not the API address — point BaseURL
// there (embedded servers may opt into server.Config.ExposeTraces
// instead).
func (c *Client) Traces(ctx context.Context) (*TracesResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/traces", nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer drain(hresp.Body)
	lr := io.LimitReader(hresp.Body, 8<<20)
	if hresp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(lr)
		return nil, &APIError{Status: hresp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	var out TracesResponse
	if err := json.NewDecoder(lr).Decode(&out); err != nil {
		return nil, fmt.Errorf("traces: decoding response: %w", err)
	}
	return &out, nil
}

// do POSTs req as JSON to path, retrying temporary failures, and
// decodes a 200 body into out.
func (c *Client) do(ctx context.Context, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	start := time.Now()
	var last error
	for attempt := 1; ; attempt++ {
		last = c.once(ctx, path, body, out)
		if last == nil || attempt >= c.retry.MaxAttempts || !retryable(last) {
			return last
		}
		wait := c.retry.backoff(attempt)
		var ae *APIError
		if errors.As(last, &ae) && ae.retryAfter > 0 {
			// Honor the server's advice, plus up to 25% additive jitter
			// so a herd shed at the same instant does not return in
			// lockstep, still capped by MaxDelay.
			wait = ae.retryAfter + time.Duration(rand.Int64N(int64(ae.retryAfter)/4+1))
			if wait > c.retry.MaxDelay {
				wait = c.retry.MaxDelay
			}
		}
		// A sleep that overruns the total retry budget or the request
		// deadline cannot lead to another attempt; return now instead
		// of burning the caller's time.
		if c.retry.MaxElapsed > 0 && time.Since(start)+wait > c.retry.MaxElapsed {
			return last
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= wait {
			return last
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return last
		}
	}
}

func (c *Client) once(ctx context.Context, path string, body []byte, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.trace {
		hreq.Header.Set("X-HPF-Trace", "1")
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		// Network-level failure: retryable unless the context ended.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &netError{err: err}
	}
	defer drain(hresp.Body)
	lr := io.LimitReader(hresp.Body, 8<<20)
	if hresp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(lr).Decode(out); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
		return nil
	}
	return readAPIError(hresp.StatusCode, parseRetryAfter(hresp.Header.Get("Retry-After")), lr)
}

// netError wraps a transport failure so the retry loop can tell it
// apart from encode/decode bugs (which retrying cannot fix).
type netError struct{ err error }

func (e *netError) Error() string   { return e.err.Error() }
func (e *netError) Unwrap() error   { return e.err }
func (e *netError) Temporary() bool { return true }

func retryable(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// parseRetryAfter reads a Retry-After header value: integer seconds or
// an HTTP date. Returns 0 when absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func drain(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	_ = rc.Close()
}
