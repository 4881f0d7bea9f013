// Package server implements hpfserve, the long-running HTTP/JSON
// prediction service over the interpretation framework. The paper
// frames performance interpretation as an interactive tool — users
// query predictions per source line and per directive variant during
// development (§4.2, §5.2) — and this package is the serving stack for
// that workflow: POST /v1/predict (interpret), /v1/measure (simulated
// execution), /v1/autotune (directive search), with a bounded LRU
// compile/report cache, per-request deadlines and cooperative
// cancellation, a concurrency gate, request-size caps, panic recovery
// and graceful drain.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/obs"
	"hpfperf/internal/sem"
)

// ResponseMeta carries the per-request correlation identifiers (and,
// when the client opted in with X-HPF-Trace: 1, the span tree) on every
// success response. It is embedded in each response type.
type ResponseMeta struct {
	// RequestID uniquely identifies this request in the server logs.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the request's W3C trace ID (client-supplied via
	// traceparent, or minted by the server).
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the request's span tree (only with X-HPF-Trace: 1).
	Trace *obs.Tree `json:"trace,omitempty"`
}

func (m *ResponseMeta) setMeta(reqID, traceID string, tree *obs.Tree) {
	m.RequestID = reqID
	m.TraceID = traceID
	m.Trace = tree
}

// metaSetter is what api() uses to stamp correlation IDs onto a
// handler's response without knowing its concrete type.
type metaSetter interface {
	setMeta(reqID, traceID string, tree *obs.Tree)
}

// PredictOptions selects the model options of one interpretation
// request (the JSON mirror of core.Options plus compile options).
type PredictOptions struct {
	// NoMemoryModel disables the SAU memory-hierarchy model.
	NoMemoryModel bool `json:"no_memory_model,omitempty"`
	// AverageLoad charges the mean instead of the max-loaded processor.
	AverageLoad bool `json:"average_load,omitempty"`
	// MaskDensity is the assumed FORALL/WHERE mask truth density (0 = 1.0).
	MaskDensity float64 `json:"mask_density,omitempty"`
	// BranchProb is the assumed THEN probability of unresolved branches.
	BranchProb float64 `json:"branch_prob,omitempty"`
	// SimpleCommModel collapses the piecewise communication models.
	SimpleCommModel bool `json:"simple_comm_model,omitempty"`
	// NoCommOpt disables redundant-communication elimination.
	NoCommOpt bool `json:"no_comm_opt,omitempty"`
	// NoLoopReorder disables cache-locality loop re-ordering.
	NoLoopReorder bool `json:"no_loop_reorder,omitempty"`
	// TripCounts supplies loop trip counts by source line.
	TripCounts map[int]int `json:"trip_counts,omitempty"`
	// IntValues supplies integer critical-variable values.
	IntValues map[string]int64 `json:"int_values,omitempty"`
}

func (o *PredictOptions) compilerOptions() compiler.Options {
	if o == nil {
		return compiler.Options{}
	}
	return compiler.Options{NoCommOpt: o.NoCommOpt, NoLoopReorder: o.NoLoopReorder}
}

func (o *PredictOptions) coreOptions() core.Options {
	opts := core.DefaultOptions()
	if o == nil {
		return opts
	}
	opts.MemoryModel = !o.NoMemoryModel
	if o.AverageLoad {
		opts.LoadModel = core.Average
	}
	if o.MaskDensity > 0 {
		opts.MaskDensity = o.MaskDensity
	}
	if o.BranchProb > 0 {
		opts.BranchProb = o.BranchProb
	}
	opts.SimpleCommModel = o.SimpleCommModel
	opts.TripCounts = o.TripCounts
	if len(o.IntValues) > 0 {
		opts.Values = make(map[string]sem.Value, len(o.IntValues))
		for k, v := range o.IntValues {
			opts.Values[k] = sem.IntVal(v)
		}
	}
	return opts
}

// PredictRequest is the body of POST /v1/predict.
type PredictRequest struct {
	// Source is the HPF/Fortran 90D program text (required).
	Source string `json:"source"`
	// Machine selects the target system abstraction ("" = ipsc860).
	Machine string `json:"machine,omitempty"`
	// TimeoutMS caps this request's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Options configure the interpretation model.
	Options *PredictOptions `json:"options,omitempty"`
	// Profile includes the rendered performance profile in the response.
	Profile bool `json:"profile,omitempty"`
	// HotLines includes the N hottest source lines in the response.
	HotLines int `json:"hot_lines,omitempty"`
}

// PredictResponse is the body of a successful predict call.
type PredictResponse struct {
	ResponseMeta
	Program  string   `json:"program"`
	Procs    int      `json:"procs"`
	EstUS    float64  `json:"est_us"`
	Seconds  float64  `json:"seconds"`
	CompUS   float64  `json:"comp_us"`
	CommUS   float64  `json:"comm_us"`
	OvhdUS   float64  `json:"ovhd_us"`
	Warnings []string `json:"warnings,omitempty"`
	Profile  string   `json:"profile,omitempty"`
	HotLines string   `json:"hot_lines,omitempty"`
	// ElapsedUS is the server-side wall time spent on this request.
	ElapsedUS float64 `json:"elapsed_us"`
}

// MeasureRequest is the body of POST /v1/measure.
type MeasureRequest struct {
	Source    string  `json:"source"`
	Machine   string  `json:"machine,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	Runs      int     `json:"runs,omitempty"`
	Perturb   float64 `json:"perturb,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// NoCacheModel disables the simulator's cache model.
	NoCacheModel bool `json:"no_cache_model,omitempty"`
	// NoPerturb forces noise-free deterministic runs.
	NoPerturb bool `json:"no_perturb,omitempty"`
}

// MeasureResponse is the body of a successful measure call.
type MeasureResponse struct {
	ResponseMeta
	Program    string    `json:"program"`
	Procs      int       `json:"procs"`
	MeasuredUS float64   `json:"measured_us"`
	Seconds    float64   `json:"seconds"`
	RunsUS     []float64 `json:"runs_us,omitempty"`
	PerNodeUS  []float64 `json:"per_node_us,omitempty"`
	Printed    []string  `json:"printed,omitempty"`
	ElapsedUS  float64   `json:"elapsed_us"`
}

// AutotuneRequest is the body of POST /v1/autotune.
type AutotuneRequest struct {
	Source    string `json:"source"`
	Procs     int    `json:"procs"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	NoCyclic  bool   `json:"no_cyclic,omitempty"`
	// Options configure the interpretation of each variant.
	Options *PredictOptions `json:"options,omitempty"`
	// IncludeSource returns the rewritten program of the best variant.
	IncludeSource bool `json:"include_source,omitempty"`
	// Limit truncates the ranked list (0 = all variants).
	Limit int `json:"limit,omitempty"`
}

// AutotuneCandidate is one ranked directive variant.
type AutotuneCandidate struct {
	Desc  string  `json:"desc"`
	EstUS float64 `json:"est_us,omitempty"`
	Error string  `json:"error,omitempty"`
}

// AutotuneResponse is the body of a successful autotune call.
type AutotuneResponse struct {
	ResponseMeta
	Candidates []AutotuneCandidate `json:"candidates"`
	// BestSource is the recommended rewritten program (when requested).
	BestSource string  `json:"best_source,omitempty"`
	ElapsedUS  float64 `json:"elapsed_us"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Source is the HPF/Fortran 90D program text (required).
	Source string `json:"source"`
	// TimeoutMS caps this request's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// AnalyzeResponse is the body of a successful analyze call. Diagnostics
// is always present (possibly empty) so the schema is stable for clean
// programs.
type AnalyzeResponse struct {
	ResponseMeta
	Program     string                `json:"program"`
	Procs       int                   `json:"procs"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	Errors      int                   `json:"errors"`
	Warnings    int                   `json:"warnings"`
	Infos       int                   `json:"infos"`
	// Price is the static cost pre-estimate the admission gate uses; a
	// client can check it against the server's advertised budget before
	// submitting an expensive predict request.
	Price     *analysis.PriceReport `json:"price,omitempty"`
	ElapsedUS float64               `json:"elapsed_us"`
}

// ErrorResponse is the body of every non-2xx API response. RequestID
// and TraceID are present on every response path — including shed
// (429) and drain (503) rejections — so a refused request is still
// correlatable with server logs and traces.
type ErrorResponse struct {
	Error string `json:"error"`
	// Stage names the pipeline stage that failed ("decode", "compile",
	// "interpret", "execute", "search", "deadline", "internal",
	// "overload" for shed/drain rejections, "transient" for
	// retryable failures worth resubmitting).
	Stage string `json:"stage,omitempty"`
	// RequestID identifies the request in the server logs.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the request's W3C trace ID.
	TraceID string `json:"trace_id,omitempty"`
	// EstimatedCostUnits carries the static cost estimate on 429
	// responses from the cost-admission gate ("admission" stage), so a
	// rejected client knows how far over budget the program priced.
	EstimatedCostUnits float64 `json:"estimated_cost_units,omitempty"`
	// CostLimitUnits is the budget the estimate was checked against.
	CostLimitUnits float64 `json:"cost_limit_units,omitempty"`
}

// TracesResponse is the body of GET /v1/traces: the most recent traced
// requests, newest first.
type TracesResponse struct {
	Traces []obs.TraceRecord `json:"traces"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Inflight int64  `json:"inflight"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// The status line is already out; nothing more to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, status int, stage string, err error, meta reqMeta) {
	writeJSON(w, status, ErrorResponse{
		Error: err.Error(), Stage: stage,
		RequestID: meta.reqID, TraceID: meta.traceID,
	})
}

// apiError carries an HTTP status and stage label through a handler.
// estCost/costLimit are set by the cost-admission gate so its 429s can
// carry the static estimate in the response body.
type apiError struct {
	status    int
	stage     string
	err       error
	estCost   float64
	costLimit float64
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %v", e.stage, e.err) }

func errf(status int, stage, format string, args ...any) *apiError {
	return &apiError{status: status, stage: stage, err: fmt.Errorf(format, args...)}
}
