// Streaming job progress: GET /v1/jobs/{id}/events serves one job's
// state transitions — submitted, running, checkpointed(n), and the
// terminal states — as a Server-Sent Events stream, replacing the
// GET /v1/jobs/{id} busy-poll loop. Framing follows the SSE wire
// format: each event carries `id:` (the per-job sequence number,
// which the browser EventSource and hpfclient echo back as
// Last-Event-ID on reconnect), `event:` (the state name) and one
// `data:` JSON line (jobs.Event). Idle streams emit `: hb` comment
// heartbeats so intermediaries keep the connection open. A dropped
// subscriber resumes from its last seen id: the jobs layer replays the
// retained history (rebuilt from the WAL on startup) past that cursor,
// and a cursor from a previous server generation replays from the
// start. The stream ends after a terminal event, when the jobs layer
// drops a slow consumer, or at server drain — clients fall back to
// polling on any non-SSE answer.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hpfperf/internal/jobs"
)

// handleJobEvents serves GET /v1/jobs/{id}/events. It sits outside the
// api() wrapper (the concurrency gate is sized for request/response
// work, not long-lived streams) but is admitted and counted in flight
// like an API request, so Shutdown waits for streams to tear down —
// which they do promptly, because jobs.Drain closes every subscription
// first.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	meta := s.jobMeta(w, r)
	if s.jobsDisabled(w, meta) {
		return
	}
	after := 0
	cursor := r.Header.Get("Last-Event-ID")
	if cursor == "" {
		cursor = r.URL.Query().Get("after")
	}
	if cursor != "" {
		n, err := strconv.Atoi(cursor)
		if err != nil || n < 0 {
			s.recordRequest(routeEvents, http.StatusBadRequest)
			writeError(w, http.StatusBadRequest, "decode",
				fmt.Errorf("Last-Event-ID must be a non-negative event sequence number, got %q", cursor), meta)
			return
		}
		after = n
	}
	sub, err := s.jobs.Subscribe(r.PathValue("id"), after)
	switch {
	case err == nil:
	case err == jobs.ErrNotFound:
		s.recordRequest(routeEvents, http.StatusNotFound)
		writeError(w, http.StatusNotFound, "jobs", err, meta)
		return
	case err == jobs.ErrDraining:
		s.recordRequest(routeEvents, http.StatusServiceUnavailable)
		retryAfterHeader(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "overload", err, meta)
		return
	case err == jobs.ErrSubscriberLimit:
		s.recordRequest(routeEvents, http.StatusTooManyRequests)
		retryAfterHeader(w, time.Second)
		writeError(w, http.StatusTooManyRequests, "overload", err, meta)
		return
	default:
		s.recordRequest(routeEvents, http.StatusInternalServerError)
		writeError(w, http.StatusInternalServerError, "jobs", err, meta)
		return
	}
	defer sub.Cancel()

	if !s.admit() {
		s.recordRequest(routeEvents, http.StatusServiceUnavailable)
		retryAfterHeader(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "overload", errDraining, meta)
		return
	}
	defer s.inflight.Done()
	s.met.sseStreams.Add(1)
	defer s.met.sseStreams.Add(-1)
	s.recordRequest(routeEvents, http.StatusOK)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxy buffering defeats streaming
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()

	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				// Subscription ended without a terminal event: drain, or
				// this consumer fell behind and was dropped. The client
				// reconnects with its Last-Event-ID (or falls back to
				// polling during drain).
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.State, data); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
			s.met.sseEvents.Add(1)
			if ev.Terminal {
				return
			}
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
			s.met.sseHeartbeats.Add(1)
		case <-r.Context().Done():
			return
		}
	}
}
