package server

import (
	"net/http"
	"strconv"
	"time"

	"bpomdp/internal/obs"
)

// HeaderTrace carries the episode's trace id on every traced request. The
// trace id is the episode's clientKey — the same string that routes the
// episode on the fleet ring — so spans emitted by the client, the owner,
// a redirecting non-owner, an adopting survivor, and a tombstone replica
// all stitch into one timeline without any id-translation table.
const HeaderTrace = "X-Bpomdp-Trace"

// spanResponseWriter captures the status a handler writes so the span
// wrapper can record it (and detect 307 redirect hops). A handler that
// computes a fresh decision hands its tier and explanation to the span
// through it (see decide); nothing of either reaches the wire.
type spanResponseWriter struct {
	http.ResponseWriter
	status   int
	tier     string
	decision *obs.DecisionRecord
}

func (w *spanResponseWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *spanResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// spanned wraps an episode-scoped handler with span emission. The zero-cost
// contract: with spans disabled the handler is returned unchanged — not
// even a nil check rides the hot path — and with spans enabled, untraced
// requests (no X-Bpomdp-Trace header) pay one header lookup.
//
// After the handler ran, a 307 carries the owner in X-Bpomdp-Owner (the
// redirect hop's Target), and a handler that computed a fresh decision has
// left its tier and explanation on the writer.
func (s *Server) spanned(kind string, fn http.HandlerFunc) http.HandlerFunc {
	if s.spans == nil {
		return fn
	}
	return func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(HeaderTrace)
		if trace == "" {
			fn(w, r)
			return
		}
		sw := &spanResponseWriter{ResponseWriter: w}
		t0 := time.Now()
		fn(sw, r)
		rec := &obs.SpanRecord{
			TraceID:  trace,
			Node:     s.node,
			Kind:     kind,
			Start:    t0.UnixNano(),
			Duration: time.Since(t0).Nanoseconds(),
			Status:   sw.status,
			Tier:     sw.tier,
			Decision: sw.decision,
		}
		if sw.status == http.StatusTemporaryRedirect {
			rec.Target = sw.Header().Get(HeaderOwner)
		}
		if idStr := r.PathValue("id"); idStr != "" {
			if id, err := strconv.ParseUint(idStr, 10, 64); err == nil {
				rec.Episode = id
			}
		}
		_ = s.spans.Write(rec)
	}
}

// emitSpan writes one non-handler span (checkpoint, adopt, replicate,
// accept). No-op without a writer or a trace id.
func (s *Server) emitSpan(rec *obs.SpanRecord) {
	if s.spans == nil || rec.TraceID == "" {
		return
	}
	rec.Node = s.node
	_ = s.spans.Write(rec)
}

// spanStart returns the wall-clock span anchor, zero when spans are off —
// callers gate their emitSpan on !IsZero so the disabled path never reads
// the clock.
func (s *Server) spanStart() time.Time {
	if s.spans == nil {
		return time.Time{}
	}
	return time.Now()
}
