package client

import (
	"net/http"
	"strings"
	"time"

	"bpomdp/internal/obs"
)

// WithSpans attaches an episode span writer to the client: every traced call
// (one carrying an episode key) emits client.call / client.attempt /
// client.backoff spans keyed by the episode's trace id, ready to be stitched
// with the servers' span streams by cmd/tracestats. node names this process
// in the emitted spans ("client" when empty). The writer is typically shared
// with other clients of the same process — SpanWriter serializes writes.
// A nil writer leaves the client untraced; an untraced call pays one nil
// check and an empty-trace check per span it would have emitted.
func WithSpans(sw *obs.SpanWriter, node string) Option {
	return func(c *Client) {
		if sw == nil {
			return
		}
		if node == "" {
			node = "client"
		}
		c.spans = sw
		c.spanNode = node
	}
}

// spanEmit stamps the node and writes rec, best-effort.
func (c *Client) spanEmit(rec *obs.SpanRecord) {
	rec.Node = c.spanNode
	_ = c.spans.Write(rec)
}

// callOp names the logical operation of a client call for span records, from
// the request shape ("start", "decide", "observe", "belief", "delete",
// "status").
func callOp(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/episodes":
		return "start"
	case strings.HasSuffix(path, "/decision"):
		return "decide"
	case strings.HasSuffix(path, "/observations"):
		return "observe"
	case strings.HasSuffix(path, "/belief"):
		return "belief"
	case method == http.MethodDelete:
		return "delete"
	default:
		return "status"
	}
}

// traceID extracts the episode trace id a call will carry on the wire.
// Empty when the call is keyless (nothing to stitch by) or spans are off.
func (c *Client) traceID(h *headers) string {
	if c.spans == nil {
		return ""
	}
	return h.trace
}

// span emits one span of a traced call, timed from t0 to now: a
// client.attempt or client.call span carries err's status and message, a
// client.backoff span passes nil. A no-op when trace is empty.
func (c *Client) span(trace, kind, op string, attempt int, t0 time.Time, err error) {
	if trace == "" {
		return
	}
	rec := &obs.SpanRecord{
		TraceID: trace, Kind: kind, Op: op, Attempt: attempt,
		Start: t0.UnixNano(), Duration: time.Since(t0).Nanoseconds(),
	}
	if err != nil {
		rec.Status = StatusCode(err)
		rec.Err = err.Error()
	}
	c.spanEmit(rec)
}
