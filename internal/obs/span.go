package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SpanSchema identifies the distributed episode-trace document format: one
// JSON SpanRecord per line (JSONL). Spans from every node of a fleet share
// the episode's trace id (its clientKey), so the files can be concatenated
// and re-stitched into one causal timeline per recovery episode — see
// cmd/tracestats.
const SpanSchema = "bpomdp.span/v1"

// Span kinds. Client kinds describe one side of the wire, server kinds the
// other; tracestats subtracts matched intervals to attribute wall-clock to
// network, backoff, handler work, and fsync.
const (
	// SpanClientCall is one logical client call (Decide, Observe, ...): the
	// whole retry loop, backoff included.
	SpanClientCall = "client.call"
	// SpanClientAttempt is a single HTTP attempt within a call.
	SpanClientAttempt = "client.attempt"
	// SpanClientBackoff is the sleep between attempts; Attempt numbers the
	// attempt the sleep preceded (1 = before the first retry).
	SpanClientBackoff = "client.backoff"
	// SpanClientFailover is a fleet episode's owner re-bind after transport
	// exhaustion; Target is the new owner.
	SpanClientFailover = "client.failover"

	// Server handler spans, one per episode-scoped request actually served.
	// A Status of 307 marks a redirect hop; Target then names the owner the
	// request was bounced to.
	SpanServerStart   = "server.start"
	SpanServerStatus  = "server.status"
	SpanServerDecide  = "server.decide"
	SpanServerObserve = "server.observe"
	SpanServerBelief  = "server.belief"
	SpanServerDelete  = "server.delete"

	// SpanServerCheckpoint covers one durable store write (episode snapshot
	// or terminal tombstone; Op distinguishes). Emitted inside the handler
	// span that paid for the fsync.
	SpanServerCheckpoint = "server.checkpoint"
	// SpanServerAdopt covers adopting one episode or tombstone (Op
	// distinguishes) from a down member's store; Source names that member.
	SpanServerAdopt = "server.adopt"
	// SpanServerReplicate covers the asynchronous replication of a terminal
	// tombstone to the ring successor (Target); its Events record the
	// individual attempts.
	SpanServerReplicate = "server.replicate"
	// SpanServerAccept covers a peer's replicated tombstone landing here.
	SpanServerAccept = "server.accept"
)

// Span ops used with SpanServerCheckpoint and SpanServerAdopt.
const (
	SpanOpSave      = "save"
	SpanOpTombstone = "tombstone"
	SpanOpEpisode   = "episode"
	SpanOpDelete    = "delete"
)

// SpanEvent is a timestamped annotation within a span (e.g. one replication
// attempt).
type SpanEvent struct {
	Name string `json:"name"`
	At   int64  `json:"atUnixNano"`
	// Detail is a short free-form annotation ("status=204", "attempt=2").
	Detail string `json:"detail,omitempty"`
}

// SpanRecord is one timed interval in an episode's distributed timeline.
// Start is a wall-clock anchor (UnixNano); Duration is measured with the
// monotonic clock, so it is exact even when the wall clock steps. Stitching
// compares Start across nodes and therefore assumes roughly synchronized
// clocks (exactly true for the in-process chaos fleet; NTP-close in real
// deployments).
type SpanRecord struct {
	// Schema is always SpanSchema.
	Schema string `json:"schema"`
	// TraceID keys the span to its episode across every node: it is the
	// episode's clientKey (the fleet routing key), carried on the wire in
	// the X-Bpomdp-Trace header. Keyless episodes are not traced.
	TraceID string `json:"traceId"`
	// Node names the emitting process ("n1", or "client" for client spans).
	Node string `json:"node"`
	// Kind is one of the Span* constants above.
	Kind string `json:"kind"`
	// Start anchors the span on the wall clock (UnixNano); Duration is the
	// monotonic elapsed time in nanoseconds.
	Start    int64 `json:"startUnixNano"`
	Duration int64 `json:"durationNanos"`

	// Episode is the server-assigned episode id, when the emitter knows it
	// (server spans; client spans stitch by TraceID alone).
	Episode uint64 `json:"episode,omitempty"`
	// Op names the client call ("decide", "observe", ...) on client spans
	// and the store operation on checkpoint/adopt spans.
	Op string `json:"op,omitempty"`
	// Tier labels a handler span that computed a fresh decision with the
	// serving tier ("fsc" or "tree").
	Tier string `json:"tier,omitempty"`
	// Decision explains the fresh decision the handler computed; absent on
	// every other span, including a decision re-served from the cache.
	Decision *DecisionRecord `json:"decision,omitempty"`
	// Status is the HTTP status code (server handler spans and client
	// attempts that got a response; 0 = transport error or n/a).
	Status int `json:"status,omitempty"`
	// Attempt numbers client attempts and backoffs within one call (0-based
	// attempts; a backoff before attempt n carries Attempt=n).
	Attempt int `json:"attempt,omitempty"`
	// Target names the member a redirect, failover, or replication was
	// aimed at; Source names the member an adoption pulled from.
	Target string `json:"target,omitempty"`
	Source string `json:"source,omitempty"`
	// Err carries the failure, when the spanned operation failed.
	Err string `json:"error,omitempty"`
	// Events are timestamped annotations within the span.
	Events []SpanEvent `json:"events,omitempty"`
}

// End returns the span's wall-clock end (UnixNano).
func (r *SpanRecord) End() int64 { return r.Start + r.Duration }

// SpanWriter writes SpanRecords as JSONL. It serializes writes with a
// mutex, so one writer may be shared by every handler goroutine on a node;
// each record lands as one intact line.
type SpanWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewSpanWriter returns a SpanWriter emitting to w.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{enc: json.NewEncoder(w)}
}

// Write emits one record, stamping its Schema field.
func (s *SpanWriter) Write(rec *SpanRecord) error {
	rec.Schema = SpanSchema
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(rec)
}

// DecodeSpans parses a JSONL span stream, verifying the schema and the
// required fields of every record. Files from several nodes may be
// concatenated before decoding.
func DecodeSpans(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", line, err)
		}
		if rec.Schema != SpanSchema {
			return nil, fmt.Errorf("obs: span line %d has schema %q, want %q", line, rec.Schema, SpanSchema)
		}
		if rec.TraceID == "" || rec.Node == "" || rec.Kind == "" {
			return nil, fmt.Errorf("obs: span line %d is missing traceId, node, or kind", line)
		}
		if rec.Duration < 0 {
			return nil, fmt.Errorf("obs: span line %d has negative duration %d", line, rec.Duration)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan spans: %w", err)
	}
	return out, nil
}
