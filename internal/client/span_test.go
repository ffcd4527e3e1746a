package client

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bpomdp/internal/obs"
	"bpomdp/internal/server"
)

// traceSleepPolicy retries instantly without real sleeping.
func traceSleepPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Sleep:       func(time.Duration) {},
	}
}

// TestWithSpansEmitsCallAttemptBackoff drives one keyed call that fails once
// and succeeds on retry, and checks the span stream tells that exact story:
// one call span containing two attempts separated by one backoff, all keyed
// by the episode key and attributed to the configured node. The client is
// metered too, and the counters must account the same two attempts.
func TestWithSpansEmitsCallAttemptBackoff(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(server.HeaderTrace); got != "ck-span" {
			t.Errorf("%s = %q on the wire, want ck-span", server.HeaderTrace, got)
		}
		if hits.Add(1) == 1 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"episodeId":3}`)
	}))
	defer hs.Close()

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	c, err := New(hs.URL, hs.Client(),
		WithSpans(obs.NewSpanWriter(&buf), "driver-1"),
		WithMetrics(reg),
		WithRetryPolicy(traceSleepPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := c.StartEpisodeKeyed("ck-span")
	if err != nil {
		t.Fatal(err)
	}
	if id := ep.ID(); id != 3 { // ID opens the episode: the plain start
		t.Fatalf("episode id %d, want 3", id)
	}

	spans, err := obs.DecodeSpans(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string][]obs.SpanRecord{}
	for _, sp := range spans {
		if sp.TraceID != "ck-span" {
			t.Errorf("span trace %q, want ck-span", sp.TraceID)
		}
		if sp.Node != "driver-1" {
			t.Errorf("span node %q, want driver-1", sp.Node)
		}
		if sp.Op != "start" {
			t.Errorf("span op %q, want start", sp.Op)
		}
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
	}
	if n := len(byKind[obs.SpanClientCall]); n != 1 {
		t.Fatalf("%d call spans, want 1", n)
	}
	if n := len(byKind[obs.SpanClientAttempt]); n != 2 {
		t.Fatalf("%d attempt spans, want 2", n)
	}
	if n := len(byKind[obs.SpanClientBackoff]); n != 1 {
		t.Fatalf("%d backoff spans, want 1", n)
	}

	first, second := byKind[obs.SpanClientAttempt][0], byKind[obs.SpanClientAttempt][1]
	if first.Attempt != 0 || second.Attempt != 1 {
		t.Errorf("attempt numbering %d, %d; want 0, 1", first.Attempt, second.Attempt)
	}
	if first.Status != http.StatusServiceUnavailable || first.Err == "" {
		t.Errorf("failed attempt span: status %d err %q", first.Status, first.Err)
	}
	if second.Status != 0 || second.Err != "" {
		t.Errorf("successful attempt span: status %d err %q", second.Status, second.Err)
	}
	if got := byKind[obs.SpanClientBackoff][0].Attempt; got != 1 {
		t.Errorf("backoff precedes attempt %d, want 1", got)
	}

	// The call span must contain its attempts.
	call := byKind[obs.SpanClientCall][0]
	if call.Err != "" {
		t.Errorf("call span error %q, want none", call.Err)
	}
	for i, at := range byKind[obs.SpanClientAttempt] {
		if at.Start < call.Start || at.End() > call.End() {
			t.Errorf("attempt %d [%d,%d] outside call [%d,%d]",
				i, at.Start, at.End(), call.Start, call.End())
		}
	}

	g := reg.Gather()
	want := map[string]float64{
		"recoverd_client_requests_total":                 2,
		"recoverd_client_retries_total":                  1,
		"recoverd_client_errors_total":                   1,
		"recoverd_client_request_duration_seconds_count": 2,
	}
	for series, v := range want {
		if g[series] != v {
			t.Errorf("%s = %v, want %v", series, g[series], v)
		}
	}
}

// TestWithSpansKeylessAndDisabled: calls without an episode key have no
// trace id and must emit nothing; a client without WithSpans stays untraced
// entirely.
func TestWithSpansKeylessAndDisabled(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"states":["up"],"actions":["noop"],"observations":["ok"]}`)
	}))
	defer hs.Close()

	var buf bytes.Buffer
	c, err := New(hs.URL, hs.Client(), WithSpans(obs.NewSpanWriter(&buf), ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(); err != nil { // keyless call
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("keyless call emitted spans: %s", buf.String())
	}

	plain, err := New(hs.URL, hs.Client(), WithSpans(nil, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.spans != nil {
		t.Error("WithSpans(nil, ...) installed a writer")
	}
}
