package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
)

// spanBuffer is a goroutine-safe span sink for tests (replication goroutines
// write spans concurrently with the test's reads).
type spanBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *spanBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *spanBuffer) Spans(t *testing.T) []obs.SpanRecord {
	t.Helper()
	b.mu.Lock()
	data := b.buf.String()
	b.mu.Unlock()
	spans, err := obs.DecodeSpans(strings.NewReader(data))
	if err != nil {
		t.Fatalf("decode spans: %v", err)
	}
	return spans
}

func countKind(spans []obs.SpanRecord, kind string) int {
	n := 0
	for _, sp := range spans {
		if sp.Kind == kind {
			n++
		}
	}
	return n
}

// TestHealthzDrainsOnShutdown pins the graceful-shutdown contract: once
// BeginShutdown is called /healthz flips to 503 so load balancers stop
// routing new work here, while in-flight episode traffic keeps being served.
func TestHealthzDrainsOnShutdown(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", got)
	}

	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	srv.BeginShutdown()
	srv.BeginShutdown() // idempotent

	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", got)
	}
	// Episode traffic still drains normally.
	if got := get(fmt.Sprintf("/v1/episodes/%d/decision", out.EpisodeID)); got != http.StatusOK {
		t.Errorf("decision during drain: %d, want 200", got)
	}
	if got := get("/metrics"); got != http.StatusOK {
		t.Errorf("metrics during drain: %d, want 200", got)
	}
}

// TestFleetHealthSnapshot exercises GET /v1/fleet/health on a single-node
// server: working-set sizes, per-tier decision accounting, and the draining
// flag must all reflect live server state. (Fleet mode adds the membership
// view; that path is covered by the chaos tests.)
func TestFleetHealthSnapshot(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	health := func() HealthView {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/fleet/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("health status %d", resp.StatusCode)
		}
		var v HealthView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	v := health()
	if v.Node != "recoverd" {
		t.Errorf("node %q, want default \"recoverd\"", v.Node)
	}
	if v.Draining || v.OpenEpisodes != 0 || v.Fleet != nil {
		t.Errorf("fresh server health: %+v", v)
	}
	if v.UptimeSeconds <= 0 {
		t.Errorf("uptime %v, want > 0", v.UptimeSeconds)
	}

	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 3; i++ {
		dr, err := http.Get(hs.URL + fmt.Sprintf("/v1/episodes/%d/decision", out.EpisodeID))
		if err != nil {
			t.Fatal(err)
		}
		dr.Body.Close()
	}

	v = health()
	if v.OpenEpisodes != 1 {
		t.Errorf("openEpisodes %d, want 1", v.OpenEpisodes)
	}
	// Cached-decision retries don't recount; exactly one decision computed.
	if v.Decisions.Total != 1 {
		t.Errorf("decisions total %d, want 1", v.Decisions.Total)
	}
	var tiered uint64
	for tier, tv := range v.Decisions.ByTier {
		if tier != controller.TierFSC && tier != controller.TierTree {
			t.Errorf("unexpected tier %q", tier)
		}
		tiered += tv.Count
		if tv.Count > 0 && tv.RatePerSecond <= 0 {
			t.Errorf("tier %q: count %d with rate %v", tier, tv.Count, tv.RatePerSecond)
		}
	}
	if tiered != 1 {
		t.Errorf("per-tier counts sum to %d, want 1", tiered)
	}

	srv.BeginShutdown()
	if v = health(); !v.Draining {
		t.Error("draining not reported after BeginShutdown")
	}
}

// TestSpannedHandlersEmitSpans drives a traced episode end to end over a
// span-enabled server and checks the emitted stream: handler spans keyed by
// the trace header, the decide span carrying its serving tier, and
// checkpoint spans for the write-ahead saves and the terminal tombstone.
func TestSpannedHandlersEmitSpans(t *testing.T) {
	prep := testPrepared(t)
	sink := &spanBuffer{}
	srv, err := New(Config{
		Model:         prep.Model,
		NewController: boundedFactory(prep),
		Checkpointer:  openStore(t, t.TempDir()),
		SpanTrace:     sink,
		Node:          "n-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	const trace = "ck-trace-1"
	do := func(method, path, body string) *http.Response {
		t.Helper()
		var rd *strings.Reader
		if body != "" {
			rd = strings.NewReader(body)
		} else {
			rd = strings.NewReader("")
		}
		req, err := http.NewRequest(method, hs.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderTrace, trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := do("POST", "/v1/episodes", `{"clientKey":"ck-trace-1"}`)
	var out StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp = do("GET", fmt.Sprintf("/v1/episodes/%d/decision", out.EpisodeID), "")
	var d DecisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(HeaderTier); got != controller.TierTree && got != controller.TierFSC {
		t.Errorf("%s = %q, want a tier label", HeaderTier, got)
	}

	sc := pomdp.NewScratch(prep.Model)
	succs := prep.Model.Successors(sc, pomdp.PointBelief(prep.Model.NumStates(), 0), d.Action)
	resp = do("POST", fmt.Sprintf("/v1/episodes/%d/observations", out.EpisodeID),
		fmt.Sprintf(`{"action":%d,"observation":%d,"stepIndex":0}`, d.Action, succs[0].Obs))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("observation status %d", resp.StatusCode)
	}

	// An untraced request must leave no span behind.
	ur, err := http.Get(hs.URL + fmt.Sprintf("/v1/episodes/%d", out.EpisodeID))
	if err != nil {
		t.Fatal(err)
	}
	ur.Body.Close()

	spans := sink.Spans(t)
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	for i, sp := range spans {
		if sp.TraceID != trace {
			t.Errorf("span %d trace %q, want %q", i, sp.TraceID, trace)
		}
		if sp.Node != "n-test" {
			t.Errorf("span %d node %q, want n-test", i, sp.Node)
		}
		if sp.Start == 0 {
			t.Errorf("span %d has zero start", i)
		}
	}
	if n := countKind(spans, obs.SpanServerStart); n != 1 {
		t.Errorf("%d start spans, want 1", n)
	}
	if n := countKind(spans, obs.SpanServerDecide); n != 1 {
		t.Errorf("%d decide spans, want 1", n)
	}
	if n := countKind(spans, obs.SpanServerStatus); n != 0 {
		t.Errorf("%d status spans for the untraced request, want 0", n)
	}
	for _, sp := range spans {
		switch sp.Kind {
		case obs.SpanServerDecide:
			if sp.Tier != controller.TierTree && sp.Tier != controller.TierFSC {
				t.Errorf("decide span tier %q", sp.Tier)
			}
			if sp.Status != http.StatusOK {
				t.Errorf("decide span status %d", sp.Status)
			}
			if sp.Episode != out.EpisodeID {
				t.Errorf("decide span episode %d, want %d", sp.Episode, out.EpisodeID)
			}
		case obs.SpanServerObserve:
			if sp.Status != http.StatusNoContent {
				t.Errorf("observe span status %d", sp.Status)
			}
		}
	}
	// The start and the observation each checkpoint write-ahead.
	saves := 0
	for _, sp := range spans {
		if sp.Kind == obs.SpanServerCheckpoint && sp.Op == obs.SpanOpSave {
			saves++
			if sp.Episode != out.EpisodeID {
				t.Errorf("checkpoint span episode %d, want %d", sp.Episode, out.EpisodeID)
			}
		}
	}
	if saves < 2 {
		t.Errorf("%d checkpoint save spans, want >= 2 (start + observation)", saves)
	}

	// Drive the episode to its terminal decision: the tombstone fsync and
	// the episode-record delete must each appear as a checkpoint span.
	for i := 1; i < 200; i++ {
		resp = do("GET", fmt.Sprintf("/v1/episodes/%d/decision", out.EpisodeID), "")
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d.Terminate {
			break
		}
		succs = prep.Model.Successors(sc, pomdp.PointBelief(prep.Model.NumStates(), 0), d.Action)
		resp = do("POST", fmt.Sprintf("/v1/episodes/%d/observations", out.EpisodeID),
			fmt.Sprintf(`{"action":%d,"observation":%d,"stepIndex":%d}`, d.Action, succs[0].Obs, i))
		resp.Body.Close()
	}
	if !d.Terminate {
		t.Fatal("episode never terminated")
	}
	spans = sink.Spans(t)
	var tombSpans, delSpans int
	for _, sp := range spans {
		if sp.Kind != obs.SpanServerCheckpoint {
			continue
		}
		switch sp.Op {
		case obs.SpanOpTombstone:
			tombSpans++
		case obs.SpanOpDelete:
			delSpans++
		}
	}
	if tombSpans != 1 || delSpans != 1 {
		t.Errorf("terminal checkpoint spans: %d tombstone, %d delete; want 1 and 1", tombSpans, delSpans)
	}
}

// TestSpansDisabledEmitsNothing pins the zero-cost-off contract at the
// behavior level: without Config.SpanTrace the spanned wrapper must return
// the handler unchanged and no HeaderTier must be set.
func TestSpansDisabledEmitsNothing(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	req, err := http.NewRequest("POST", hs.URL+"/v1/episodes", strings.NewReader(`{"clientKey":"k"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderTrace, "k")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err = http.NewRequest("GET", hs.URL+fmt.Sprintf("/v1/episodes/%d/decision", out.EpisodeID), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderTrace, "k")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(HeaderTier); got != "" {
		t.Errorf("%s = %q with spans disabled, want empty", HeaderTier, got)
	}
}
