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
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/fleet"
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
// the trace header, the decide span carrying its serving tier and decision,
// and checkpoint spans for the write-ahead saves and the terminal tombstone.
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
	assertNoTierHeader(t, resp)

	sc := pomdp.NewScratch(prep.Model)
	succs := prep.Model.Successors(sc, pomdp.PointBelief(prep.Model.NumStates(), 0), d.Action)
	resp = do("POST", fmt.Sprintf("/v1/episodes/%d/observations", out.EpisodeID),
		fmt.Sprintf(`{"action":%d,"observation":%d,"stepIndex":0}`, d.Action, succs[0].Obs))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
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
			if sp.Decision == nil || sp.Decision.Action != d.Action || sp.Decision.Step != 0 {
				t.Errorf("decide span decision %+v, want step 0 action %d", sp.Decision, d.Action)
			}
		case obs.SpanServerObserve:
			if sp.Status != http.StatusOK {
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
// the handler unchanged, and the decision response carries no tracing
// header.
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
	assertNoTierHeader(t, resp)
}

// assertNoTierHeader checks that a decision response names no serving tier
// on the wire: the tier reaches the decide span inside the process only.
func assertNoTierHeader(t *testing.T, resp *http.Response) {
	t.Helper()
	for name, vals := range resp.Header {
		for _, v := range vals {
			if v == controller.TierTree || v == controller.TierFSC {
				t.Errorf("response header %s: %q leaks the serving tier", name, v)
			}
		}
	}
}

// TestDecisionSpanRoundTrip: on a span-enabled server, the handler span
// that computed each fresh decision carries that decision's explanation, and
// the spans round-trip through obs.DecodeSpans. Every step of a keyed
// episode is traced; the first decision comes from GET .../decision, every
// later one from the observation POST, and each is then asked again — by a
// retransmit on even steps, by two GETs on odd ones — and served from the
// per-step cache, which must add no explanation. With a
// stats-collecting controller the explanation carries the bound gap; with
// stats off, only the base fields.
func TestDecisionSpanRoundTrip(t *testing.T) {
	prep := testPrepared(t)
	model := prep.Model
	na := model.NumActions()
	for _, stats := range []bool{true, false} {
		t.Run(fmt.Sprintf("stats=%v", stats), func(t *testing.T) {
			sink := &spanBuffer{}
			srv, err := New(Config{
				Model: model,
				NewController: func() (controller.Controller, pomdp.Belief, error) {
					ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1, CollectStats: stats})
					if err != nil {
						return nil, nil, err
					}
					initial, err := prep.InitialBelief()
					return ctrl, initial, err
				},
				SpanTrace: sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv)
			defer hs.Close()

			const key = "ck-explain"
			do := func(method, path, body string, out any) int {
				t.Helper()
				req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(HeaderTrace, key)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				assertNoTierHeader(t, resp)
				if out != nil {
					if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
						t.Fatal(err)
					}
				}
				return resp.StatusCode
			}

			var start StartResponse
			do("POST", "/v1/episodes", `{"clientKey":"`+key+`"}`, &start)
			decisionPath := fmt.Sprintf("/v1/episodes/%d/decision", start.EpisodeID)
			obsPath := fmt.Sprintf("/v1/episodes/%d/observations", start.EpisodeID)

			sc := pomdp.NewScratch(model)
			var d DecisionResponse
			fresh, piggybacked := 0, 0
			// Two GETs: the second is served from the cache.
			do("GET", decisionPath, "", &d)
			do("GET", decisionPath, "", &d)
			fresh++
			for step := 0; !d.Terminate; step++ {
				if step >= 50 {
					t.Fatal("episode did not terminate")
				}
				succs := model.Successors(sc, pomdp.PointBelief(model.NumStates(), 0), d.Action)
				body := fmt.Sprintf(`{"action":%d,"observation":%d,"stepIndex":%d}`, d.Action, succs[0].Obs, step)
				do("POST", obsPath, body, &d)
				if step%2 == 0 {
					// The retransmit is answered with the cached decision.
					do("POST", obsPath, body, &d)
				} else {
					// So are GETs of the new step's decision.
					do("GET", decisionPath, "", &d)
					do("GET", decisionPath, "", &d)
				}
				piggybacked++
				fresh++
			}
			if piggybacked == 0 {
				t.Fatal("no decision was answered on an observation")
			}

			var decided []obs.SpanRecord
			onObserve := 0
			for _, sp := range sink.Spans(t) {
				if sp.Decision == nil {
					if sp.Tier != "" {
						t.Errorf("%s span without a decision has tier %q", sp.Kind, sp.Tier)
					}
					continue
				}
				switch sp.Kind {
				case obs.SpanServerObserve:
					onObserve++
				case obs.SpanServerDecide:
				default:
					t.Errorf("decision on a %s span", sp.Kind)
				}
				if sp.Tier != controller.TierTree && sp.Tier != controller.TierFSC {
					t.Errorf("%s span with a decision has tier %q", sp.Kind, sp.Tier)
				}
				decided = append(decided, sp)
			}
			if len(decided) != fresh {
				t.Fatalf("%d decisions on spans for %d fresh decisions (cached retries must not re-record)", len(decided), fresh)
			}
			if onObserve != piggybacked {
				t.Errorf("%d decisions on observe spans, want %d", onObserve, piggybacked)
			}
			for i, sp := range decided {
				rec := sp.Decision
				if sp.Episode != start.EpisodeID {
					t.Errorf("decision %d: episode %d, want %d", i, sp.Episode, start.EpisodeID)
				}
				if rec.Step != i {
					t.Errorf("decision %d: step %d, want %d", i, rec.Step, i)
				}
				if rec.Action >= 0 && rec.ActionName == "" {
					t.Errorf("decision %d: action %d has no name", i, rec.Action)
				}
				if !stats {
					if rec.Explanation != nil {
						t.Errorf("decision %d: stats-off controller explained %+v", i, rec.Explanation)
					}
					continue
				}
				if rec.Explanation == nil {
					t.Fatalf("decision %d: no explanation from a stats-collecting controller", i)
				}
				if rec.BoundGap < -1e-9 {
					t.Errorf("decision %d: bound gap %v < 0 violates Property 1(b)", i, rec.BoundGap)
				}
				if rec.BeliefEntropy < 0 {
					t.Errorf("decision %d: negative belief entropy %v", i, rec.BeliefEntropy)
				}
				if len(rec.QValues) != na {
					t.Errorf("decision %d: %d q-values, want %d", i, len(rec.QValues), na)
				}
				if !rec.Terminate && rec.TreeNodes == 0 {
					t.Errorf("decision %d: non-terminal decision reports zero tree nodes", i)
				}
			}
			if !decided[len(decided)-1].Decision.Terminate {
				t.Error("final decision span is not the terminal decision")
			}
		})
	}
}

// stopController decides to terminate at once, so a test reaches an
// episode's terminal decision in one request.
type stopController struct{ belief pomdp.Belief }

func (c *stopController) Reset(initial pomdp.Belief) error { c.belief = initial.Clone(); return nil }
func (c *stopController) Decide() (controller.Decision, error) {
	return controller.Decision{Action: -1, Terminate: true, Value: -1}, nil
}
func (c *stopController) Observe(int, int) error { return nil }
func (c *stopController) Belief() pomdp.Belief   { return c.belief.Clone() }
func (c *stopController) Name() string           { return "stop" }

// TestStoreWriteSpansUniform: every store write a traced request causes is
// one server.checkpoint span with its op, whichever path made it — an
// abandoned episode's delete, a terminal decision's tombstone then delete,
// and a replicated tombstone accepted from a peer.
func TestStoreWriteSpansUniform(t *testing.T) {
	prep := testPrepared(t)
	sink := &spanBuffer{}
	hs := httptest.NewUnstartedServer(nil)
	view, err := fleet.NewMembership([]fleet.Member{{ID: "a", Addr: "http://" + hs.Listener.Addr().String()}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Model: prep.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			initial, err := prep.InitialBelief()
			return &stopController{}, initial, err
		},
		Checkpointer: openStore(t, t.TempDir()),
		Fleet:        &FleetConfig{Self: "a", Membership: view},
		SpanTrace:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs.Config.Handler = srv
	hs.Start()
	defer hs.Close()

	// checkpointOps runs one traced request and returns the ops of the
	// checkpoint spans it emitted, in order.
	checkpointOps := func(trace, method, path, body string, want int) []string {
		t.Helper()
		before := len(sink.Spans(t))
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderTrace, trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
		var ops []string
		for _, sp := range sink.Spans(t)[before:] {
			if sp.Kind == obs.SpanServerCheckpoint {
				if sp.TraceID != trace {
					t.Errorf("%s %s: checkpoint span trace %q, want %q", method, path, sp.TraceID, trace)
				}
				ops = append(ops, sp.Op)
			}
		}
		return ops
	}
	start := func(key string) uint64 {
		t.Helper()
		status, body := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", fmt.Sprintf(`{"clientKey":%q}`, key))
		if status != http.StatusCreated {
			t.Fatalf("start %q: status %d (%s)", key, status, body)
		}
		var out StartResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.EpisodeID
	}

	abandoned := start("ck-abandoned")
	if ops := checkpointOps("ck-abandoned", http.MethodDelete, fmt.Sprintf("/v1/episodes/%d", abandoned), "", http.StatusNoContent); fmt.Sprint(ops) != fmt.Sprint([]string{obs.SpanOpDelete}) {
		t.Errorf("delete: checkpoint ops %v, want [delete]", ops)
	}

	terminated := start("ck-terminated")
	if ops := checkpointOps("ck-terminated", http.MethodGet, fmt.Sprintf("/v1/episodes/%d/decision", terminated), "", http.StatusOK); fmt.Sprint(ops) != fmt.Sprint([]string{obs.SpanOpTombstone, obs.SpanOpDelete}) {
		t.Errorf("terminal decision: checkpoint ops %v, want [tombstone delete]", ops)
	}

	replica := fmt.Sprintf(`{"episodeId":%d,"clientKey":"ck-replica","steps":1,"final":{"action":-1,"actionName":"","terminate":true,"value":-1},"terminatedAtUnixNano":%d}`,
		EpisodeIDBaseFor(1)+7, time.Now().UnixNano())
	if ops := checkpointOps("ck-replica", http.MethodPost, tombstoneReplicaPath, replica, http.StatusNoContent); fmt.Sprint(ops) != fmt.Sprint([]string{obs.SpanOpTombstone}) {
		t.Errorf("accepted replica: checkpoint ops %v, want [tombstone]", ops)
	}
}
