package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
)

// requestCounter counts the requests a server's handler sees, in all and
// by kind. A fused start counts as a start and as an observation.
type requestCounter struct {
	requests, decisionGETs, observations, starts atomic.Int64
}

func (c *requestCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		switch {
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/decision"):
			c.decisionGETs.Add(1)
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/observations"):
			c.observations.Add(1)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/episodes":
			c.starts.Add(1)
			data, _ := io.ReadAll(r.Body)
			if bytes.Contains(data, []byte(`"first":`)) {
				c.observations.Add(1)
			}
			r.Body = io.NopCloser(bytes.NewReader(data))
		}
		h.ServeHTTP(w, r)
	})
}

// stripField makes a server behave like one that predates a body field:
// field is deleted from the body of every POST whose path match accepts.
func stripField(t *testing.T, h http.Handler, match func(path string) bool, field string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && match(r.URL.Path) {
			var req map[string]any
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("%s body: %v", r.URL.Path, err)
			}
			delete(req, field)
			data, err := json.Marshal(req)
			if err != nil {
				t.Errorf("re-encode %s body: %v", r.URL.Path, err)
			}
			r.Body = io.NopCloser(bytes.NewReader(data))
			r.ContentLength = int64(len(data))
		}
		h.ServeHTTP(w, r)
	})
}

func isStart(path string) bool       { return path == "/v1/episodes" }
func isObservation(path string) bool { return strings.HasSuffix(path, "/observations") }

// withoutFirst makes a server behave like one that predates the fused
// start: a start's first observation is stripped, so the start only opens
// the episode and answers without a decision.
func withoutFirst(t *testing.T, h http.Handler) http.Handler {
	return stripField(t, h, isStart, "first")
}

// withoutDecide makes a server behave like one that predates the decide
// field, and so the fused start too: the field is stripped from every
// observation body, so each observation is answered 204.
func withoutDecide(t *testing.T, h http.Handler) http.Handler {
	return stripField(t, withoutFirst(t, h), isObservation, "decide")
}

// piggybackHarness serves the two-server model behind wrap and returns a
// client, the request counts of the handler wrap serves, and a campaign
// runner.
func piggybackHarness(t *testing.T, wrap func(http.Handler) http.Handler) (*Client, *requestCounter, *sim.Runner) {
	t.Helper()
	prep, rm := twoServerPrep(t)
	srv, err := server.New(server.Config{Model: prep.Model, NewController: boundedFactory(prep)})
	if err != nil {
		t.Fatal(err)
	}
	counts := &requestCounter{}
	hs := httptest.NewServer(wrap(counts.wrap(srv)))
	t.Cleanup(hs.Close)
	c, err := New(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(rm, 200)
	if err != nil {
		t.Fatal(err)
	}
	return c, counts, runner
}

// runEpisodes drives n simulated episodes through c and returns their
// results.
func runEpisodes(t *testing.T, c *Client, runner *sim.Runner, n int) []sim.EpisodeResult {
	t.Helper()
	root := rng.New(29)
	var out []sim.EpisodeResult
	for i := 0; i < n; i++ {
		ep, err := c.StartEpisode()
		if err != nil {
			t.Fatal(err)
		}
		stream := root.SplitN("ep", i)
		res, err := runner.RunEpisode(ep, nil, 1+stream.IntN(2), stream)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Recovered {
			t.Errorf("episode %d did not recover", i)
		}
		res.AlgoTime = 0 // wall time, not part of the trajectory
		out = append(out, res)
	}
	return out
}

// TestObservePiggybacksDecision: against a server that answers decide, a
// simulated episode is one round trip per step — the handler never sees a
// decision GET — and the episodes match, step for step, those driven
// against a server that answers every observation 204, where the client
// falls back to GET for each decision.
func TestObservePiggybacksDecision(t *testing.T) {
	const n = 6
	c, counts, runner := piggybackHarness(t, func(h http.Handler) http.Handler { return h })
	got := runEpisodes(t, c, runner, n)
	if g := counts.decisionGETs.Load(); g != 0 {
		t.Errorf("piggybacking server saw %d decision GETs, want 0", g)
	}
	if counts.observations.Load() == 0 {
		t.Fatal("no observations reached the server")
	}

	old, oldCounts, _ := piggybackHarness(t, func(h http.Handler) http.Handler { return withoutDecide(t, h) })
	want := runEpisodes(t, old, runner, n)
	// The sim reports every monitor output before each decision, so against
	// a 204-only server each observation is followed by one GET. That
	// server also predates the fused start, so each observation is a POST.
	if g, o := oldCounts.decisionGETs.Load(), oldCounts.observations.Load(); g != o {
		t.Errorf("204-only server: %d decision GETs for %d observations, want one each", g, o)
	}
	if counts.observations.Load() != oldCounts.observations.Load() {
		t.Errorf("observations: %d with decide, %d without", counts.observations.Load(), oldCounts.observations.Load())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d: %+v with decide, %+v without", i, got[i], want[i])
		}
	}
}

// TestFusedStartFallsBackOnOldServer: against a server that ignores a
// start's first observation, the client sends that observation as an
// ordinary step-0 POST and the episodes come out equal to those a fused
// start opens — at one request more each, and still without a decision
// GET.
func TestFusedStartFallsBackOnOldServer(t *testing.T) {
	const n = 6
	c, counts, runner := piggybackHarness(t, func(h http.Handler) http.Handler { return h })
	got := runEpisodes(t, c, runner, n)
	old, oldCounts, _ := piggybackHarness(t, func(h http.Handler) http.Handler { return withoutFirst(t, h) })
	want := runEpisodes(t, old, runner, n)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d: %+v fused, %+v on a server without first", i, got[i], want[i])
		}
	}
	if s := counts.starts.Load(); s != n {
		t.Errorf("%d starts for %d episodes", s, n)
	}
	if s := oldCounts.starts.Load(); s != n {
		t.Errorf("server without first: %d starts for %d episodes", s, n)
	}
	if o, oo := counts.observations.Load(), oldCounts.observations.Load(); o != oo {
		t.Errorf("observations: %d fused, %d without first", o, oo)
	}
	if r, or := counts.requests.Load(), oldCounts.requests.Load(); or != r+n {
		t.Errorf("requests: %d fused, %d without first; want exactly %d more", r, or, n)
	}
	if g := counts.decisionGETs.Load() + oldCounts.decisionGETs.Load(); g != 0 {
		t.Errorf("%d decision GETs, want 0", g)
	}
}

// TestStartErrorSurfacesAtFirstExchange: a start is sent by the episode's
// first exchange, so its failure — here the episode cap's 429 — surfaces
// there, and a later exchange sends the start again.
func TestStartErrorSurfacesAtFirstExchange(t *testing.T) {
	var starts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if starts.Add(1) == 1 {
			http.Error(w, `{"error":"episode cap 1 reached"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"episodeId":5,"decision":{"action":1,"actionName":"observe","terminate":false,"value":-1}}`)
	}))
	defer hs.Close()
	c, err := New(hs.URL, hs.Client(), WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := c.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	if n := starts.Load(); n != 0 {
		t.Fatalf("StartEpisode sent %d requests, want none", n)
	}
	if err := ep.Observe(1, 0); StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("first Observe: %v, want the start's 429", err)
	}
	if err := ep.Observe(1, 0); err != nil {
		t.Fatal(err)
	}
	d, err := ep.Decide()
	if err != nil || d.Action != 1 || ep.ID() != 5 || ep.Steps() != 1 || starts.Load() != 2 {
		t.Fatalf("after the retried fused start: decision %+v (%v), id %d, steps %d, %d requests",
			d, err, ep.ID(), ep.Steps(), starts.Load())
	}
}

// TestDecideFallsBackToGET: a decision is fetched with GET whenever no
// observation answer carried one — the first step, after ObserveNamed, and
// after Resume — and exactly once per such step.
func TestDecideFallsBackToGET(t *testing.T) {
	c, counts, _ := piggybackHarness(t, func(h http.Handler) http.Handler { return h })
	ep, err := c.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := ep.Decide() // first step: nothing to piggyback on
	if err != nil {
		t.Fatal(err)
	}
	if g := counts.decisionGETs.Load(); g != 1 {
		t.Fatalf("first Decide: %d GETs, want 1", g)
	}
	if err := ep.ObserveNamed("observe", "obs-a-failed"); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Decide(); err != nil {
		t.Fatal(err)
	}
	if g := counts.decisionGETs.Load(); g != 2 {
		t.Fatalf("Decide after ObserveNamed: %d GETs in all, want 2", g)
	}
	if err := ep.Observe(d.Action, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Decide(); err != nil {
		t.Fatal(err)
	}
	if g := counts.decisionGETs.Load(); g != 2 {
		t.Fatalf("Decide after Observe: %d GETs in all, want still 2", g)
	}
	// The piggybacked decision is consumed: asking again goes to the server,
	// which answers from its per-step cache.
	if _, err := ep.Decide(); err != nil {
		t.Fatal(err)
	}
	if g := counts.decisionGETs.Load(); g != 3 {
		t.Fatalf("second Decide on one step: %d GETs in all, want 3", g)
	}
	resumed, err := c.Resume(ep.ID())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Steps() != ep.Steps() {
		t.Fatalf("resumed at step %d, want %d", resumed.Steps(), ep.Steps())
	}
	if _, err := resumed.Decide(); err != nil {
		t.Fatal(err)
	}
	if g := counts.decisionGETs.Load(); g != 4 {
		t.Fatalf("Decide after Resume: %d GETs in all, want 4", g)
	}
	// Abandoning drops a decision still held from the last observation.
	if err := ep.Observe(d.Action, 0); err != nil {
		t.Fatal(err)
	}
	if err := ep.Abandon(); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Decide(); err == nil {
		t.Error("Decide after Abandon returned the decision held from the last observation")
	}
}
