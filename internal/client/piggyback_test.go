package client

import (
	"bytes"
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

// piggybackHarness serves the two-server model and returns a client, the
// request counts of its handler, and a campaign runner.
func piggybackHarness(t *testing.T) (*Client, *requestCounter, *sim.Runner) {
	t.Helper()
	prep, rm := twoServerPrep(t)
	srv, err := server.New(server.Config{Model: prep.Model, NewController: boundedFactory(prep)})
	if err != nil {
		t.Fatal(err)
	}
	counts := &requestCounter{}
	hs := httptest.NewServer(counts.wrap(srv))
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

// runEpisodes drives n simulated episodes through c; each must recover.
func runEpisodes(t *testing.T, c *Client, runner *sim.Runner, n int) {
	t.Helper()
	root := rng.New(29)
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
	}
}

// TestObservePiggybacksDecision: a simulated episode is one round trip per
// step — its fused start carries the first observation, each later
// observation's answer carries the next decision — so the handler sees one
// start per episode, one request per observation and never a decision GET.
func TestObservePiggybacksDecision(t *testing.T) {
	const n = 6
	c, counts, runner := piggybackHarness(t)
	runEpisodes(t, c, runner, n)
	if g := counts.decisionGETs.Load(); g != 0 {
		t.Errorf("%d decision GETs, want 0", g)
	}
	if s := counts.starts.Load(); s != n {
		t.Errorf("%d starts for %d episodes", s, n)
	}
	if r, o := counts.requests.Load(), counts.observations.Load(); o == 0 || r != o {
		t.Errorf("%d requests for %d observations, want one each", r, o)
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
// observation answer carried one — the first step after a plain start, a
// second Decide on one step, and after Resume — and exactly once per such
// step. ObserveNamed's answer carries the decision, as Observe's does.
func TestDecideFallsBackToGET(t *testing.T) {
	c, counts, _ := piggybackHarness(t)
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
	if g := counts.decisionGETs.Load(); g != 1 {
		t.Fatalf("Decide after ObserveNamed: %d GETs in all, want still 1", g)
	}
	if err := ep.Observe(d.Action, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Decide(); err != nil {
		t.Fatal(err)
	}
	if g := counts.decisionGETs.Load(); g != 1 {
		t.Fatalf("Decide after Observe: %d GETs in all, want still 1", g)
	}
	// The piggybacked decision is consumed: asking again goes to the server,
	// which answers from its per-step cache.
	if _, err := ep.Decide(); err != nil {
		t.Fatal(err)
	}
	if g := counts.decisionGETs.Load(); g != 2 {
		t.Fatalf("second Decide on one step: %d GETs in all, want 2", g)
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
	if g := counts.decisionGETs.Load(); g != 3 {
		t.Fatalf("Decide after Resume: %d GETs in all, want 3", g)
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
