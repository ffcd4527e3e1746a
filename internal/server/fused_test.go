package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

// fusedBody is a fused start's body: key and the first observation.
func fusedBody(key string, action, observation int) string {
	return fmt.Sprintf(`{"clientKey":%q,"first":{"action":%d,"observation":%d}}`, key, action, observation)
}

// rawEpisode drives one served episode over raw HTTP as a
// controller.Controller, opening it with a fused start (fused) or with a
// plain start followed by a step-0 observation.
type rawEpisode struct {
	url   string
	key   string
	fused bool

	id      uint64
	started bool
	steps   int
	next    *DecisionResponse
}

func (e *rawEpisode) Reset(pomdp.Belief) error { return nil }
func (e *rawEpisode) Belief() pomdp.Belief     { return nil }
func (e *rawEpisode) Name() string             { return "raw" }

// call sends one request and decodes a 2xx answer into out.
func (e *rawEpisode) call(method, path, body string, out any) error {
	status, data, err := rawDo(method, e.url+path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d (%s)", method, path, status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (e *rawEpisode) Observe(action, observation int) error {
	if !e.started {
		var started StartResponse
		body := fmt.Sprintf(`{"clientKey":%q}`, e.key)
		if e.fused {
			body = fusedBody(e.key, action, observation)
		}
		if err := e.call(http.MethodPost, "/v1/episodes", body, &started); err != nil {
			return err
		}
		e.id, e.started = started.EpisodeID, true
		if e.fused {
			if started.Decision == nil {
				return fmt.Errorf("fused start answered without a decision")
			}
			e.steps, e.next = 1, started.Decision
			return nil
		}
	}
	e.next = new(DecisionResponse)
	err := e.call(http.MethodPost, fmt.Sprintf("/v1/episodes/%d/observations", e.id), observeBody(action, observation, e.steps), e.next)
	e.steps++
	return err
}

func (e *rawEpisode) Decide() (controller.Decision, error) {
	if e.next == nil {
		return controller.Decision{}, fmt.Errorf("no decision held at step %d", e.steps)
	}
	d := *e.next
	e.next = nil
	return controller.Decision{Action: d.Action, Terminate: d.Terminate, Value: d.Value}, nil
}

// TestFusedStartCampaignMatchesStartObserve: a seeded campaign whose
// episodes open with fused starts gives, episode for episode, the results of
// the same campaign opened with a plain start and a step-0 observation — and
// takes exactly one request fewer per episode.
func TestFusedStartCampaignMatchesStartObserve(t *testing.T) {
	prep := testPrepared(t)
	runner, err := sim.NewRunner(prep.Source, 200)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	run := func(fused bool) ([]sim.EpisodeResult, int64) {
		srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep)})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var requests atomic.Int64
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			srv.ServeHTTP(w, r)
		}))
		defer hs.Close()
		root := rng.New(41)
		var out []sim.EpisodeResult
		for i := range n {
			ep := &rawEpisode{url: hs.URL, key: fmt.Sprintf("ck-campaign-%d", i), fused: fused}
			stream := root.SplitN("ep", i)
			res, err := runner.RunEpisode(ep, nil, 1+stream.IntN(2), stream)
			if err != nil {
				t.Fatalf("fused=%v episode %d: %v", fused, i, err)
			}
			res.AlgoTime = 0 // wall time, not part of the trajectory
			out = append(out, res)
		}
		if open := srv.OpenEpisodes(); open != 0 {
			t.Errorf("fused=%v: %d episodes left open", fused, open)
		}
		return out, requests.Load()
	}
	got, fusedRequests := run(true)
	want, plainRequests := run(false)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d: %+v fused, %+v start+observe", i, got[i], want[i])
		}
	}
	if plainRequests-fusedRequests != n {
		t.Errorf("%d requests fused, %d start+observe: want exactly %d fewer", fusedRequests, plainRequests, n)
	}
}

// TestFusedStartRetransmit: a retransmitted fused start dedupes to the same
// episode and answers the byte-identical body — the cached decision, or
// once the episode has terminated at step 1, the tombstone's — without
// applying its observation twice.
func TestFusedStartRetransmit(t *testing.T) {
	prep := testPrepared(t)
	model := prep.Model
	observe := prep.Source.MonitorAction
	sc := pomdp.NewScratch(model)

	t.Run("live", func(t *testing.T) {
		srv, err := New(Config{Model: model, NewController: boundedFactory(prep)})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv)
		defer hs.Close()
		body := fusedBody("ck-fused", observe, healthyObs(model, sc, observe))
		status, first := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", body)
		if status != http.StatusCreated {
			t.Fatalf("fused start: %d %s", status, first)
		}
		var started StartResponse
		if err := json.Unmarshal(first, &started); err != nil || started.Decision == nil {
			t.Fatalf("fused start answer %s: %v", first, err)
		}
		status, again := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", body)
		if status != http.StatusOK || !bytes.Equal(again, first) {
			t.Fatalf("retransmit: %d %s, want 200 %s", status, again, first)
		}
		var st StatusResponse
		_, raw := rawCall(t, http.MethodGet, fmt.Sprintf("%s/v1/episodes/%d", hs.URL, started.EpisodeID), "")
		if err := json.Unmarshal(raw, &st); err != nil || st.Steps != 1 || !st.Open {
			t.Fatalf("status after a retransmit: %s (%v), want one step applied", raw, err)
		}
		// The decision is the one GET .../decision serves for step 1.
		_, got := rawCall(t, http.MethodGet, fmt.Sprintf("%s/v1/episodes/%d/decision", hs.URL, started.EpisodeID), "")
		want, _ := json.Marshal(started.Decision)
		if !bytes.Equal(bytes.TrimSpace(got), want) {
			t.Errorf("GET decision %s, fused start answered %s", got, want)
		}
		// A plain start with the key finds the same episode.
		status, plain := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", `{"clientKey":"ck-fused"}`)
		if want := fmt.Sprintf(`{"episodeId":%d}`+"\n", started.EpisodeID); status != http.StatusOK || string(plain) != want {
			t.Errorf("plain start on a fused key: %d %s, want 200 %s", status, plain, want)
		}
	})

	t.Run("terminal", func(t *testing.T) {
		srv, err := New(Config{Model: model, NewController: func() (controller.Controller, pomdp.Belief, error) {
			initial, err := prep.InitialBelief()
			return &stopController{}, initial, err
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv)
		defer hs.Close()
		body := fusedBody("ck-stop", observe, 0)
		status, first := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", body)
		var started StartResponse
		if err := json.Unmarshal(first, &started); status != http.StatusCreated || err != nil ||
			started.Decision == nil || !started.Decision.Terminate {
			t.Fatalf("fused start: %d %s, want 201 with a terminal decision", status, first)
		}
		if open := srv.OpenEpisodes(); open != 0 {
			t.Fatalf("%d open episodes after a terminal decision at step 1", open)
		}
		status, again := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", body)
		if status != http.StatusOK || !bytes.Equal(again, first) {
			t.Fatalf("retransmit after termination: %d %s, want 200 %s", status, again, first)
		}
	})
}

// TestFusedStartRefusedObservation: a first observation the model refuses
// (422) leaves no live episode and no store record, and the key stays free.
// A fused start that is accepted writes its episode to the store once.
func TestFusedStartRefusedObservation(t *testing.T) {
	prep := testPrepared(t)
	model := prep.Model
	observe := prep.Source.MonitorAction
	impossible := -1
	for o := range model.NumObservations() {
		if model.ObsName(o) == pomdp.TerminatedObsName {
			impossible = o
		}
	}
	if impossible < 0 {
		t.Fatal("model has no terminated observation")
	}
	store := &countingStore{Checkpointer: openStore(t, t.TempDir())}
	srv, err := New(Config{Model: model, NewController: boundedFactory(prep), Checkpointer: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	before := srv.OpenEpisodes()
	status, body := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", fusedBody("ck-refused", observe, impossible))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("impossible first observation: %d %s, want 422", status, body)
	}
	if open := srv.OpenEpisodes(); open != before {
		t.Errorf("open episodes %d after a refused start, want %d", open, before)
	}
	if n := store.saves.Load(); n != 0 {
		t.Errorf("a refused start saved %d records", n)
	}
	if states, _, err := store.LoadAll(); err != nil || len(states) != 0 {
		t.Errorf("store holds %d records after a refused start (%v)", len(states), err)
	}

	sc := pomdp.NewScratch(model)
	status, body = rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", fusedBody("ck-refused", observe, healthyObs(model, sc, observe)))
	if status != http.StatusCreated {
		t.Fatalf("valid fused start on the refused key: %d %s, want 201", status, body)
	}
	if n := store.saves.Load(); n != 1 {
		t.Errorf("a fused start saved %d records, want 1", n)
	}
	states, _, err := store.LoadAll()
	if err != nil || len(states) != 1 || states[0].Steps != 1 || states[0].ClientKey != "ck-refused" {
		t.Errorf("stored %+v (%v), want the one episode at step 1", states, err)
	}
}

// countingStore counts the episode records saved through it.
type countingStore struct {
	Checkpointer
	saves atomic.Int64
}

func (s *countingStore) Save(st EpisodeState) error {
	s.saves.Add(1)
	return s.Checkpointer.Save(st)
}

// TestFleetFusedStartRedirected: a fleet member that does not own the key
// redirects a fused start to the owner, and the owner applies its
// observation once, however often the redirected start arrives.
func TestFleetFusedStartRedirected(t *testing.T) {
	nodes, _ := newFleetPair(t)
	a, b := nodes["a"], nodes["b"]
	key := keyOwnedBy(t, a.view, "b")
	prep := testPrepared(t)
	observe := prep.Source.MonitorAction
	body := fusedBody(key, observe, healthyObs(prep.Model, pomdp.NewScratch(prep.Model), observe))

	resp, err := noRedirect().Post(a.hs.URL+"/v1/episodes", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get(HeaderOwner) != "b" {
		t.Fatalf("non-owner answered %d owner %q, want 307 to b", resp.StatusCode, resp.Header.Get(HeaderOwner))
	}
	if open := a.srv.OpenEpisodes(); open != 0 {
		t.Fatalf("non-owner opened %d episodes", open)
	}

	// Followed, the redirect replays the body to the owner.
	status, first := rawCall(t, http.MethodPost, a.hs.URL+"/v1/episodes", body)
	var started StartResponse
	if err := json.Unmarshal(first, &started); status != http.StatusCreated || err != nil || started.Decision == nil {
		t.Fatalf("redirected fused start: %d %s", status, first)
	}
	status, again := rawCall(t, http.MethodPost, a.hs.URL+"/v1/episodes", body)
	if status != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("redirected retransmit: %d %s, want 200 %s", status, again, first)
	}
	if a.srv.OpenEpisodes() != 0 || b.srv.OpenEpisodes() != 1 {
		t.Fatalf("open episodes a=%d b=%d, want 0 and 1", a.srv.OpenEpisodes(), b.srv.OpenEpisodes())
	}
	var st StatusResponse
	_, raw := rawCall(t, http.MethodGet, fmt.Sprintf("%s/v1/episodes/%d", b.hs.URL, started.EpisodeID), "")
	if err := json.Unmarshal(raw, &st); err != nil || st.Steps != 1 {
		t.Fatalf("owner status %s (%v), want the first observation applied once", raw, err)
	}
}

// TestFusedStartSpanExplainsDecision: the handler span of a traced fused
// start carries the decision it computed for step 1, with the bound-gap
// explanation of a stats-collecting controller; a retransmit's span, served
// from the cache, carries none.
func TestFusedStartSpanExplainsDecision(t *testing.T) {
	prep := testPrepared(t)
	sink := &spanBuffer{}
	srv, err := New(Config{
		Model: prep.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1, CollectStats: true})
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
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	const key = "ck-fused-span"
	observe := prep.Source.MonitorAction
	body := fusedBody(key, observe, healthyObs(prep.Model, pomdp.NewScratch(prep.Model), observe))
	var answers []StartResponse
	for range 2 {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/episodes", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderTrace, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out StartResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || out.Decision == nil {
			t.Fatalf("fused start answered %d without a decision (%v)", resp.StatusCode, err)
		}
		answers = append(answers, out)
	}

	var starts []obs.SpanRecord
	for _, sp := range sink.Spans(t) {
		if sp.Kind == obs.SpanServerStart {
			starts = append(starts, sp)
		}
	}
	if len(starts) != 2 {
		t.Fatalf("%d server.start spans, want 2", len(starts))
	}
	rec := starts[0].Decision
	d := answers[0].Decision
	if rec == nil || rec.Explanation == nil {
		t.Fatalf("fused start span carries decision %+v, want one with an explanation", rec)
	}
	if rec.Step != 1 || rec.Terminate != d.Terminate || rec.Value != d.Value || rec.ActionName != d.ActionName {
		t.Errorf("span decision %+v, answered %+v at step 1", rec, d)
	}
	if starts[0].Tier == "" {
		t.Error("fused start span names no tier")
	}
	if starts[1].Decision != nil {
		t.Errorf("retransmit span carries decision %+v, want none (served from the cache)", starts[1].Decision)
	}
}
