package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpomdp/internal/pomdp"
)

// rawDo performs one request and returns the status and the body bytes
// exactly as the server wrote them.
func rawDo(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func rawCall(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	status, data, err := rawDo(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, data
}

// observeBody is one observation request body with a step index.
func observeBody(action, obs, step int, decide bool) string {
	if decide {
		return fmt.Sprintf(`{"action":%d,"observation":%d,"stepIndex":%d,"decide":true}`, action, obs, step)
	}
	return fmt.Sprintf(`{"action":%d,"observation":%d,"stepIndex":%d}`, action, obs, step)
}

// healthyObs is the first successor observation of action from the healthy
// state: enough to walk any episode to termination.
func healthyObs(model *pomdp.POMDP, sc *pomdp.Scratch, action int) int {
	return model.Successors(sc, pomdp.PointBelief(model.NumStates(), 0), action)[0].Obs
}

// driveTerminalDecide walks a keyed episode to termination one round trip
// per step — each observation asks for the next decision — and returns the
// episode id, the final observation's request body, and the terminal
// decision's bytes as the server first wrote them.
func driveTerminalDecide(t *testing.T, url string, model *pomdp.POMDP, key string) (uint64, string, []byte) {
	t.Helper()
	id, req, body, err := terminateByDecide(url, model, pomdp.NewScratch(model), key)
	if err != nil {
		t.Fatal(err)
	}
	return id, req, body
}

// terminateByDecide is driveTerminalDecide for any goroutine: failures are
// returned.
func terminateByDecide(url string, model *pomdp.POMDP, sc *pomdp.Scratch, key string) (uint64, string, []byte, error) {
	status, body, err := rawDo(http.MethodPost, url+"/v1/episodes", fmt.Sprintf(`{"clientKey":%q}`, key))
	if err != nil || status != http.StatusCreated {
		return 0, "", nil, fmt.Errorf("start: status %d (%s): %v", status, body, err)
	}
	var started StartResponse
	if err := json.Unmarshal(body, &started); err != nil {
		return 0, "", nil, err
	}
	id := started.EpisodeID
	status, body, err = rawDo(http.MethodGet, fmt.Sprintf("%s/v1/episodes/%d/decision", url, id), "")
	if err != nil || status != http.StatusOK {
		return 0, "", nil, fmt.Errorf("first decision: status %d (%s): %v", status, body, err)
	}
	for step := 0; step < 50; step++ {
		var d DecisionResponse
		if err := json.Unmarshal(body, &d); err != nil {
			return 0, "", nil, err
		}
		if d.Terminate {
			return 0, "", nil, fmt.Errorf("episode %d terminated before any observation", id)
		}
		req := observeBody(d.Action, healthyObs(model, sc, d.Action), step, true)
		status, body, err = rawDo(http.MethodPost, fmt.Sprintf("%s/v1/episodes/%d/observations", url, id), req)
		if err != nil || status != http.StatusOK {
			return 0, "", nil, fmt.Errorf("episode %d step %d: status %d (%s): %v", id, step, status, body, err)
		}
		if err := json.Unmarshal(body, &d); err != nil {
			return 0, "", nil, err
		}
		if d.Terminate {
			return id, req, body, nil
		}
	}
	return 0, "", nil, fmt.Errorf("episode %d did not terminate", id)
}

// TestObservationDecideMatchesDecisionGET pins the one-round-trip contract:
// an observation with decide set answers 200 with exactly the bytes a later
// GET .../decision returns for the new step, a retransmit gets the cached
// decision without re-running the controller, a retransmit of the final
// observation gets the terminal decision back from the tombstone, and an
// observation without decide still answers 204.
func TestObservationDecideMatchesDecisionGET(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	model := prep.Model
	sc := pomdp.NewScratch(model)

	status, body := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", `{"clientKey":"ck-decide"}`)
	if status != http.StatusCreated {
		t.Fatalf("start: status %d", status)
	}
	var started StartResponse
	if err := json.Unmarshal(body, &started); err != nil {
		t.Fatal(err)
	}
	epURL := fmt.Sprintf("%s/v1/episodes/%d", hs.URL, started.EpisodeID)
	status, body = rawCall(t, http.MethodGet, epURL+"/decision", "")
	if status != http.StatusOK {
		t.Fatalf("first decision: status %d", status)
	}
	decided := 1

	var finalReq string
	var finalBody []byte
	for step := 0; step < 50 && finalBody == nil; step++ {
		var d DecisionResponse
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		obs := healthyObs(model, sc, d.Action)
		if step == 0 {
			// Without decide the observation is acknowledged as before: 204,
			// no body. Its decide retransmit then asks for the decision.
			st, b := rawCall(t, http.MethodPost, epURL+"/observations", observeBody(d.Action, obs, step, false))
			if st != http.StatusNoContent || len(b) != 0 {
				t.Fatalf("observation without decide: status %d body %q, want 204 and no body", st, b)
			}
		}
		req := observeBody(d.Action, obs, step, true)
		status, body = rawCall(t, http.MethodPost, epURL+"/observations", req)
		if status != http.StatusOK {
			t.Fatalf("step %d: status %d (%s), want 200", step, status, body)
		}
		decided++
		if st, again := rawCall(t, http.MethodPost, epURL+"/observations", req); st != http.StatusOK || !bytes.Equal(again, body) {
			t.Fatalf("step %d retransmit: status %d body %s, want 200 %s", step, st, again, body)
		}
		if st, got := rawCall(t, http.MethodGet, epURL+"/decision", ""); st != http.StatusOK || !bytes.Equal(got, body) {
			t.Fatalf("step %d: GET decision %d %s, observation answered %s", step, st, got, body)
		}
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		if d.Terminate {
			finalReq, finalBody = req, body
		}
	}
	if finalBody == nil {
		t.Fatal("episode did not terminate")
	}
	if srv.OpenEpisodes() != 0 {
		t.Fatalf("%d episodes open after the terminal decision", srv.OpenEpisodes())
	}
	// The final observation's answer was the one the network could lose: its
	// retransmit hits the tombstone and gets the same bytes.
	if st, got := rawCall(t, http.MethodPost, epURL+"/observations", finalReq); st != http.StatusOK || !bytes.Equal(got, finalBody) {
		t.Errorf("final retransmit after termination: status %d body %s, want 200 %s", st, got, finalBody)
	}
	// Only the final observation is a retransmit; a later step, or one that
	// does not ask for the decision, is for an episode that is gone.
	var fr ObservationRequest
	if err := json.Unmarshal([]byte(finalReq), &fr); err != nil {
		t.Fatal(err)
	}
	if st, _ := rawCall(t, http.MethodPost, epURL+"/observations", observeBody(fr.Action, fr.Observation, *fr.StepIndex+1, true)); st != http.StatusNotFound {
		t.Errorf("observation past the terminal step: status %d, want 404", st)
	}
	if st, _ := rawCall(t, http.MethodPost, epURL+"/observations", observeBody(fr.Action, fr.Observation, *fr.StepIndex, false)); st != http.StatusNotFound {
		t.Errorf("final retransmit without decide: status %d, want 404", st)
	}
	// Retransmits and GETs were served from the caches: the controller ran
	// once per step.
	if got := metricValue(t, metricsBody(t, hs.URL), "recoverd_decisions_total"); got != float64(decided) {
		t.Errorf("recoverd_decisions_total = %v, want %d (one per step)", got, decided)
	}
}

// fillTombstoneCache inserts maxTombstones cache-only tombstones for fresh
// ids above from, each terminated later than anything before it — the
// steady state of a long-running server, in which the cache is full of
// tombstones newer than the one a late retry asks for.
func fillTombstoneCache(s *Server, from uint64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < maxTombstones; i++ {
		s.insertTombstoneLocked(TombstoneState{
			EpisodeID:            from + uint64(i),
			Steps:                1,
			Final:                DecisionResponse{Action: 3, ActionName: "terminate", Terminate: true},
			TerminatedAtUnixNano: at.Add(time.Duration(i) * time.Millisecond).UnixNano(),
		})
	}
}

// TestTombstoneCapEvictedFallsBackToStore is the regression test for the
// cap-evicted tombstone: with the cache full of newer tombstones, a late
// retry — the decision GET, the status GET, or the final observation's
// retransmit — must be answered from the store's durable record with the
// original terminal decision, not 404.
func TestTombstoneCapEvictedFallsBackToStore(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			prep := testPrepared(t)
			srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep),
				Checkpointer: openStore(t, kind, t.TempDir())})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			hs := httptest.NewServer(srv)
			defer hs.Close()
			id, finalReq, finalBody := driveTerminalDecide(t, hs.URL, prep.Model, "ck-cap")
			epURL := fmt.Sprintf("%s/v1/episodes/%d", hs.URL, id)

			evict := func(round int) {
				t.Helper()
				fillTombstoneCache(srv, id+1+uint64(round*maxTombstones), time.Now().Add(time.Duration(round+1)*time.Hour))
				if ep, tb := srv.cached(id); ep != nil || tb != nil {
					t.Fatalf("round %d: tombstone %d still cached after %d newer ones", round, id, maxTombstones)
				}
			}

			evict(0)
			if st, got := rawCall(t, http.MethodGet, epURL+"/decision", ""); st != http.StatusOK || !bytes.Equal(got, finalBody) {
				t.Errorf("decision after cap eviction: status %d body %s, want 200 %s", st, got, finalBody)
			}
			evict(1)
			if st, got := rawCall(t, http.MethodPost, epURL+"/observations", finalReq); st != http.StatusOK || !bytes.Equal(got, finalBody) {
				t.Errorf("final retransmit after cap eviction: status %d body %s, want 200 %s", st, got, finalBody)
			}
			evict(2)
			st, got := rawCall(t, http.MethodGet, epURL, "")
			var status StatusResponse
			if err := json.Unmarshal(got, &status); err != nil || st != http.StatusOK || status.Open {
				t.Errorf("status after cap eviction: %d %s, want 200 closed", st, got)
			}
		})
	}
}

// checkTombOrder asserts the eviction queue's invariants: every cached
// tombstone has exactly one live reference, and the queue stays within
// twice the cache size (plus the one insertion before compaction).
func checkTombOrder(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[uint64]int)
	for _, ref := range s.tombOrder {
		if tb := s.tombstones[ref.id]; tb != nil && tb.seq == ref.seq {
			live[ref.id]++
		}
	}
	for id := range s.tombstones {
		if live[id] != 1 {
			t.Fatalf("tombstone %d has %d live queue references, want 1", id, live[id])
		}
	}
	if n := len(s.tombOrder); n > 2*len(s.tombstones)+1 {
		t.Fatalf("queue holds %d references for %d tombstones", n, len(s.tombstones))
	}
}

func newCacheTestServer(t *testing.T, ttl time.Duration, now func() time.Time) *Server {
	t.Helper()
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), TombstoneTTL: ttl, now: now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func insertTomb(s *Server, id uint64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertTombstoneLocked(TombstoneState{EpisodeID: id, ClientKey: fmt.Sprintf("k%d", id),
		Final: DecisionResponse{Terminate: true}, TerminatedAtUnixNano: at.UnixNano()})
}

// cachedIDs reports which of ids are in the tombstone cache, checking that
// each cached tombstone's key routes to it and an evicted one's does not.
func cachedIDs(t *testing.T, s *Server, ids ...uint64) map[uint64]bool {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		_, inCache := s.tombstones[id]
		if keyed := s.tombByKey[fmt.Sprintf("k%d", id)] == id; keyed != inCache {
			t.Fatalf("tombstone %d: cached %v but key routed %v", id, inCache, keyed)
		}
		out[id] = inCache
	}
	return out
}

// TestTombstoneCacheEvictsInInsertionOrder: past the cap the cache drops
// the tombstone inserted longest ago, whatever its termination time — here
// the insertions run backwards in time, so termination-time order would
// evict the newest insertions instead.
func TestTombstoneCacheEvictsInInsertionOrder(t *testing.T) {
	srv := newCacheTestServer(t, 0, nil)
	base := time.Now()
	for id := uint64(1); id <= maxTombstones; id++ {
		insertTomb(srv, id, base.Add(-time.Duration(id)*time.Second))
	}
	for id := uint64(maxTombstones + 1); id <= maxTombstones+3; id++ {
		insertTomb(srv, id, base.Add(-time.Duration(id)*time.Second))
	}
	got := cachedIDs(t, srv, 1, 2, 3, 4, maxTombstones, maxTombstones+3)
	for id, want := range map[uint64]bool{1: false, 2: false, 3: false, 4: true, maxTombstones: true, maxTombstones + 3: true} {
		if got[id] != want {
			t.Errorf("tombstone %d cached = %v, want %v", id, got[id], want)
		}
	}
	srv.mu.Lock()
	n, overflow := len(srv.tombstones), srv.tombOverflow
	srv.mu.Unlock()
	if n != maxTombstones || !overflow {
		t.Errorf("cache holds %d (overflow %v), want %d and overflow", n, overflow, maxTombstones)
	}
	checkTombOrder(t, srv)
}

// TestTombstoneEvictionSkipsSweptAndReinserted interleaves the cap with
// Sweep and re-insertion: references to swept tombstones and the stale
// reference of a re-inserted one are skipped, so the cap evicts the oldest
// insertion that is still cached, and a re-inserted tombstone counts as new.
func TestTombstoneEvictionSkipsSweptAndReinserted(t *testing.T) {
	now := time.Now()
	srv := newCacheTestServer(t, time.Minute, func() time.Time { return now })
	for id := uint64(1); id <= maxTombstones; id++ {
		at := now
		if id <= 10 {
			at = now.Add(-2 * time.Minute) // expired: Sweep takes 1..10
		}
		insertTomb(srv, id, at)
	}
	srv.Sweep()
	if got := cachedIDs(t, srv, 1, 10, 11); got[1] || got[10] || !got[11] {
		t.Fatalf("after Sweep: %v, want 1 and 10 gone, 11 kept", got)
	}
	insertTomb(srv, 11, now) // re-insert: 11 is now the newest
	for id := uint64(maxTombstones + 1); id <= maxTombstones+11; id++ {
		insertTomb(srv, id, now)
	}
	// 10 swept references and 11's stale one are skipped; only 12 goes.
	got := cachedIDs(t, srv, 11, 12, 13, maxTombstones+11)
	for id, want := range map[uint64]bool{11: true, 12: false, 13: true, maxTombstones + 11: true} {
		if got[id] != want {
			t.Errorf("tombstone %d cached = %v, want %v", id, got[id], want)
		}
	}
	checkTombOrder(t, srv)
}

// TestTombstoneOrderQueueBounded drives a long random mix of new
// tombstones, re-insertions, and TTL sweeps, alternating phases that fill
// the cache past its cap with phases in which the TTL drains it: the queue
// keeps one live reference per cached tombstone and never grows past twice
// the cache size.
func TestTombstoneOrderQueueBounded(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	srv := newCacheTestServer(t, 5000*time.Second, now)
	r := rand.New(rand.NewPCG(7, 11))
	next := uint64(1)
	maxQueue, maxCache := 0, 0
	for op := 0; op < 36000; op++ {
		clock.Add(int64(time.Second))
		rate := 950 // per mille of ops inserting a new tombstone
		if (op/6000)%2 == 1 {
			rate = 300
		}
		switch x := r.IntN(1000); {
		case x < 2:
			srv.Sweep()
		case x < 150 && next > 1:
			insertTomb(srv, 1+r.Uint64N(next-1), now())
		case x < rate:
			insertTomb(srv, next, now())
			next++
		}
		srv.mu.Lock()
		maxQueue = max(maxQueue, len(srv.tombOrder))
		maxCache = max(maxCache, len(srv.tombstones))
		srv.mu.Unlock()
		if op%1000 == 0 {
			checkTombOrder(t, srv)
		}
	}
	checkTombOrder(t, srv)
	if maxQueue > 2*maxTombstones+1 {
		t.Errorf("queue peaked at %d references, want <= %d", maxQueue, 2*maxTombstones+1)
	}
	if maxCache != maxTombstones {
		t.Errorf("cache peaked at %d tombstones; the mix never reached the cap %d", maxCache, maxTombstones)
	}
	if srv.m.tombstonesEvicted.Value() == 0 {
		t.Error("no Sweep ever expired a tombstone")
	}
}

// TestConcurrentTerminationsKeepTombOrder terminates episodes from several
// goroutines at once — each termination inserting into the tombstone cache
// past its cap — while Sweep runs alongside, then checks the eviction
// queue's invariants and that every final answer still replays from the
// cache.
func TestConcurrentTerminationsKeepTombOrder(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), TombstoneTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	// A full cache: every termination during the run evicts one of these
	// older tombstones, never a tombstone the run inserted.
	fillTombstoneCache(srv, 1<<40, time.Now())

	const workers, perWorker = 4, 8
	type final struct {
		id   uint64
		req  string
		body []byte
	}
	finals := make([][]final, workers)
	stop := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
				srv.Sweep()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := pomdp.NewScratch(prep.Model)
			for i := 0; i < perWorker; i++ {
				id, req, body, err := terminateByDecide(hs.URL, prep.Model, sc, fmt.Sprintf("ck-%d-%d", w, i))
				if err != nil {
					t.Error(err)
					return
				}
				finals[w] = append(finals[w], final{id, req, body})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-swept

	checkTombOrder(t, srv)
	if n := srv.OpenEpisodes(); n != 0 {
		t.Errorf("%d episodes open after every one terminated", n)
	}
	for _, fs := range finals {
		for _, f := range fs {
			url := fmt.Sprintf("%s/v1/episodes/%d/observations", hs.URL, f.id)
			if st, got := rawCall(t, http.MethodPost, url, f.req); st != http.StatusOK || !bytes.Equal(got, f.body) {
				t.Errorf("episode %d final retransmit: status %d body %s, want 200 %s", f.id, st, got, f.body)
			}
		}
	}
}
