package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bpomdp/internal/pomdp"
)

// driveTerminal starts one episode (keyed when key != "") and walks it to a
// terminate decision with healthy-system observations, returning the episode
// id and the final decision body exactly as the server encoded it.
func driveTerminal(t *testing.T, hs *httptest.Server, model *pomdp.POMDP, key string) (uint64, DecisionResponse) {
	t.Helper()
	var body *strings.Reader
	if key != "" {
		body = strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key))
	} else {
		body = strings.NewReader("")
	}
	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var started StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := started.EpisodeID

	sc := pomdp.NewScratch(model)
	var final DecisionResponse
	for step := 0; step < 50; step++ {
		resp, err := http.Get(hs.URL + fmt.Sprintf("/v1/episodes/%d/decision", id))
		if err != nil {
			t.Fatal(err)
		}
		var d DecisionResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d.Terminate {
			final = d
			break
		}
		succs := model.Successors(sc, pomdp.PointBelief(model.NumStates(), 0), d.Action)
		ob := fmt.Sprintf(`{"action":%d,"observation":%d}`, d.Action, succs[0].Obs)
		or, err := http.Post(hs.URL+fmt.Sprintf("/v1/episodes/%d/observations", id), "application/json", strings.NewReader(ob))
		if err != nil {
			t.Fatal(err)
		}
		or.Body.Close()
	}
	if !final.Terminate {
		t.Fatal("episode did not terminate")
	}
	return id, final
}

func getDecision(t *testing.T, url string, id uint64) (int, DecisionResponse) {
	t.Helper()
	resp, err := http.Get(url + fmt.Sprintf("/v1/episodes/%d/decision", id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d DecisionResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, d
}

// TestTombstoneConfigValidation pins the TTL/retry-budget contract: a
// tombstone that can expire while a client is still inside its retry budget
// reopens the lost-final-decision window, so New refuses the config.
func TestTombstoneConfigValidation(t *testing.T) {
	prep := testPrepared(t)
	base := func() Config {
		return Config{Model: prep.Model, NewController: boundedFactory(prep)}
	}

	cfg := base()
	cfg.TombstoneTTL = 5 * time.Second
	cfg.ClientRetryBudget = 15 * time.Second
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("TTL below budget accepted (err=%v)", err)
	}

	// The fallback TTL (EpisodeTTL when TombstoneTTL is unset) is held to the
	// same floor.
	cfg = base()
	cfg.EpisodeTTL = 5 * time.Second
	cfg.ClientRetryBudget = 15 * time.Second
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("fallback TTL below budget accepted (err=%v)", err)
	}

	cfg = base()
	cfg.TombstoneTTL = -time.Second
	if _, err := New(cfg); err == nil {
		t.Error("negative tombstone TTL accepted")
	}
	cfg = base()
	cfg.ClientRetryBudget = -time.Second
	if _, err := New(cfg); err == nil {
		t.Error("negative retry budget accepted")
	}

	// TTL at or above the budget, or eviction disabled entirely, is fine.
	cfg = base()
	cfg.TombstoneTTL = 15 * time.Second
	cfg.ClientRetryBudget = 15 * time.Second
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("TTL == budget rejected: %v", err)
	}
	srv.Close()
	cfg = base()
	cfg.ClientRetryBudget = time.Hour // no TTL: tombstones never expire
	srv, err = New(cfg)
	if err != nil {
		t.Fatalf("budget without TTL rejected: %v", err)
	}
	srv.Close()
}

// TestTombstoneSurvivesRestart is the single-node half of the closed window:
// the terminal decision must outlive the process that computed it. A second
// server over the same store replays the decision byte-for-byte and still
// dedupes the client key to the original episode id.
func TestTombstoneSurvivesRestart(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		prep := testPrepared(t)
		dir := t.TempDir()
		cp := openStore(t, dir)
		srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: cp})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		id, final := driveTerminal(t, hs, prep.Model, "ck-restart")
		hs.Close()
		srv.Close()

		cp2 := openStore(t, dir)
		srv2, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: cp2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv2.Close()
		hs2 := httptest.NewServer(srv2)
		defer hs2.Close()

		rep := srv2.Restored()
		if rep.Tombstones != 1 || rep.Resumed != 0 {
			t.Fatalf("restored %d tombstones, %d episodes; want 1, 0", rep.Tombstones, rep.Resumed)
		}
		status, replayed := getDecision(t, hs2.URL, id)
		if status != http.StatusOK || replayed != final {
			t.Errorf("restarted decision %+v (status %d), want %+v", replayed, status, final)
		}
		// Status reports the episode as closed, not unknown.
		resp, err := http.Get(hs2.URL + fmt.Sprintf("/v1/episodes/%d", id))
		if err != nil {
			t.Fatal(err)
		}
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || st.Open {
			t.Errorf("post-restart status %+v (code %d), want closed", st, resp.StatusCode)
		}
		// The idempotency key still routes to the finished episode rather
		// than starting a fresh one that would shadow the tombstone.
		resp, err = http.Post(hs2.URL+"/v1/episodes", "application/json",
			strings.NewReader(`{"clientKey":"ck-restart"}`))
		if err != nil {
			t.Fatal(err)
		}
		var again StartResponse
		if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || again.EpisodeID != id {
			t.Errorf("post-restart keyed start: status %d id %d, want 200 id %d", resp.StatusCode, again.EpisodeID, id)
		}
		if srv2.OpenEpisodes() != 0 {
			t.Errorf("open episodes after restart = %d", srv2.OpenEpisodes())
		}
		// The allocator must resume above the tombstoned id: a different
		// key minting a fresh episode at the same id would shadow the
		// terminal decision and collide in the store.
		resp, err = http.Post(hs2.URL+"/v1/episodes", "application/json",
			strings.NewReader(`{"clientKey":"ck-other"}`))
		if err != nil {
			t.Fatal(err)
		}
		var other StartResponse
		if err := json.NewDecoder(resp.Body).Decode(&other); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || other.EpisodeID != id+1 {
			t.Errorf("fresh start after restart: status %d id %d, want 201 id %d", resp.StatusCode, other.EpisodeID, id+1)
		}
	})
}

// noDeleteStore simulates a crash in the write-ahead window: the tombstone
// is persisted but the episode record's deletion never happens.
type noDeleteStore struct{ Checkpointer }

func (noDeleteStore) Delete(uint64) error { return nil }

// TestTombstoneWriteAheadRestore covers the crash between SaveTombstone and
// Delete: the store then holds both the live episode record and its
// tombstone. Restore must treat the tombstone as authoritative — the episode
// is over — and clean up the stale record.
func TestTombstoneWriteAheadRestore(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		prep := testPrepared(t)
		dir := t.TempDir()
		cp := openStore(t, dir)
		srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep),
			Checkpointer: noDeleteStore{cp}})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		id, final := driveTerminal(t, hs, prep.Model, "ck-wal")
		hs.Close()
		srv.Close()

		// The crash left both records behind.
		states, _, err := cp.LoadAll()
		if err != nil || len(states) != 1 {
			t.Fatalf("pre-restore store: %d episode records (err=%v), want 1", len(states), err)
		}
		tombs, _, err := cp.LoadTombstones()
		if err != nil || len(tombs) != 1 {
			t.Fatalf("pre-restore store: %d tombstones (err=%v), want 1", len(tombs), err)
		}

		cp2 := openStore(t, dir)
		srv2, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: cp2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv2.Close()
		hs2 := httptest.NewServer(srv2)
		defer hs2.Close()

		rep := srv2.Restored()
		if rep.Tombstones != 1 || rep.Resumed != 0 {
			t.Fatalf("restored %d tombstones, %d episodes; want tombstone to win (1, 0)", rep.Tombstones, rep.Resumed)
		}
		if srv2.OpenEpisodes() != 0 {
			t.Errorf("stale episode resurrected: %d open", srv2.OpenEpisodes())
		}
		status, replayed := getDecision(t, hs2.URL, id)
		if status != http.StatusOK || replayed != final {
			t.Errorf("decision after write-ahead recovery %+v (status %d), want %+v", replayed, status, final)
		}
		// And the stale record was deleted, not just skipped.
		if states, _, err := cp2.LoadAll(); err != nil || len(states) != 0 {
			t.Errorf("stale episode record survives restore: %+v (err=%v)", states, err)
		}
	})
}

// crowdedStore serves its store's tombstones followed by extra ones, as if
// the store held them too.
type crowdedStore struct {
	Checkpointer
	extra []TombstoneState
}

func (c crowdedStore) LoadTombstones() ([]TombstoneState, []CorruptCheckpoint, error) {
	tombs, corrupt, err := c.Checkpointer.LoadTombstones()
	return append(tombs, c.extra...), corrupt, err
}

// TestTombstoneWriteAheadRestorePastCap is the write-ahead crash of
// TestTombstoneWriteAheadRestore with more than maxTombstones newer
// tombstones beside it, so the cache evicts the stale record's tombstone
// while restoring. The record must still be recognised as stale: deleted,
// never resumed.
func TestTombstoneWriteAheadRestorePastCap(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		prep := testPrepared(t)
		dir := t.TempDir()
		cp := openStore(t, dir)
		srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep),
			Checkpointer: noDeleteStore{cp}})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		id, final := driveTerminal(t, hs, prep.Model, "ck-wal-cap")
		hs.Close()
		srv.Close()

		newer := make([]TombstoneState, maxTombstones)
		later := time.Now().Add(time.Hour)
		for i := range newer {
			newer[i] = TombstoneState{
				EpisodeID:            id + 1 + uint64(i),
				Steps:                1,
				Final:                DecisionResponse{Action: 3, ActionName: "terminate", Terminate: true},
				TerminatedAtUnixNano: later.Add(time.Duration(i) * time.Millisecond).UnixNano(),
			}
		}
		cp2 := openStore(t, dir)
		srv2, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep),
			Checkpointer: crowdedStore{cp2, newer}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv2.Close()
		hs2 := httptest.NewServer(srv2)
		defer hs2.Close()

		rep := srv2.Restored()
		if rep.Tombstones != maxTombstones+1 || rep.Resumed != 0 || len(rep.Failed) != 0 {
			t.Fatalf("restored %d tombstones, %d episodes, %d failures; want %d, 0, 0",
				rep.Tombstones, rep.Resumed, len(rep.Failed), maxTombstones+1)
		}
		if srv2.OpenEpisodes() != 0 {
			t.Errorf("stale episode resurrected: %d open", srv2.OpenEpisodes())
		}
		if states, _, err := cp2.LoadAll(); err != nil || len(states) != 0 {
			t.Errorf("stale episode record survives restore: %+v (err=%v)", states, err)
		}
		status, replayed := getDecision(t, hs2.URL, id)
		if status != http.StatusOK || replayed != final {
			t.Errorf("decision after write-ahead recovery %+v (status %d), want %+v", replayed, status, final)
		}
	})
}

// TestTombstoneTTLEviction drives the store-backed eviction path: once the
// TTL passes, Sweep removes the tombstone from the cache AND the durable
// store, and the decision is genuinely gone.
func TestTombstoneTTLEviction(t *testing.T) {
	prep := testPrepared(t)
	dir := t.TempDir()
	cp := openStore(t, dir)
	var mu sync.Mutex
	now := time.Now()
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	srv, err := New(Config{
		Model:             prep.Model,
		NewController:     boundedFactory(prep),
		Checkpointer:      cp,
		TombstoneTTL:      time.Minute,
		ClientRetryBudget: 30 * time.Second,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	id, final := driveTerminal(t, hs, prep.Model, "ck-ttl")

	// Inside the TTL the tombstone holds, in memory and on disk.
	if n := srv.Sweep(); n != 0 {
		t.Fatalf("Sweep evicted %d episodes on a fresh tombstone", n)
	}
	status, replayed := getDecision(t, hs.URL, id)
	if status != http.StatusOK || replayed != final {
		t.Fatalf("fresh tombstone: status %d decision %+v", status, replayed)
	}
	if tombs, _, err := cp.LoadTombstones(); err != nil || len(tombs) != 1 {
		t.Fatalf("store tombstones before TTL: %d (err=%v), want 1", len(tombs), err)
	}

	advance(2 * time.Minute)
	srv.Sweep()
	if status, _ := getDecision(t, hs.URL, id); status != http.StatusNotFound {
		t.Errorf("expired tombstone still served: status %d", status)
	}
	if tombs, _, err := cp.LoadTombstones(); err != nil || len(tombs) != 0 {
		t.Errorf("store still holds %d tombstones after TTL sweep (err=%v)", len(tombs), err)
	}
	if !strings.Contains(metricsBody(t, hs.URL), "recoverd_tombstones_evicted_total 1") {
		t.Error("tombstones_evicted_total not incremented")
	}
	// The key is free again: a re-start mints a fresh episode (201).
	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(`{"clientKey":"ck-ttl"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("start after eviction: status %d, want 201", resp.StatusCode)
	}
}

// TestRetiredLiveCopyLeavesNoRecord: a peer's tombstone (replicated or
// adopted, so retired with local unset) that retires a live copy held here
// also deletes that copy's episode record. Otherwise, once the
// tombstone expires, a restart on the same store resumes the terminated
// episode.
func TestRetiredLiveCopyLeavesNoRecord(t *testing.T) {
	prep := testPrepared(t)
	store := openStore(t, t.TempDir())
	cfg := Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: store}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	status, body := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", `{"clientKey":"k-retired"}`)
	if status != http.StatusCreated {
		t.Fatalf("start status %d (%s)", status, body)
	}
	var started StartResponse
	if err := json.Unmarshal(body, &started); err != nil {
		t.Fatal(err)
	}

	final := DecisionResponse{Action: 3, ActionName: "terminate", Terminate: true, Value: -1.5}
	if err := srv.retire(TombstoneState{EpisodeID: started.EpisodeID, ClientKey: "k-retired",
		Steps: 0, Final: final, TerminatedAtUnixNano: time.Now().UnixNano()}, false); err != nil {
		t.Fatal(err)
	}
	if states, _, err := store.LoadAll(); err != nil || len(states) != 0 {
		t.Errorf("store after the tombstone: %d episode records (err %v), want 0", len(states), err)
	}
	// The tombstone expires, as the TTL sweep would delete it.
	if err := store.DeleteTombstone(started.EpisodeID); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if rep := restarted.Restored(); rep.Resumed != 0 {
		t.Errorf("restart resumed %d episodes, want 0: the terminated episode came back", rep.Resumed)
	}
	if n := restarted.OpenEpisodes(); n != 0 {
		t.Errorf("%d episodes open after restart, want 0", n)
	}
}

// TestLateSaveExpiresWithTombstone: observe saves its snapshot after the
// episode's critical section, so a peer's tombstone can retire the live copy
// and delete its record in that gap, and the late save then writes the
// record back. When Sweep expires the tombstone it must delete that record
// too; otherwise a restart on the same store resumes the terminated episode.
func TestLateSaveExpiresWithTombstone(t *testing.T) {
	prep := testPrepared(t)
	store := openStore(t, t.TempDir())
	var mu sync.Mutex
	now := time.Now()
	cfg := Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: store,
		TombstoneTTL: time.Minute, ClientRetryBudget: 30 * time.Second,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	status, body := rawCall(t, http.MethodPost, hs.URL+"/v1/episodes", `{"clientKey":"k-late"}`)
	if status != http.StatusCreated {
		t.Fatalf("start status %d (%s)", status, body)
	}
	var started StartResponse
	if err := json.Unmarshal(body, &started); err != nil {
		t.Fatal(err)
	}
	ep, _ := srv.cached(started.EpisodeID)
	if ep == nil {
		t.Fatal("started episode is not live")
	}
	late, err := ep.snapshot()
	if err != nil {
		t.Fatal(err)
	}

	final := DecisionResponse{Action: 3, ActionName: "terminate", Terminate: true, Value: -1.5}
	if err := srv.retire(TombstoneState{EpisodeID: started.EpisodeID, ClientKey: "k-late",
		Steps: 0, Final: final, TerminatedAtUnixNano: now.UnixNano()}, false); err != nil {
		t.Fatal(err)
	}
	// The in-flight observation's save lands after the retire.
	if err := srv.save("k-late", late); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	srv.Sweep()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if states, _, err := store.LoadAll(); err != nil || len(states) != 0 {
		t.Errorf("store after the tombstone expired: %d episode records (err %v), want 0", len(states), err)
	}

	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if rep := restarted.Restored(); rep.Resumed != 0 {
		t.Errorf("restart resumed %d episodes, want 0: the terminated episode came back", rep.Resumed)
	}
}
