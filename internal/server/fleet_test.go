package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bpomdp/internal/fleet"
)

// fleetNode is one test member: a server with its own membership view and a
// per-member store under a shared root.
type fleetNode struct {
	id   string
	srv  *Server
	hs   *httptest.Server
	view *fleet.Membership
}

// newFleetPair builds two fleet members ("a", "b") sharing a checkpoint
// root, each with an independent membership view (as in production — views
// only converge through redirects and explicit marking).
func newFleetPair(t *testing.T) (map[string]*fleetNode, string) {
	t.Helper()
	prep := testPrepared(t)
	root := t.TempDir()
	members := []fleet.Member{{ID: "a"}, {ID: "b"}}
	nodes := map[string]*fleetNode{}
	// Addresses are needed before servers exist; create listeners first via
	// unstarted httptest servers, then fill the member addresses.
	for _, m := range members {
		nodes[m.ID] = &fleetNode{id: m.ID}
		nodes[m.ID].hs = httptest.NewUnstartedServer(nil)
	}
	for i := range members {
		members[i].Addr = "http://" + nodes[members[i].ID].hs.Listener.Addr().String()
	}
	storeFor := func(id string) (Checkpointer, error) {
		return NewDirCheckpointer(filepath.Join(root, id))
	}
	for _, m := range members {
		view, err := fleet.NewMembership(members, 8)
		if err != nil {
			t.Fatal(err)
		}
		own, err := storeFor(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{
			Model:         prep.Model,
			NewController: boundedFactory(prep),
			Checkpointer:  own,
			Fleet:         &FleetConfig{Self: m.ID, Membership: view, StoreFor: storeFor},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := nodes[m.ID]
		n.srv, n.view = srv, view
		n.hs.Config.Handler = srv
		n.hs.Start()
		t.Cleanup(n.hs.Close)
	}
	return nodes, root
}

// keyOwnedBy generates a clientKey the given member owns under view.
func keyOwnedBy(t *testing.T, view *fleet.Membership, id string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("ck-%s-%d", id, i)
		if o, ok := view.Owner(k); ok && o.ID == id {
			return k
		}
	}
	t.Fatalf("no key hashed to member %s", id)
	return ""
}

// noRedirect returns a client that surfaces 307s instead of following them.
func noRedirect() *http.Client {
	return &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
}

func TestFleetRedirectsUnownedKey(t *testing.T) {
	nodes, _ := newFleetPair(t)
	a, b := nodes["a"], nodes["b"]
	key := keyOwnedBy(t, a.view, "b") // owned by b, sent to a

	resp, err := noRedirect().Post(a.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("start on non-owner: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderOwner); got != "b" {
		t.Errorf("%s = %q", HeaderOwner, got)
	}
	wantLoc := b.hs.URL + "/v1/episodes"
	if got := resp.Header.Get("Location"); got != wantLoc {
		t.Errorf("Location = %q, want %q", got, wantLoc)
	}

	// A default client follows the 307 (re-sending the POST body) and lands
	// the episode on the owner.
	resp2, err := http.Post(a.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	var started StartResponse
	if err := json.NewDecoder(resp2.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("followed start: status %d", resp2.StatusCode)
	}
	if a.srv.OpenEpisodes() != 0 || b.srv.OpenEpisodes() != 1 {
		t.Errorf("episodes a=%d b=%d", a.srv.OpenEpisodes(), b.srv.OpenEpisodes())
	}
	if !sameIDRange(started.EpisodeID, EpisodeIDBaseFor(1)) {
		t.Errorf("episode id %d not in member b's range", started.EpisodeID)
	}

	// Episode-scoped requests carrying the key redirect the same way.
	req, _ := http.NewRequest("GET", a.hs.URL+fmt.Sprintf("/v1/episodes/%d/decision", started.EpisodeID), nil)
	req.Header.Set(HeaderEpisodeKey, key)
	resp3, err := noRedirect().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTemporaryRedirect || resp3.Header.Get(HeaderOwner) != "b" {
		t.Errorf("episode miss: status %d owner %q", resp3.StatusCode, resp3.Header.Get(HeaderOwner))
	}
	// Without the key header a non-owner has nothing to go on: plain 404.
	resp4, err := http.Get(a.hs.URL + fmt.Sprintf("/v1/episodes/%d", started.EpisodeID))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Errorf("keyless miss: status %d", resp4.StatusCode)
	}
}

func TestFleetEagerAdoptionOnMarkDown(t *testing.T) {
	nodes, root := newFleetPair(t)
	a, b := nodes["a"], nodes["b"]
	key := keyOwnedBy(t, a.view, "a")

	resp, err := http.Post(a.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	var started StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Kill a (no graceful close) and tell b.
	a.hs.CloseClientConnections()
	a.hs.Close()
	adopted, err := b.srv.MarkMemberDown("a")
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 1 {
		t.Fatalf("adopted %d episodes, want 1", adopted)
	}
	if b.srv.OpenEpisodes() != 1 {
		t.Fatalf("open on b: %d", b.srv.OpenEpisodes())
	}
	// Same id, served by b now.
	resp, err = http.Get(b.hs.URL + fmt.Sprintf("/v1/episodes/%d", started.EpisodeID))
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Open || st.EpisodeID != started.EpisodeID {
		t.Errorf("adopted status %+v", st)
	}
	// The source record moved: a's store is empty, b's has it.
	aStore, err := NewDirCheckpointer(filepath.Join(root, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if states, _, _ := aStore.LoadAll(); len(states) != 0 {
		t.Errorf("source store still holds %+v", states)
	}
	bStore, err := NewDirCheckpointer(filepath.Join(root, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if states, _, _ := bStore.LoadAll(); len(states) != 1 || states[0].EpisodeID != started.EpisodeID {
		t.Errorf("adopter store holds %+v", states)
	}
	// Idempotent: marking down again adopts nothing new.
	if n, err := b.srv.MarkMemberDown("a"); err != nil || n != 0 {
		t.Errorf("second MarkMemberDown = %d, %v", n, err)
	}
	// Dedupe across the handoff: restarting the same key on b returns the
	// adopted episode, not a fresh one.
	resp, err = http.Post(b.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	var again StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.EpisodeID != started.EpisodeID {
		t.Errorf("post-handoff start: status %d id %d, want 200 id %d", resp.StatusCode, again.EpisodeID, started.EpisodeID)
	}
}

func TestFleetLazyAdoptionOnStart(t *testing.T) {
	nodes, _ := newFleetPair(t)
	a, b := nodes["a"], nodes["b"]
	key := keyOwnedBy(t, a.view, "a")

	resp, err := http.Post(a.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	var started StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	a.hs.CloseClientConnections()
	a.hs.Close()
	// b's view learns a is down, but nobody called the admin endpoint — the
	// client's re-POST of the same key must lazily pull the episode over.
	if _, err := b.view.MarkDown("a"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(b.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	var again StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.EpisodeID != started.EpisodeID {
		t.Errorf("lazy adoption start: status %d id %d, want 200 id %d", resp.StatusCode, again.EpisodeID, started.EpisodeID)
	}
	// And an episode-scoped request with the key also triggers adoption when
	// the episode is unknown but owned (view already updated, fresh node).
	if b.srv.OpenEpisodes() != 1 {
		t.Errorf("open on b: %d", b.srv.OpenEpisodes())
	}
}

func TestFleetAdminEndpoints(t *testing.T) {
	nodes, _ := newFleetPair(t)
	b := nodes["b"]

	var view FleetView
	resp, err := http.Get(b.hs.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Self != "b" || len(view.Members) != 2 || !view.Members[0].Up {
		t.Errorf("fleet view %+v", view)
	}

	resp, err = http.Post(b.hs.URL+"/v1/fleet/members/a/down", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var admin fleetAdminResponse
	if err := json.NewDecoder(resp.Body).Decode(&admin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !admin.Down || admin.Member != "a" {
		t.Errorf("down response %d %+v", resp.StatusCode, admin)
	}
	if !b.view.IsDown("a") {
		t.Error("a not down in b's view")
	}
	resp, err = http.Post(b.hs.URL+"/v1/fleet/members/a/up", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if b.view.IsDown("a") {
		t.Error("a still down after up")
	}
	// Unknown member and self-down are refused.
	resp, err = http.Post(b.hs.URL+"/v1/fleet/members/zz/down", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown member down: status %d", resp.StatusCode)
	}
	resp, err = http.Post(b.hs.URL+"/v1/fleet/members/b/down", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("self down: status %d", resp.StatusCode)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	prep := testPrepared(t)
	view, err := fleet.NewMembership([]fleet.Member{{ID: "a", Addr: "x"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep),
		Fleet: &FleetConfig{Self: "ghost", Membership: view}}); err == nil {
		t.Error("non-member self accepted")
	}
	if _, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep),
		Fleet: &FleetConfig{Self: "a"}}); err == nil {
		t.Error("nil membership accepted")
	}
}

// TestFleetDeadMemberReturns is the partition-heal regression: a member whose
// episodes and tombstones were adopted away while it was considered down must
// not keep serving its stale in-memory copies once it is marked up again —
// that would be double ownership, with the client's view deciding which copy
// it talks to. Marking itself up must reconcile against its own (now emptied)
// store and drop everything that moved.
func TestFleetDeadMemberReturns(t *testing.T) {
	nodes, _ := newFleetPair(t)
	a, b := nodes["a"], nodes["b"]

	// Two episodes on a: one live, one driven to termination (a tombstone).
	liveKey := keyOwnedBy(t, a.view, "a")
	var deadKey string
	for i := 0; deadKey == "" && i < 10000; i++ {
		k := fmt.Sprintf("tk-a-%d", i)
		if o, ok := a.view.Owner(k); ok && o.ID == "a" {
			deadKey = k
		}
	}
	if deadKey == "" {
		t.Fatal("no terminal key hashed to a")
	}
	deadID, final := driveTerminal(t, a.hs, a.srv.cfg.Model, deadKey)
	resp, err := http.Post(a.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, liveKey)))
	if err != nil {
		t.Fatal(err)
	}
	var started StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Partition, not crash: a keeps running while b declares it down and
	// adopts its key range from the shared store root.
	if adopted, err := b.srv.MarkMemberDown("a"); err != nil || adopted != 1 {
		t.Fatalf("MarkMemberDown adopted %d (err=%v), want 1", adopted, err)
	}

	// The bug surface: a still answers for the adopted-away episode.
	resp, err = http.Get(a.hs.URL + fmt.Sprintf("/v1/episodes/%d", started.EpisodeID))
	if err != nil {
		t.Fatal(err)
	}
	var stale StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&stale); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !stale.Open {
		t.Fatalf("pre-heal status on a: %+v, expected the stale copy to still be served", stale)
	}

	// Heal: a marks itself up and must reconcile against its own store.
	resp, err = http.Post(a.hs.URL+"/v1/fleet/members/a/up", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var admin fleetAdminResponse
	if err := json.NewDecoder(resp.Body).Decode(&admin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || admin.Dropped != 2 {
		t.Fatalf("self mark-up: status %d dropped %d, want 200 and 2 (episode + tombstone)", resp.StatusCode, admin.Dropped)
	}
	if a.srv.OpenEpisodes() != 0 {
		t.Errorf("a still holds %d episodes after reconcile", a.srv.OpenEpisodes())
	}
	// No double ownership: a no longer answers for either id...
	resp, err = http.Get(a.hs.URL + fmt.Sprintf("/v1/episodes/%d", started.EpisodeID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("post-heal keyless status on a: %d, want 404", resp.StatusCode)
	}
	if status, _ := getDecision(t, a.hs.URL, deadID); status != http.StatusNotFound {
		t.Errorf("post-heal tombstone decision on a: status %d, want 404", status)
	}
	// ...while b serves the adopted episode and replays the terminal decision.
	resp, err = http.Get(b.hs.URL + fmt.Sprintf("/v1/episodes/%d", started.EpisodeID))
	if err != nil {
		t.Fatal(err)
	}
	var adoptedSt StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&adoptedSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !adoptedSt.Open || adoptedSt.EpisodeID != started.EpisodeID {
		t.Errorf("adopted episode on b: %+v", adoptedSt)
	}
	if status, replayed := getDecision(t, b.hs.URL, deadID); status != http.StatusOK || replayed != final {
		t.Errorf("terminal replay on b: status %d decision %+v, want %+v", status, replayed, final)
	}
	// Marking up again is a clean no-op.
	if n, err := a.srv.MarkMemberUp("a"); err != nil || n != 0 {
		t.Errorf("second self mark-up dropped %d (err=%v), want 0", n, err)
	}
}

// TestFleetReplicatedTombstoneRetiresLiveCopy: a tombstone replicated from a
// peer is the episode's last word even when this member still holds a live
// copy of it. The copy is retired, so the episode is never served as both
// live and terminated.
func TestFleetReplicatedTombstoneRetiresLiveCopy(t *testing.T) {
	nodes, _ := newFleetPair(t)
	a := nodes["a"]
	key := keyOwnedBy(t, a.view, "a")
	resp, err := http.Post(a.hs.URL+"/v1/episodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"clientKey":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	var started StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := DecisionResponse{Action: 3, ActionName: "terminate", Terminate: true, Value: -1.5}
	if err := a.srv.retire(TombstoneState{EpisodeID: started.EpisodeID, ClientKey: key,
		Steps: 2, Final: final, TerminatedAtUnixNano: time.Now().UnixNano()}, false); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(a.hs.URL + fmt.Sprintf("/v1/episodes/%d", started.EpisodeID))
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Open {
		t.Errorf("status after replicated tombstone: %+v, want closed", st)
	}
	if status, got := getDecision(t, a.hs.URL, started.EpisodeID); status != http.StatusOK || got != final {
		t.Errorf("decision after replicated tombstone: status %d %+v, want 200 %+v", status, got, final)
	}
	if n := a.srv.OpenEpisodes(); n != 0 {
		t.Errorf("%d episodes open after their tombstone arrived", n)
	}
}

// TestTombstoneReplicaBodyLimit: a replicated tombstone past MaxBodyBytes
// is answered 413, as every other POST body is; one under the cap that does
// not decode stays 400.
func TestTombstoneReplicaBodyLimit(t *testing.T) {
	prep := testPrepared(t)
	view, err := fleet.NewMembership([]fleet.Member{{ID: "a", Addr: "http://127.0.0.1:1"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewDirCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: store,
		MaxBodyBytes: 128, Fleet: &FleetConfig{Self: "a", Membership: view}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"over the cap", fmt.Sprintf(`{"episodeId":1,"clientKey":%q}`, strings.Repeat("k", 4096)), http.StatusRequestEntityTooLarge},
		{"under the cap", `{"episodeId":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+tombstoneReplicaPath, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}
