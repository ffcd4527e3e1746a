package client

import (
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bpomdp/internal/core"
	"bpomdp/internal/fleet"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

// fleetTestNode is one fleet member under test: a server with its own
// membership view behind a real listener.
type fleetTestNode struct {
	id string
	hs *httptest.Server
	sv *server.Server
}

// snappyPolicy exhausts retries against a dead member in microseconds so
// failover tests don't wait out the production backoff schedule.
func snappyPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   2,
		BaseDelay:     time.Microsecond,
		MaxDelay:      time.Microsecond,
		Budget:        time.Second,
		PerTryTimeout: 5 * time.Second,
		Sleep:         func(time.Duration) {},
	}
}

// newClientFleet builds a two-member fleet ("a", "b") with per-member stores
// under a shared root and returns a FleetClient over it.
func newClientFleet(t *testing.T) (map[string]*fleetTestNode, *FleetClient, *core.Prepared) {
	t.Helper()
	return newClientFleetHandoff(t, true)
}

// newClientFleetHandoff is newClientFleet with handoff made optional: with
// handoff false the members cannot read each other's stores (no StoreFor),
// so a dead member's episodes are unrecoverable — the setup for testing how
// the client reports a genuinely lost episode.
func newClientFleetHandoff(t *testing.T, handoff bool) (map[string]*fleetTestNode, *FleetClient, *core.Prepared) {
	t.Helper()
	prep, _ := twoServerPrep(t)
	root := t.TempDir()
	members := []fleet.Member{{ID: "a"}, {ID: "b"}}
	nodes := map[string]*fleetTestNode{}
	// Listeners first: member addresses must exist before the servers that
	// embed them in their membership views.
	for _, m := range members {
		nodes[m.ID] = &fleetTestNode{id: m.ID, hs: httptest.NewUnstartedServer(nil)}
	}
	for i := range members {
		members[i].Addr = "http://" + nodes[members[i].ID].hs.Listener.Addr().String()
	}
	storeFor := func(id string) (server.Checkpointer, error) {
		return server.NewDirCheckpointer(filepath.Join(root, id))
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
		fcfg := &server.FleetConfig{Self: m.ID, Membership: view}
		if handoff {
			fcfg.StoreFor = storeFor
		}
		srv, err := server.New(server.Config{
			Model:         prep.Model,
			NewController: boundedFactory(prep),
			Checkpointer:  own,
			Fleet:         fcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := nodes[m.ID]
		n.sv = srv
		n.hs.Config.Handler = srv
		n.hs.Start()
		t.Cleanup(n.hs.Close)
	}
	fc, err := NewFleetClient(members, 8, nil, WithRetryPolicy(snappyPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	return nodes, fc, prep
}

// stepOnce drives one decide/observe round against a deterministic
// environment (first successor observation under the decider's own belief).
func stepOnce(t *testing.T, prep *core.Prepared, sc *pomdp.Scratch, e *FleetEpisode) bool {
	t.Helper()
	d, err := e.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Terminate {
		return false
	}
	b := e.Belief()
	if b == nil {
		t.Fatal("nil belief from live episode")
	}
	succs := prep.Model.Successors(sc, b, d.Action)
	if len(succs) == 0 {
		t.Fatalf("no successors for action %d", d.Action)
	}
	if err := e.Observe(d.Action, succs[0].Obs); err != nil {
		t.Fatal(err)
	}
	return true
}

func TestFleetClientRoutesToOwner(t *testing.T) {
	nodes, fc, prep := newClientFleet(t)
	sc := pomdp.NewScratch(prep.Model)
	ep, err := fc.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := fc.View().Owner(ep.Key())
	if !ok || owner.ID != ep.Owner() {
		t.Fatalf("episode owner %q, ring says %+v ok=%v", ep.Owner(), owner, ok)
	}
	other := "a"
	if ep.Owner() == "a" {
		other = "b"
	}
	if nodes[ep.Owner()].sv.OpenEpisodes() != 1 || nodes[other].sv.OpenEpisodes() != 0 {
		t.Errorf("episodes owner=%d other=%d", nodes[ep.Owner()].sv.OpenEpisodes(), nodes[other].sv.OpenEpisodes())
	}
	for i := 0; i < 3; i++ {
		if !stepOnce(t, prep, sc, ep) {
			break
		}
	}
	if ep.Steps() == 0 {
		t.Error("no steps applied")
	}
	if err := ep.Abandon(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetClientFailsOverMidEpisode is the client-side handoff acceptance
// test: the owner dies without warning mid-episode and the next call re-binds
// to the survivor, which adopts the episode from the dead member's store and
// continues it under the same identity.
func TestFleetClientFailsOverMidEpisode(t *testing.T) {
	nodes, fc, prep := newClientFleet(t)
	sc := pomdp.NewScratch(prep.Model)
	ep, err := fc.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	if !stepOnce(t, prep, sc, ep) {
		t.Fatal("episode terminated before the kill point")
	}
	id, firstOwner, steps := ep.ID(), ep.Owner(), ep.Steps()

	// SIGKILL-equivalent: drop live connections, stop the listener.
	dead := nodes[firstOwner]
	dead.hs.CloseClientConnections()
	dead.hs.Close()

	// The next round must fail over transparently.
	if !stepOnce(t, prep, sc, ep) {
		t.Fatal("episode terminated on the failover step")
	}
	if ep.Owner() == firstOwner {
		t.Fatalf("still bound to dead owner %q", firstOwner)
	}
	if ep.ID() != id {
		t.Fatalf("episode id changed across failover: %d -> %d", id, ep.ID())
	}
	if ep.Steps() != steps+1 {
		t.Fatalf("steps %d after failover, want %d", ep.Steps(), steps+1)
	}
	if got := nodes[ep.Owner()].sv.OpenEpisodes(); got != 1 {
		t.Fatalf("survivor serves %d episodes, want 1", got)
	}
	// The client told the survivor about the death, so its view agrees.
	if !fc.View().IsDown(firstOwner) {
		t.Error("client view did not mark the dead owner down")
	}
	// Run the episode to completion on the survivor.
	for i := 0; i < 50; i++ {
		if !stepOnce(t, prep, sc, ep) {
			return
		}
	}
	t.Error("episode did not terminate after failover")
}

// TestFleetClientStartsOnSurvivor checks the start-time path: with one member
// already dead (and the client not yet aware), every new episode still starts
// — keys owned by the corpse fail over to the survivor.
func TestFleetClientStartsOnSurvivor(t *testing.T) {
	nodes, fc, _ := newClientFleet(t)
	nodes["a"].hs.CloseClientConnections()
	nodes["a"].hs.Close()
	sawFailover := false
	for i := 0; i < 8; i++ {
		ep, err := fc.StartEpisode()
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		if ep.Owner() != "b" {
			t.Fatalf("start %d bound to %q", i, ep.Owner())
		}
		if owner, ok := fc.View().Owner(ep.Key()); !ok || owner.ID != "b" {
			t.Fatalf("start %d: view owner %+v ok=%v", i, owner, ok)
		}
		if fc.View().IsDown("a") {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Skip("no key hashed to the dead member in 8 draws (astronomically unlikely)")
	}
}

// TestFleetClientReportsLostEpisode: when the owner dies AND its checkpoints
// are unreachable (no handoff), the fleet answers the client's keyed restart
// with a brand-new episode. Silently binding to it would replay recovery from
// step zero under the same identity — the client must instead surface a typed
// EpisodeLostError and abandon the impostor.
func TestFleetClientReportsLostEpisode(t *testing.T) {
	nodes, fc, prep := newClientFleetHandoff(t, false)
	sc := pomdp.NewScratch(prep.Model)
	ep, err := fc.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	if !stepOnce(t, prep, sc, ep) {
		t.Fatal("episode terminated before the kill point")
	}
	// The decision for the next step came back with the observation, so
	// Decide is local; pick the next observation while the owner lives.
	d, err := ep.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Terminate {
		t.Fatal("episode terminated before the kill point")
	}
	succs := prep.Model.Successors(sc, ep.Belief(), d.Action)
	id, firstOwner, steps := ep.ID(), ep.Owner(), ep.Steps()

	dead := nodes[firstOwner]
	dead.hs.CloseClientConnections()
	dead.hs.Close()

	// The next networked call finds the episode gone.
	err = ep.Observe(d.Action, succs[0].Obs)
	if err == nil {
		t.Fatal("Observe succeeded against an unrecoverable episode")
	}
	var lost *EpisodeLostError
	if !errors.As(err, &lost) {
		t.Fatalf("error is %T (%v), want *EpisodeLostError", err, err)
	}
	if lost.Key != ep.Key() || lost.EpisodeID != id || lost.Steps != steps {
		t.Errorf("EpisodeLostError %+v, want key %q id %d steps %d", lost, ep.Key(), id, steps)
	}
	if lost.FreshID == id {
		t.Errorf("fresh id %d equals the lost id — nothing was lost", lost.FreshID)
	}
	for _, part := range []string{ep.Key(), "lost in failover"} {
		if !strings.Contains(lost.Error(), part) {
			t.Errorf("error message %q missing %q", lost.Error(), part)
		}
	}
	// The impostor episode was abandoned, not leaked on the survivor.
	survivor := "a"
	if firstOwner == "a" {
		survivor = "b"
	}
	if got := nodes[survivor].sv.OpenEpisodes(); got != 0 {
		t.Errorf("survivor holds %d episodes after the abandoned impostor, want 0", got)
	}
}
