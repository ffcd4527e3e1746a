package client

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
)

// twoServerPrep prepares the two-server recovery model with a bootstrapped
// bound set shared by every controller the tests build.
func twoServerPrep(t *testing.T) (*core.Prepared, *core.RecoveryModel) {
	t.Helper()
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rm := &core.RecoveryModel{
		POMDP:           ts.Model,
		NullStates:      ts.NullStates,
		RateRewards:     ts.RateRewards,
		Durations:       []float64{1, 1, 0},
		MonitorAction:   ts.ActionObserve,
		MonitorDuration: 0.1,
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 1, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	return prep, rm
}

func boundedFactory(prep *core.Prepared) server.Factory {
	return func() (controller.Controller, pomdp.Belief, error) {
		ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
		if err != nil {
			return nil, nil, err
		}
		initial, err := prep.InitialBelief()
		return ctrl, initial, err
	}
}

// harness spins up an in-process recovery service over the two-server model
// and returns a client plus the recovery model for simulation.
func harness(t *testing.T) (*Client, *core.RecoveryModel) {
	t.Helper()
	prep, rm := twoServerPrep(t)
	srv, err := server.New(server.Config{
		Model:         prep.Model,
		NewController: boundedFactory(prep),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c, err := New(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, rm
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", nil); err == nil {
		t.Error("empty base URL accepted")
	}
}

func TestHealthyAndModel(t *testing.T) {
	c, _ := harness(t)
	if err := c.Healthy(); err != nil {
		t.Fatal(err)
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.States) != 4 || len(m.Actions) != 4 {
		t.Errorf("model summary %d states %d actions", len(m.States), len(m.Actions))
	}
	if m.States[0] != "null" || m.Actions[3] != pomdp.TerminateActionName {
		t.Errorf("model names: %v / %v", m.States, m.Actions)
	}
}

// TestHealthyHonoursPerTryTimeout: a health probe against a server that
// never answers must give up after the per-attempt timeout, not hang.
func TestHealthyHonoursPerTryTimeout(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hs.Close()
	defer close(release)
	c, err := New(hs.URL, hs.Client(), WithRetryPolicy(RetryPolicy{PerTryTimeout: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Healthy() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Healthy succeeded against a server that never answers")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Healthy still blocked after 2s with a 50ms per-attempt timeout")
	}
}

// TestStartEpisodeKeyedRefusesEmptyKey: the server dedupes only non-empty
// keys, so a keyless start is refused before anything reaches the wire.
func TestStartEpisodeKeyedRefusesEmptyKey(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		hits.Add(1)
	}))
	defer hs.Close()
	c, err := New(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	if ep, err := c.StartEpisodeKeyed(""); err == nil {
		t.Fatalf("keyless start opened episode %d", ep.ID())
	}
	if got := hits.Load(); got != 0 {
		t.Errorf("server saw %d requests, want 0", got)
	}
}

func TestEpisodeLifecycle(t *testing.T) {
	c, _ := harness(t)
	ep, err := c.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID() == 0 {
		t.Error("zero episode id")
	}
	if err := ep.Reset(nil); err != nil {
		t.Errorf("same-episode Reset should be a no-op: %v", err)
	}
	b := ep.Belief()
	if !b.IsDistribution() {
		t.Errorf("remote belief %v", b)
	}
	d, err := ep.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Terminate {
		t.Fatal("terminated immediately from the uniform prior")
	}
	if err := ep.ObserveNamed("observe", "obs-a-failed"); err != nil {
		t.Fatal(err)
	}
	if err := ep.Abandon(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Reset(nil); err == nil {
		t.Error("Reset after Abandon accepted")
	}
	if _, err := ep.Decide(); err == nil {
		t.Error("decision on abandoned episode accepted")
	}
}

// TestSimulatorDrivesRemoteDaemon is the headline integration test: the
// fault-injection simulator runs entire recovery episodes against the HTTP
// service through the client's Controller implementation — the exact loop a
// production deployment would run, minus the network being loopback.
func TestSimulatorDrivesRemoteDaemon(t *testing.T) {
	c, rm := harness(t)
	runner, err := sim.NewRunner(rm, 200)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(17)
	for i := 0; i < 5; i++ {
		ep, err := c.StartEpisode()
		if err != nil {
			t.Fatal(err)
		}
		stream := root.SplitN("ep", i)
		fault := 1 + stream.IntN(2)
		res, err := runner.RunEpisode(ep, nil, fault, stream)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Recovered {
			t.Errorf("episode %d: remote controller terminated before recovery", i)
		}
		if res.MonitorCalls < 1 || res.Cost <= 0 {
			t.Errorf("episode %d: implausible metrics %+v", i, res)
		}
	}
}

func TestObserveImpossibleObservation(t *testing.T) {
	c, _ := harness(t)
	ep, err := c.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	// The terminated observation can never follow an observe action from
	// the initial belief (no mass on s_T).
	if err := ep.ObserveNamed("observe", pomdp.TerminatedObsName); err == nil {
		t.Error("impossible observation accepted")
	}
}

// TestServerErrorMessageSurfaced checks that HTTP failures carry the
// server's JSON error message, not just a bare status code.
func TestServerErrorMessageSurfaced(t *testing.T) {
	c, _ := harness(t)
	ep, err := c.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	err = ep.ObserveNamed("launch-missiles", "obs-clear")
	if err == nil {
		t.Fatal("unknown action accepted")
	}
	if !strings.Contains(err.Error(), "unknown action") {
		t.Errorf("error %v lost the server's message", err)
	}
	if StatusCode(err) != http.StatusBadRequest {
		t.Errorf("StatusCode = %d", StatusCode(err))
	}
}

// TestNonJSONErrorBodySurfaced checks the fallback path: a non-JSON error
// body is drained, closed, and surfaced as text.
func TestNonJSONErrorBodySurfaced(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "short and stout", http.StatusTeapot)
	}))
	defer hs.Close()
	c, err := New(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Model()
	if err == nil {
		t.Fatal("teapot accepted")
	}
	if !strings.Contains(err.Error(), "short and stout") || !strings.Contains(err.Error(), "418") {
		t.Errorf("error %v lost the body or status", err)
	}
}

// TestCrashRestartIdenticalActionSequence is the crash-restart acceptance
// test: an episode that loses its daemon mid-recovery finishes — through a
// checkpoint-restored server — with the exact action sequence an
// uninterrupted, checkpoint-free run produces.
func TestCrashRestartIdenticalActionSequence(t *testing.T) {
	prep, _ := twoServerPrep(t)
	sc := pomdp.NewScratch(prep.Model)
	// Deterministic environment: the observation after each action is the
	// first possible successor observation under the decider's own belief.
	nextObs := func(b pomdp.Belief, action int) int {
		t.Helper()
		succs := prep.Model.Successors(sc, b, action)
		if len(succs) == 0 {
			t.Fatalf("no successor observations for action %d", action)
		}
		return succs[0].Obs
	}

	// Baseline: a local in-process controller, no HTTP anywhere.
	var baseline []int
	{
		ctrl, initial, err := boundedFactory(prep)()
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Reset(initial); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 50; step++ {
			d, err := ctrl.Decide()
			if err != nil {
				t.Fatal(err)
			}
			baseline = append(baseline, d.Action)
			if d.Terminate {
				break
			}
			if err := ctrl.Observe(d.Action, nextObs(ctrl.Belief(), d.Action)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const crashAfter = 2
	if len(baseline) <= crashAfter {
		t.Fatalf("baseline episode too short to crash mid-way: %v", baseline)
	}

	cp, err := server.NewDirCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newServer := func() *server.Server {
		t.Helper()
		srv, err := server.New(server.Config{
			Model:         prep.Model,
			NewController: boundedFactory(prep),
			Checkpointer:  cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv1 := newServer()
	hs1 := httptest.NewServer(srv1)
	c1, err := New(hs1.URL, hs1.Client())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := c1.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < crashAfter; i++ {
		d, err := ep.Decide()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d.Action)
		if d.Terminate {
			t.Fatalf("terminated before the crash point: %v", got)
		}
		if err := ep.Observe(d.Action, nextObs(ep.Belief(), d.Action)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the daemon. Nothing was flushed on purpose: the write-ahead
	// per-observation checkpoints must be enough.
	hs1.Close()

	srv2 := newServer()
	if rep := srv2.Restored(); rep.Resumed != 1 || len(rep.Failed) != 0 {
		t.Fatalf("restore report %+v", rep)
	}
	hs2 := httptest.NewServer(srv2)
	defer hs2.Close()
	c2, err := New(hs2.URL, hs2.Client())
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := c2.Resume(ep.ID())
	if err != nil {
		t.Fatal(err)
	}
	if ep2.Steps() != crashAfter {
		t.Fatalf("resumed at step %d, want %d", ep2.Steps(), crashAfter)
	}
	for step := crashAfter; step < 50; step++ {
		d, err := ep2.Decide()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d.Action)
		if d.Terminate {
			break
		}
		if err := ep2.Observe(d.Action, nextObs(ep2.Belief(), d.Action)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, baseline) {
		t.Errorf("action sequence diverged across crash-restart:\n got %v\nwant %v", got, baseline)
	}
}
