package chaos_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bpomdp/internal/chaos"
	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
)

// TestChaosEpisodesMatchBaseline is the headline acceptance test for the
// chaos harness: a full fault-injection campaign driven through the HTTP
// client over a transport that drops 20% of requests, injects 10% 5xx,
// resets a few connections, duplicates some requests, and delays at random
// must produce exactly the per-fault mean cost of the same campaign run
// against a local in-process controller — and abandon zero episodes.
//
// Exact (not statistical) equality is the point: the controllers are
// deterministic given the shared bound set, campaign fault draws and
// observation sampling come from seeded streams, and the client/server
// idempotency protocol (clientKey, per-step decision cache, stepIndex
// dedupe, terminal tombstones) makes every retry invisible to episode
// state. Any divergence means a retry leaked into the trajectory.
func TestChaosEpisodesMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign is slow; skipped with -short")
	}
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
	factory := func() (controller.Controller, pomdp.Belief, error) {
		ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
		if err != nil {
			return nil, nil, err
		}
		initial, err := prep.InitialBelief()
		return ctrl, initial, err
	}
	runner, err := sim.NewRunner(rm, 200)
	if err != nil {
		t.Fatal(err)
	}
	faults := []int{1, 2}
	const episodes = 20
	const campaignSeed = 97

	// Baseline: the same campaign seeds against a local controller.
	ctrl, initial, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := runner.RunCampaign(ctrl, initial, faults, episodes, rng.New(campaignSeed))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Recovered != baseline.Episodes {
		t.Fatalf("baseline failed to recover: %d/%d", baseline.Recovered, baseline.Episodes)
	}

	// Chaotic remote: same model, same bound set, hostile transport.
	srv, err := server.New(server.Config{Model: prep.Model, NewController: factory})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	tr, err := chaos.NewTransport(hs.Client().Transport, chaos.Config{
		DropProb:  0.20,
		ErrorProb: 0.10,
		ResetProb: 0.03,
		DupProb:   0.05,
		MaxDelay:  2 * time.Millisecond,
	}, rng.New(1234).Split("chaos"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(hs.URL, &http.Client{Transport: tr}, client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: 12,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Budget:      10 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(campaignSeed), sim.CampaignOptions{
		// Workers is pinned to 1: the exact-equality comparison against the
		// sequential baseline needs the sequential fold order.
		Workers:         1,
		ContinueOnError: true,
		EpisodeFactory: func(int) (controller.Controller, func(error), error) {
			ep, err := c.StartEpisode()
			if err != nil {
				return nil, nil, err
			}
			cleanup := func(err error) {
				if err != nil {
					_ = ep.Abandon()
				}
			}
			return ep, cleanup, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if remote.Abandoned != 0 {
		t.Errorf("%d episodes abandoned under chaos, want 0", remote.Abandoned)
	}
	if remote.Episodes != baseline.Episodes || remote.Recovered != baseline.Recovered {
		t.Errorf("chaotic campaign completed %d/%d recovered, baseline %d/%d",
			remote.Recovered, remote.Episodes, baseline.Recovered, baseline.Episodes)
	}
	if diff := math.Abs(remote.Cost.Mean() - baseline.Cost.Mean()); diff > 1e-9 {
		t.Errorf("mean cost diverged by %g: chaotic %v vs baseline %v",
			diff, remote.Cost.Mean(), baseline.Cost.Mean())
	}
	if diff := math.Abs(remote.ResidualTime.Mean() - baseline.ResidualTime.Mean()); diff > 1e-9 {
		t.Errorf("mean residual time diverged by %g", diff)
	}

	// The campaign must actually have been hostile, or the test proves
	// nothing: every configured fault class (bar rare duplicates) must fire.
	cnt := &tr.Counters
	t.Logf("chaos: %d requests, %d dropped, %d injected 5xx, %d resets, %d dups, %d delayed",
		cnt.Requests.Load(), cnt.Dropped.Load(), cnt.Errors.Load(),
		cnt.Resets.Load(), cnt.Duplicate.Load(), cnt.Delayed.Load())
	if cnt.Requests.Load() < 100 {
		t.Errorf("only %d requests traversed the chaos transport", cnt.Requests.Load())
	}
	if cnt.Dropped.Load() == 0 || cnt.Errors.Load() == 0 || cnt.Delayed.Load() == 0 {
		t.Error("a configured fault class never fired; the campaign was not chaotic")
	}
}
