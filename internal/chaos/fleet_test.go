package chaos_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
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

// killerEpisode wraps a FleetEpisode and, on the armed episode after a few
// applied observations, SIGKILLs whichever fleet member is serving it. The
// kill waits for a non-terminal decision — the one the last observation's
// answer carried — so the episode is still live on the member and its next
// observation has to fail over. The controller interface is otherwise
// passed through untouched, so the campaign engine cannot tell a handoff
// happened.
type killerEpisode struct {
	*client.FleetEpisode
	f          *chaos.Fleet
	fired      *bool
	adopted    *int
	armed      bool
	afterSteps int
	steps      int
}

func (k *killerEpisode) Observe(action, obs int) error {
	if err := k.FleetEpisode.Observe(action, obs); err != nil {
		return err
	}
	k.steps++
	return nil
}

func (k *killerEpisode) Decide() (controller.Decision, error) {
	d, err := k.FleetEpisode.Decide()
	if err != nil || d.Terminate {
		return d, err
	}
	if k.armed && !*k.fired && k.steps >= k.afterSteps {
		*k.fired = true
		n, err := k.f.Kill(k.FleetEpisode.Owner())
		if err != nil {
			return d, err
		}
		*k.adopted = n
	}
	return d, nil
}

// twoServerFleetPrep builds the shared two-server recovery model for the
// fleet chaos campaigns: prepared + bootstrapped model, a controller
// factory, and a campaign runner.
func twoServerFleetPrep(t *testing.T) (*core.Prepared, func() (controller.Controller, pomdp.Belief, error), *sim.Runner) {
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
	return prep, factory, runner
}

// TestFleetChaosZeroAbandonedEpisodes is the fleet acceptance test: a
// 3-member fleet runs a full campaign through the coordinator-free
// FleetClient, one member is SIGKILL-dropped while it is serving a live
// episode, and the campaign must still finish with zero abandoned episodes
// and the exact per-fault mean cost of the same campaign against a local
// in-process controller. The fleet uses the append-only log checkpoint
// store, so the handoff replays from fsynced log records, not from any
// in-memory state of the dead node.
func TestFleetChaosZeroAbandonedEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos campaign is slow; skipped with -short")
	}
	prep, factory, runner := twoServerFleetPrep(t)
	faults := []int{1, 2}
	const episodes = 20
	const campaignSeed = 97
	const killDuringEpisode = 7

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

	f, err := chaos.NewFleet([]string{"n1", "n2", "n3"}, t.TempDir(),
		server.Config{Model: prep.Model, NewController: factory},
		chaos.FleetOptions{VNodes: 16, StoreKind: "log"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fc, err := client.NewFleetClient(f.Members(), 16, nil, client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Budget:      5 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}

	killFired := false
	adopted := 0
	remote, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(campaignSeed), sim.CampaignOptions{
		// Workers pinned to 1: exact equality against the sequential baseline
		// needs the sequential fold order.
		Workers:         1,
		ContinueOnError: true,
		EpisodeFactory: func(episode int) (controller.Controller, func(error), error) {
			ep, err := fc.StartEpisode()
			if err != nil {
				return nil, nil, err
			}
			k := &killerEpisode{
				FleetEpisode: ep,
				f:            f,
				fired:        &killFired,
				adopted:      &adopted,
				armed:        episode == killDuringEpisode,
				afterSteps:   1,
			}
			cleanup := func(err error) {
				if err != nil {
					_ = ep.Abandon()
				}
			}
			return k, cleanup, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if !killFired {
		t.Fatal("the kill never fired; the campaign was not chaotic")
	}
	if adopted < 1 {
		t.Errorf("survivors adopted %d episodes at kill time, want >= 1 (the live episode)", adopted)
	}
	if remote.Abandoned != 0 {
		t.Errorf("%d episodes abandoned across the node kill, want 0", remote.Abandoned)
	}
	if remote.Episodes != baseline.Episodes || remote.Recovered != baseline.Recovered {
		t.Errorf("fleet campaign completed %d/%d recovered, baseline %d/%d",
			remote.Recovered, remote.Episodes, baseline.Recovered, baseline.Episodes)
	}
	if diff := math.Abs(remote.Cost.Mean() - baseline.Cost.Mean()); diff > 1e-9 {
		t.Errorf("mean cost diverged by %g: fleet %v vs baseline %v",
			diff, remote.Cost.Mean(), baseline.Cost.Mean())
	}
	if diff := math.Abs(remote.ResidualTime.Mean() - baseline.ResidualTime.Mean()); diff > 1e-9 {
		t.Errorf("mean residual time diverged by %g", diff)
	}
	// Every episode terminated, so nothing is left open — or checkpointed —
	// anywhere in the fleet.
	if open := f.OpenEpisodes(); open != 0 {
		t.Errorf("%d episodes still open across survivors", open)
	}
	if len(f.Survivors()) != 2 {
		t.Errorf("%d survivors, want 2", len(f.Survivors()))
	}
	t.Logf("fleet chaos: kill fired during episode %d, %d adoption(s), mean cost %v",
		killDuringEpisode, adopted, remote.Cost.Mean())
}

// lostFinalEpisode wraps a FleetEpisode to stage the lost-final-decision
// window: on the armed episode it first posts each observation over a raw,
// redirect-free request that asks for the decision — exactly what the
// client sends on the wire — and the moment the answer is terminal (so the
// owner has already tombstoned the episode and deleted its checkpoint) it
// SIGKILLs the owner before the wrapped client ever sees the response. The
// client's own Observe is then a retransmit of the final observation and
// has to recover the decision from the survivors.
type lostFinalEpisode struct {
	*client.FleetEpisode
	f     *chaos.Fleet
	armed bool
	fired *bool
	// lost is the terminal decision as served by the original owner.
	lost *[]byte
}

func (l *lostFinalEpisode) Observe(action, obs int) error {
	if l.armed && !*l.fired {
		step := l.Steps()
		req := server.ObservationRequest{Action: action, Observation: obs, StepIndex: &step, Decide: true}
		status, body, err := l.f.ObserveBytes(l.Owner(), l.ID(), l.Key(), req)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("raw observation on owner %q: status %d (body %s), want 200", l.Owner(), status, body)
		}
		var d server.DecisionResponse
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		if d.Terminate {
			// The owner just checkpointed the tombstone and deleted the
			// episode; this response is now "lost in transit".
			*l.fired = true
			*l.lost = body
			if _, err := l.f.Kill(l.Owner()); err != nil {
				return err
			}
		}
	}
	// A retransmit when the raw post went through: the member dedupes it by
	// step index and answers with the decision it already made.
	return l.FleetEpisode.Observe(action, obs)
}

// observationRecorder is the fleet client's transport. Once the kill has
// fired it keeps the body of every 200 answer to an observation of the
// armed episode exactly as the client received it.
type observationRecorder struct {
	key   string
	fired *bool
	got   [][]byte
}

func (r *observationRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !*r.fired || resp.StatusCode != http.StatusOK || req.Method != http.MethodPost ||
		!strings.HasSuffix(req.URL.Path, "/observations") || req.Header.Get(server.HeaderEpisodeKey) != r.key {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.got = append(r.got, body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestFleetChaosTerminalDecisionSurvivesOwnerKill closes the loop on the
// lost-final-decision window: a 3-member fleet runs a campaign, and on one
// episode the serving member is SIGKILLed at the worst possible instant —
// after the final observation was applied and the terminal decision that
// answers it computed, tombstoned, and the episode deleted, but before the
// client received the response. The client's retransmitted observation must
// fail over and get the original terminal decision back from the successor's
// replicated (or adopted) tombstone — byte-identical, same episode id, not
// a 404 and not a fresh episode — and the campaign must still finish with
// zero abandoned episodes and exact mean-cost parity against the local
// baseline.
func TestFleetChaosTerminalDecisionSurvivesOwnerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos campaign is slow; skipped with -short")
	}
	prep, factory, runner := twoServerFleetPrep(t)
	faults := []int{1, 2}
	const episodes = 20
	const campaignSeed = 97
	const killDuringEpisode = 7

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

	f, err := chaos.NewFleet([]string{"n1", "n2", "n3"}, t.TempDir(),
		server.Config{Model: prep.Model, NewController: factory},
		chaos.FleetOptions{VNodes: 16, StoreKind: "log"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	killFired := false
	rec := &observationRecorder{fired: &killFired}
	fc, err := client.NewFleetClient(f.Members(), 16, &http.Client{Transport: rec}, client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Budget:      5 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}

	var lost []byte
	var lostID uint64
	remote, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(campaignSeed), sim.CampaignOptions{
		Workers:         1,
		ContinueOnError: true,
		EpisodeFactory: func(episode int) (controller.Controller, func(error), error) {
			ep, err := fc.StartEpisode()
			if err != nil {
				return nil, nil, err
			}
			if episode == killDuringEpisode {
				lostID = ep.ID()
				rec.key = ep.Key()
			}
			l := &lostFinalEpisode{
				FleetEpisode: ep,
				f:            f,
				armed:        episode == killDuringEpisode,
				fired:        &killFired,
				lost:         &lost,
			}
			cleanup := func(err error) {
				if err != nil {
					_ = ep.Abandon()
				}
			}
			return l, cleanup, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if !killFired {
		t.Fatal("the owner kill never fired; the terminal window was not exercised")
	}
	if lost == nil {
		t.Fatal("no terminal decision was captured before the kill")
	}
	// The client's one successful retransmit is the only observation answer
	// after the kill: the decision it carries ends the episode.
	if len(rec.got) != 1 {
		t.Fatalf("client received %d observation answers after the kill, want 1 (the retransmit)", len(rec.got))
	}
	if replay := rec.got[0]; !bytes.Equal(lost, replay) {
		t.Errorf("terminal decision changed across the owner kill:\n lost:   %s\n replay: %s", lost, replay)
	}
	if remote.Abandoned != 0 {
		t.Errorf("%d episodes abandoned across the owner kill, want 0", remote.Abandoned)
	}
	if remote.Episodes != baseline.Episodes || remote.Recovered != baseline.Recovered {
		t.Errorf("fleet campaign completed %d/%d recovered, baseline %d/%d",
			remote.Recovered, remote.Episodes, baseline.Recovered, baseline.Episodes)
	}
	if diff := math.Abs(remote.Cost.Mean() - baseline.Cost.Mean()); diff > 1e-9 {
		t.Errorf("mean cost diverged by %g: fleet %v vs baseline %v",
			diff, remote.Cost.Mean(), baseline.Cost.Mean())
	}
	if diff := math.Abs(remote.ResidualTime.Mean() - baseline.ResidualTime.Mean()); diff > 1e-9 {
		t.Errorf("mean residual time diverged by %g", diff)
	}
	if open := f.OpenEpisodes(); open != 0 {
		t.Errorf("%d episodes still open across survivors", open)
	}
	t.Logf("terminal decision for episode %d survived the owner kill byte-identically: %s", lostID, lost)
}
