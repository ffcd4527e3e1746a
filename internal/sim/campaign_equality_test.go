package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/stats"
)

// oldSequentialCampaign is a verbatim transcription of the pre-unification
// sequential RunCampaignOpts loop (PR 1 vintage). The unified engine with
// Workers == 1 must reproduce it bit-for-bit — same seeds, same episode
// order, same accumulator fold order — which is what pins down "the
// sequential path is just workers=1".
func oldSequentialCampaign(r *Runner, ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream, opts CampaignOptions) (CampaignResult, error) {
	var out CampaignResult
	if ctrl != nil {
		out.Name = ctrl.Name()
	}
	if len(faultStates) == 0 {
		return out, fmt.Errorf("sim: no fault states to inject")
	}
	if episodes < 1 {
		return out, fmt.Errorf("sim: non-positive episode count %d", episodes)
	}
	if ctrl == nil && opts.EpisodeFactory == nil {
		return out, fmt.Errorf("sim: nil controller and no episode factory")
	}
	for i := 0; i < episodes; i++ {
		ep := stream.SplitN("episode", i)
		fault := faultStates[ep.IntN(len(faultStates))]
		epCtrl := ctrl
		var done func(error)
		if opts.EpisodeFactory != nil {
			c, cleanup, err := opts.EpisodeFactory(i)
			if err != nil {
				if opts.ContinueOnError {
					out.Abandoned++
					continue
				}
				return out, fmt.Errorf("sim: episode %d factory: %w", i, err)
			}
			epCtrl, done = c, cleanup
			if out.Name == "" {
				out.Name = epCtrl.Name()
			}
		}
		res, err := r.RunEpisode(epCtrl, initial, fault, ep)
		if done != nil {
			done(err)
		}
		if err != nil {
			if opts.ContinueOnError {
				out.Abandoned++
				continue
			}
			return out, fmt.Errorf("sim: episode %d (fault %s): %w",
				i, r.rm.POMDP.M.StateName(fault), err)
		}
		out.Episodes++
		if res.Recovered {
			out.Recovered++
		}
		out.Cost.Add(res.Cost)
		out.RecoveryTime.Add(res.RecoveryTime)
		out.ResidualTime.Add(res.ResidualTime)
		out.AlgoTimeMs.Add(float64(res.AlgoTime) / float64(time.Millisecond))
		out.Actions.Add(float64(res.Actions))
		out.MonitorCalls.Add(float64(res.MonitorCalls))
	}
	return out, nil
}

// statsAcc is the zero accumulator used to blank the one wall-clock-derived
// metric (AlgoTimeMs) before bit-for-bit comparison: it folds real
// durations, which legitimately differ between any two runs.
type statsAcc = stats.Accumulator

func TestUnifiedWorkers1MatchesOldSequential(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	newCtrl := func() controller.Controller {
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	uniform := pomdp.UniformBelief(3)
	faults := []int{1, 2}
	const episodes = 80

	old, err := oldSequentialCampaign(runner, newCtrl(), uniform, faults, episodes, rng.New(17), CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unified, err := runner.RunCampaignOpts(newCtrl(), uniform, faults, episodes, rng.New(17), CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// AlgoTimeMs folds real wall-clock durations, which legitimately differ
	// between any two runs; everything else must be identical to the bit.
	old.AlgoTimeMs, unified.AlgoTimeMs = statsAcc{}, statsAcc{}
	if !reflect.DeepEqual(old, unified) {
		t.Errorf("unified workers=1 diverges from the old sequential runner:\nold:     %+v\nunified: %+v", old, unified)
	}
}

func TestUnifiedWorkers1MatchesOldSequentialWithFactoryAndErrors(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(i int) (controller.Controller, func(error), error) {
		if i%4 == 3 {
			return nil, nil, errors.New("flaky factory")
		}
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return ctrl, nil, err
	}
	uniform := pomdp.UniformBelief(3)
	faults := []int{1, 2}
	opts := CampaignOptions{ContinueOnError: true, EpisodeFactory: factory}

	old, err := oldSequentialCampaign(runner, nil, uniform, faults, 40, rng.New(23), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	unified, err := runner.RunCampaignOpts(nil, uniform, faults, 40, rng.New(23), opts)
	if err != nil {
		t.Fatal(err)
	}
	old.AlgoTimeMs, unified.AlgoTimeMs = statsAcc{}, statsAcc{}
	if !reflect.DeepEqual(old, unified) {
		t.Errorf("factory/ContinueOnError parity broken:\nold:     %+v\nunified: %+v", old, unified)
	}
	if unified.Abandoned != 10 {
		t.Errorf("abandoned = %d, want 10", unified.Abandoned)
	}
}

func TestUnifiedWorkers4Deterministic(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (controller.Controller, pomdp.Belief, error) {
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return ctrl, pomdp.UniformBelief(3), err
	}
	run := func() CampaignResult {
		res, err := runner.RunCampaignOpts(nil, nil, []int{1, 2}, 60, rng.New(31), CampaignOptions{
			Workers: 4, WorkerFactory: factory,
		})
		if err != nil {
			t.Fatal(err)
		}
		zeroed := res
		zeroed.AlgoTimeMs = statsAcc{}
		return zeroed
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fixed workers=4 campaigns with the same seed differ:\na: %+v\nb: %+v", a, b)
	}
	if a.Episodes != 60 {
		t.Errorf("episodes = %d, want 60", a.Episodes)
	}
}

// decideFailController errors on Decide — a stand-in for a controller whose
// backing transport died mid-campaign.
type decideFailController struct{}

func (decideFailController) Reset(pomdp.Belief) error { return nil }
func (decideFailController) Decide() (controller.Decision, error) {
	return controller.Decision{}, errors.New("transport down")
}
func (decideFailController) Observe(int, int) error { return nil }
func (decideFailController) Belief() pomdp.Belief   { return nil }
func (decideFailController) Name() string           { return "decide-fail" }

// TestParallelWorkerErrorPreservesPartialResults is the regression test for
// the pre-unification data loss: the parallel campaign returned
// CampaignResult{} whenever any worker erred — discarding every completed
// episode — and surfaced only the first worker's error. The unified engine
// must keep the completed episodes and join all worker errors.
func TestParallelWorkerErrorPreservesPartialResults(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	goodCtrl := func() (controller.Controller, error) {
		return controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
	}
	// Episodes 1 and 2 (workers 1 and 2 of 4) fail on their first episode;
	// workers 0 and 3 complete at least their first episodes.
	factory := func(i int) (controller.Controller, func(error), error) {
		if i == 1 || i == 2 {
			return decideFailController{}, nil, nil
		}
		ctrl, err := goodCtrl()
		return ctrl, nil, err
	}
	res, err := runner.RunCampaignOpts(nil, pomdp.UniformBelief(3), []int{1, 2}, 40, rng.New(3), CampaignOptions{
		Workers: 4, EpisodeFactory: factory,
	})
	if err == nil {
		t.Fatal("campaign with two failing workers reported success")
	}
	if res.Episodes == 0 {
		t.Fatalf("completed episodes discarded on worker error (the old data-loss bug): %+v", res)
	}
	if res.Episodes != res.Cost.N() {
		t.Errorf("episodes %d != cost samples %d: partial merge inconsistent", res.Episodes, res.Cost.N())
	}
	msg := err.Error()
	if !strings.Contains(msg, "episode 1") || !strings.Contains(msg, "episode 2") {
		t.Errorf("joined error should name both failing episodes, got: %v", msg)
	}
	// With ContinueOnError the same failures become Abandoned counts and the
	// campaign completes every other episode.
	res, err = runner.RunCampaignOpts(nil, pomdp.UniformBelief(3), []int{1, 2}, 40, rng.New(3), CampaignOptions{
		Workers: 4, EpisodeFactory: factory, ContinueOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned != 2 {
		t.Errorf("abandoned = %d, want 2", res.Abandoned)
	}
	if res.Episodes != 38 {
		t.Errorf("episodes = %d, want 38", res.Episodes)
	}
}

// TestSequentialEpisodeErrorPreservesPartialResults pins the same guarantee
// on the sequential path (it held before unification too).
func TestSequentialEpisodeErrorPreservesPartialResults(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(i int) (controller.Controller, func(error), error) {
		if i == 5 {
			return decideFailController{}, nil, nil
		}
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return ctrl, nil, err
	}
	res, err := runner.RunCampaignOpts(nil, pomdp.UniformBelief(3), []int{1, 2}, 20, rng.New(3), CampaignOptions{
		EpisodeFactory: factory,
	})
	if err == nil {
		t.Fatal("campaign with failing episode reported success")
	}
	if res.Episodes != 5 {
		t.Errorf("episodes = %d, want the 5 completed before the failure", res.Episodes)
	}
}

// TestSharedControllerRejectedInParallel: a shared stateful controller
// cannot be driven from several goroutines; the engine must refuse rather
// than race.
func TestSharedControllerRejectedInParallel(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
		NullStates: ts.NullStates, TerminationProbability: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runner.RunCampaignOpts(ctrl, pomdp.UniformBelief(3), []int{1, 2}, 20, rng.New(3), CampaignOptions{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "shared controller") {
		t.Errorf("shared controller with Workers=4 accepted: %v", err)
	}
}

// mostLikelyFactory builds a fresh stateless most-likely controller per
// worker over the two-server model.
func mostLikelyFactory(ts *models.TwoServer) ControllerFactory {
	return func() (controller.Controller, pomdp.Belief, error) {
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return ctrl, pomdp.UniformBelief(3), err
	}
}

// TestWorkerFactoryMatchesSequentialForStatelessController: a controller
// with no cross-episode state must give the sequential campaign's merged
// statistics at any worker count.
func TestWorkerFactoryMatchesSequentialForStatelessController(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	factory := mostLikelyFactory(ts)
	const episodes = 60
	ctrl, initial, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runner.RunCampaign(ctrl, initial, []int{1, 2}, episodes, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		par, err := runner.RunCampaignOpts(nil, nil, []int{1, 2}, episodes, rng.New(5), CampaignOptions{
			Workers: workers, WorkerFactory: factory,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Episodes != episodes || par.Recovered != seq.Recovered {
			t.Errorf("workers=%d: episodes/recovered = %d/%d, want %d/%d",
				workers, par.Episodes, par.Recovered, episodes, seq.Recovered)
		}
		if math.Abs(par.Cost.Mean()-seq.Cost.Mean()) > 1e-9 {
			t.Errorf("workers=%d: cost %v != sequential %v", workers, par.Cost.Mean(), seq.Cost.Mean())
		}
		if math.Abs(par.Cost.Variance()-seq.Cost.Variance()) > 1e-6 {
			t.Errorf("workers=%d: variance %v != sequential %v", workers, par.Cost.Variance(), seq.Cost.Variance())
		}
		if math.Abs(par.MonitorCalls.Mean()-seq.MonitorCalls.Mean()) > 1e-9 {
			t.Errorf("workers=%d: monitor calls differ", workers)
		}
	}
}

// TestWorkerFactoryBoundedControllers: per-worker bounded controllers, each
// over its own bootstrapped bound set and improving it online, recover
// every episode.
func TestWorkerFactoryBoundedControllers(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Each worker gets its own Prepared (and thus its own mutable bound
	// set); the bounded controller is not safe to share across goroutines.
	factory := func() (controller.Controller, pomdp.Belief, error) {
		prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 10})
		if err != nil {
			return nil, nil, err
		}
		// Bootstrapping before control is part of the paper's protocol: the
		// raw RA-Bound can be loose enough to make premature termination
		// look attractive.
		if _, err := prep.Bootstrap(10, controller.VariantAverage, 1, rng.New(77)); err != nil {
			return nil, nil, err
		}
		ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1, ImproveOnline: true})
		if err != nil {
			return nil, nil, err
		}
		initial, err := prep.InitialBelief()
		return ctrl, initial, err
	}
	res, err := runner.RunCampaignOpts(nil, nil, []int{1, 2}, 40, rng.New(9), CampaignOptions{
		Workers: 4, WorkerFactory: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != res.Episodes {
		t.Errorf("recovered %d/%d", res.Recovered, res.Episodes)
	}
}

func TestWorkerFactoryValidation(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 10)
	if err != nil {
		t.Fatal(err)
	}
	run := func(factory ControllerFactory, faults []int, episodes int) error {
		_, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(1), CampaignOptions{
			Workers: 2, WorkerFactory: factory,
		})
		return err
	}
	factory := mostLikelyFactory(ts)
	if run(factory, nil, 5) == nil {
		t.Error("empty faults accepted")
	}
	if run(factory, []int{1}, 0) == nil {
		t.Error("zero episodes accepted")
	}
	if run(nil, []int{1}, 5) == nil {
		t.Error("nil factory accepted")
	}
	bad := func() (controller.Controller, pomdp.Belief, error) {
		return nil, nil, errors.New("boom")
	}
	if run(bad, []int{1}, 5) == nil {
		t.Error("factory error swallowed")
	}
}
