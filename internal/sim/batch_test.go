package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// boundedFactory builds an independent Bounded controller per call from its
// own Prepared (bootstrap included), so batched and sequential campaigns in
// the equality tests never share a bound set.
func boundedFactory(t *testing.T, rm *core.RecoveryModel) func() (controller.Controller, pomdp.Belief, error) {
	t.Helper()
	return func() (controller.Controller, pomdp.Belief, error) {
		ctrl, initial := preparedBounded(t, rm)
		return ctrl, initial, nil
	}
}

// TestBatchedCampaignMatchesSequential is the tentpole equality test: the
// batched stepping mode must reproduce the sequential campaign bit-for-bit
// (AlgoTimeMs aside — it folds wall-clock durations). Twin controllers are
// prepared identically so online counter bumps cannot couple the two runs.
func TestBatchedCampaignMatchesSequential(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	faults := []int{1, 2}
	const episodes = 64

	seqCtrl, seqInitial := preparedBounded(t, rm)
	seq, err := runner.RunCampaignOpts(seqCtrl, seqInitial, faults, episodes, rng.New(41), CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 4, 16, episodes + 7} {
		batCtrl, batInitial := preparedBounded(t, rm)
		bat, err := runner.RunCampaignOpts(batCtrl, batInitial, faults, episodes, rng.New(41), CampaignOptions{
			Workers: 1, BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("batch size %d: %v", batch, err)
		}
		a, b := seq, bat
		a.AlgoTimeMs, b.AlgoTimeMs = statsAcc{}, statsAcc{}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("batch size %d diverges from sequential:\nseq:     %+v\nbatched: %+v", batch, a, b)
		}
	}
}

// TestBatchedCampaignParallelWorkers pins batched-vs-plain equality at
// Workers > 1: each worker gets its own batch-capable Bounded from the
// WorkerFactory, and the merged statistics must match the non-batched
// campaign at the same worker count.
func TestBatchedCampaignParallelWorkers(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	faults := []int{1, 2}
	const episodes = 48

	run := func(batch int) CampaignResult {
		res, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(53), CampaignOptions{
			Workers: 2, WorkerFactory: boundedFactory(t, rm), BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("batch size %d: %v", batch, err)
		}
		res.AlgoTimeMs = statsAcc{}
		return res
	}
	plain, batched := run(0), run(8)
	if !reflect.DeepEqual(plain, batched) {
		t.Errorf("workers=2 batched diverges from plain:\nplain:   %+v\nbatched: %+v", plain, batched)
	}
}

// TestBatchedCampaignDeterministic: same seed, same options — identical
// results across reruns.
func TestBatchedCampaignDeterministic(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	run := func() CampaignResult {
		ctrl, initial := preparedBounded(t, rm)
		res, err := runner.RunCampaignOpts(ctrl, initial, []int{1, 2}, 40, rng.New(67), CampaignOptions{
			Workers: 1, BatchSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.AlgoTimeMs = statsAcc{}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("batched campaigns with the same seed differ:\na: %+v\nb: %+v", a, b)
	}
}

// TestBatchedCampaignTimeoutParity: with a step budget small enough to trip,
// batched and sequential campaigns must abandon the same episodes.
func TestBatchedCampaignTimeoutParity(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 3)
	if err != nil {
		t.Fatal(err)
	}
	faults := []int{1, 2}
	const episodes = 32
	opts := CampaignOptions{Workers: 1, ContinueOnError: true}

	seqCtrl, seqInitial := preparedBounded(t, rm)
	seq, err := runner.RunCampaignOpts(seqCtrl, seqInitial, faults, episodes, rng.New(71), opts)
	if err != nil {
		t.Fatal(err)
	}
	batCtrl, batInitial := preparedBounded(t, rm)
	opts.BatchSize = 8
	bat, err := runner.RunCampaignOpts(batCtrl, batInitial, faults, episodes, rng.New(71), opts)
	if err != nil {
		t.Fatal(err)
	}
	seq.AlgoTimeMs, bat.AlgoTimeMs = statsAcc{}, statsAcc{}
	if !reflect.DeepEqual(seq, bat) {
		t.Errorf("timeout parity broken:\nseq:     %+v\nbatched: %+v", seq, bat)
	}
	if bat.Abandoned == 0 {
		t.Error("step budget 3 abandoned no episodes; the test exercises nothing")
	}
}

// TestBatchedCampaignFatalErrorParity: without ContinueOnError, a timeout
// mid-campaign must surface the same smallest-index failure as the
// sequential loop, with exactly the episodes before it folded.
func TestBatchedCampaignFatalErrorParity(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 3)
	if err != nil {
		t.Fatal(err)
	}
	faults := []int{1, 2}
	const episodes = 32

	seqCtrl, seqInitial := preparedBounded(t, rm)
	seq, seqErr := runner.RunCampaignOpts(seqCtrl, seqInitial, faults, episodes, rng.New(71), CampaignOptions{Workers: 1})
	if seqErr == nil {
		t.Fatal("step budget 3 produced no sequential error; the test exercises nothing")
	}
	batCtrl, batInitial := preparedBounded(t, rm)
	bat, batErr := runner.RunCampaignOpts(batCtrl, batInitial, faults, episodes, rng.New(71), CampaignOptions{
		Workers: 1, BatchSize: 8,
	})
	if batErr == nil {
		t.Fatal("batched campaign missed the sequential failure")
	}
	if seqErr.Error() != batErr.Error() {
		t.Errorf("fatal errors differ:\nseq:     %v\nbatched: %v", seqErr, batErr)
	}
	seq.AlgoTimeMs, bat.AlgoTimeMs = statsAcc{}, statsAcc{}
	if !reflect.DeepEqual(seq, bat) {
		t.Errorf("partial results differ on fatal error:\nseq:     %+v\nbatched: %+v", seq, bat)
	}
}

func TestAutoWorkers(t *testing.T) {
	cases := []struct{ episodes, procs, want int }{
		{1, 8, 1},
		{3, 8, 1},
		{4, 8, 1},
		{8, 8, 2},
		{40, 8, 8},
		{40, 4, 4},
		{1000, 16, 16},
		{2, 1, 1},
	}
	for _, c := range cases {
		if got := autoWorkers(c.episodes, c.procs); got != c.want {
			t.Errorf("autoWorkers(%d, %d) = %d, want %d", c.episodes, c.procs, got, c.want)
		}
	}
}

// TestAutoWorkersOnlyWithFactory: Workers == 0 with just a shared controller
// must stay sequential (a shared controller cannot be parallelized), and the
// result must equal the explicit Workers: 1 run.
func TestAutoWorkersOnlyWithFactory(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts CampaignOptions) CampaignResult {
		ctrl, initial := preparedBounded(t, rm)
		res, err := runner.RunCampaignOpts(ctrl, initial, []int{1, 2}, 40, rng.New(5), opts)
		if err != nil {
			t.Fatal(err)
		}
		res.AlgoTimeMs = statsAcc{}
		return res
	}
	auto, pinned := run(CampaignOptions{}), run(CampaignOptions{Workers: 1})
	if !reflect.DeepEqual(auto, pinned) {
		t.Errorf("Workers=0 without a factory is not the sequential campaign:\nauto:   %+v\npinned: %+v", auto, pinned)
	}

	// An EpisodeFactory alone must not auto-parallelize either, whatever the
	// core count: it need be concurrency-safe only when Workers > 1 is asked
	// for. Raising GOMAXPROCS makes the check independent of the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	factoryRun := func(opts CampaignOptions) CampaignResult {
		ctrl, initial := preparedBounded(t, rm)
		opts.EpisodeFactory = func(int) (controller.Controller, func(error), error) { return ctrl, nil, nil }
		res, err := runner.RunCampaignOpts(nil, initial, []int{1, 2}, 40, rng.New(5), opts)
		if err != nil {
			t.Fatal(err)
		}
		res.AlgoTimeMs = statsAcc{}
		return res
	}
	auto, pinned = factoryRun(CampaignOptions{}), factoryRun(CampaignOptions{Workers: 1})
	if !reflect.DeepEqual(auto, pinned) {
		t.Errorf("Workers=0 with an EpisodeFactory is not the sequential campaign:\nauto:   %+v\npinned: %+v", auto, pinned)
	}
}

func TestBatchOptionValidation(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, initial := preparedBounded(t, rm)
	uniform := pomdp.UniformBelief(3)
	_ = uniform

	cases := []struct {
		name string
		opts CampaignOptions
		want string
	}{
		{"negative batch", CampaignOptions{BatchSize: -1}, "negative batch size"},
		{"episode factory", CampaignOptions{BatchSize: 4, EpisodeFactory: func(int) (controller.Controller, func(error), error) {
			return ctrl, nil, nil
		}}, "incompatible with EpisodeFactory"},
		{"decider without size", CampaignOptions{BatchDecider: ctrl}, "without a positive BatchSize"},
		{"shared decider parallel", CampaignOptions{BatchSize: 4, BatchDecider: ctrl, Workers: 3}, "shared batch decider"},
	}
	for _, c := range cases {
		_, err := runner.RunCampaignOpts(ctrl, initial, []int{1, 2}, 20, rng.New(1), c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}

	// A batch-incapable controller with BatchSize set must be rejected with
	// a pointer at the fix, not crash.
	ml, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
		NullStates: ts.NullStates, TerminationProbability: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runner.RunCampaignOpts(ml, uniform, []int{1, 2}, 20, rng.New(1), CampaignOptions{BatchSize: 4})
	if err == nil || !strings.Contains(err.Error(), "needs a controller.BatchDecider") {
		t.Errorf("batch-incapable controller: got %v", err)
	}
}
