package sim

import (
	"fmt"
	"reflect"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/linalg"
	"bpomdp/internal/modelload"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// emnPrepared builds one independently bootstrapped Prepared over the EMN
// model. Twin calls with the same seed produce bit-identical bound sets, so
// an FSC compiled from one is exact with respect to the other's tree.
func emnPrepared(t *testing.T, rm *core.RecoveryModel) *core.Prepared {
	t.Helper()
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 2, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestFSCCampaignMatchesTreeEMN is the acceptance equality test on the
// paper's EMN model: a campaign decided by the FSC-fronted controller must
// reproduce the plain tree campaign bit-for-bit — mean cost included — at
// the strictest gap threshold (per-decision parity by construction) and at a
// threshold wide enough to serve every compiled node. Sets are frozen
// (ImproveOnline off), so the table is an amortization of the tree.
func TestFSCCampaignMatchesTreeEMN(t *testing.T) {
	rm, err := modelload.Load("emn")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(rm, 1000)
	if err != nil {
		t.Fatal(err)
	}
	faults := rm.FaultStates()
	const episodes = 24

	treePrep := emnPrepared(t, rm)
	treeCtrl, err := treePrep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := treePrep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := runner.RunCampaignOpts(treeCtrl, initial, faults, episodes, rng.New(101), CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	fscPrep := emnPrepared(t, rm)
	fsc, err := fscPrep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, fsc.MaxGap() + 1} {
		dec, err := fscPrep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1}, threshold)
		if err != nil {
			t.Fatal(err)
		}
		fscInitial, err := fscPrep.InitialBelief()
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.RunCampaignOpts(dec, fscInitial, faults, episodes, rng.New(101), CampaignOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost.Mean() != tree.Cost.Mean() {
			t.Errorf("threshold %v: fsc campaign mean cost %v, tree %v", threshold, got.Cost.Mean(), tree.Cost.Mean())
		}
		a, b := tree, got
		a.Name, b.Name = "", ""
		a.AlgoTimeMs, b.AlgoTimeMs = statsAcc{}, statsAcc{}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("threshold %v: fsc campaign diverges from tree:\ntree: %+v\nfsc:  %+v", threshold, a, b)
		}
	}
	if fsc.Hits() == 0 {
		t.Error("EMN campaigns never hit the compiled table")
	}
}

// TestFSCBatchedCampaignMatchesTreeEMN runs the FSC tier through the batched
// campaign engine (the FSC-fronted controller is the shared BatchDecider)
// and pins equality with the sequential tree campaign, plus the per-tier
// decision split the campaign aggregates with stats enabled.
func TestFSCBatchedCampaignMatchesTreeEMN(t *testing.T) {
	rm, err := modelload.Load("emn")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(rm, 1000)
	if err != nil {
		t.Fatal(err)
	}
	faults := rm.FaultStates()
	const episodes = 24

	treePrep := emnPrepared(t, rm)
	treeCtrl, err := treePrep.NewController(core.ControllerConfig{Depth: 1, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := treePrep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := runner.RunCampaignOpts(treeCtrl, initial, faults, episodes, rng.New(131), CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.FSCDecisions != 0 || tree.TreeDecisions != tree.Decisions {
		t.Errorf("tree campaign tier split %d fsc / %d tree of %d decisions; want all tree",
			tree.FSCDecisions, tree.TreeDecisions, tree.Decisions)
	}

	fscPrep := emnPrepared(t, rm)
	fsc, err := fscPrep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fscPrep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1, CollectStats: true}, fsc.MaxGap()+1)
	if err != nil {
		t.Fatal(err)
	}
	fscInitial, err := fscPrep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.RunCampaignOpts(dec, fscInitial, faults, episodes, rng.New(131), CampaignOptions{
		Workers: 1, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.FSCDecisions == 0 {
		t.Error("batched FSC campaign served no table hits")
	}
	if got.FSCDecisions+got.TreeDecisions != got.Decisions {
		t.Errorf("tier split %d+%d does not cover %d decisions", got.FSCDecisions, got.TreeDecisions, got.Decisions)
	}
	if got.Cost.Mean() != tree.Cost.Mean() {
		t.Errorf("batched fsc campaign mean cost %v, tree %v", got.Cost.Mean(), tree.Cost.Mean())
	}
	// Work counters and tier splits legitimately differ between the tiers
	// (table hits expand no tree); the trajectory-determined aggregates must
	// not.
	a, b := tree, got
	a.Name, b.Name = "", ""
	a.AlgoTimeMs, b.AlgoTimeMs = statsAcc{}, statsAcc{}
	a.TreeNodes, b.TreeNodes = 0, 0
	a.LeafEvals, b.LeafEvals = 0, 0
	a.SlabPasses, b.SlabPasses = 0, 0
	a.FSCDecisions, b.FSCDecisions = 0, 0
	a.TreeDecisions, b.TreeDecisions = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("batched fsc campaign diverges from tree:\ntree: %+v\nfsc:  %+v", a, b)
	}
}

// TestFSCCampaignCountersEMN pins the FSC tier's counters on two EMN
// campaigns: the shared FSC's hits and fallbacks, the campaign's per-tier
// decision split and the decider's name. Parity tests compare decisions;
// these figures show the tiers split the work as before.
func TestFSCCampaignCountersEMN(t *testing.T) {
	rm, err := modelload.Load("emn")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(rm, 1000)
	if err != nil {
		t.Fatal(err)
	}
	prep := emnPrepared(t, rm)
	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		name                     string
		hits, fallbacks          uint64
		fscDecisions, treeDecide int
	}
	for _, tc := range []struct {
		label     string
		threshold float64
		batch     int
		seed      uint64
		want      counts
	}{
		{"per-episode strict", 0, 0, 101, counts{"fsc(41 nodes, gap<=0)+bounded(depth=1)", 57, 48, 57, 48}},
		{"batched strict", 0, 8, 131, counts{"fsc(41 nodes, gap<=0)+bounded(depth=1)", 52, 54, 52, 54}},
		{"batched permissive", 1e9, 8, 131, counts{"fsc(41 nodes, gap<=1e+09)+bounded(depth=1)", 106, 0, 106, 0}},
	} {
		dec, err := prep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1, CollectStats: true}, tc.threshold)
		if err != nil {
			t.Fatal(err)
		}
		h0, f0 := fsc.Hits(), fsc.Fallbacks()
		res, err := runner.RunCampaignOpts(dec, initial, rm.FaultStates(), 24, rng.New(tc.seed), CampaignOptions{
			Workers: 1, BatchSize: tc.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := counts{dec.Name(), fsc.Hits() - h0, fsc.Fallbacks() - f0, res.FSCDecisions, res.TreeDecisions}
		if got != tc.want {
			t.Errorf("%s: counters %+v, want %+v", tc.label, got, tc.want)
		}
	}
}

// randomRecoveryBase generates a random base recovery model satisfying
// Conditions 1 and 2 (the same family as the bounds package's generative
// tests), plus an explicit passive observe action so it can be wrapped in a
// RecoveryModel and simulated.
func randomRecoveryBase(t *testing.T, r *rng.Stream, nStates, nActions, nObs int) *core.RecoveryModel {
	t.Helper()
	b := pomdp.NewBuilder()
	name := func(s int) string {
		if s == 0 {
			return "null"
		}
		return fmt.Sprintf("fault%d", s)
	}
	for s := 0; s < nStates; s++ {
		b.State(name(s))
	}
	for a := 0; a < nActions; a++ {
		action := fmt.Sprintf("act%d", a)
		for s := 0; s < nStates; s++ {
			if s == 0 {
				b.Transition(name(s), action, name(s), 1)
			} else if a == s%nActions || a == 0 {
				pFix := 0.5 + 0.5*r.Float64()
				b.Transition(name(s), action, name(0), pFix)
				if pFix < 1 {
					b.Transition(name(s), action, name(s), 1-pFix)
				}
			} else {
				b.Transition(name(s), action, name(s), 1)
			}
			cost := -0.1 - r.Float64()
			if s == 0 {
				cost = -0.05
			}
			b.Reward(name(s), action, cost)
		}
	}
	// The passive monitor: identity transitions, a small sweep cost.
	for s := 0; s < nStates; s++ {
		b.Transition(name(s), "observe", name(s), 1)
		b.Reward(name(s), "observe", -0.01)
	}
	// Noisy per-state observation signatures under every action.
	for a := 0; a <= nActions; a++ {
		action := fmt.Sprintf("act%d", a)
		if a == nActions {
			action = "observe"
		}
		for s := 0; s < nStates; s++ {
			b.Observe(name(s), action, fmt.Sprintf("obs%d", s%nObs), 0.7)
			b.Observe(name(s), action, fmt.Sprintf("obs%d", (s+1)%nObs), 0.3)
		}
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rates := linalg.NewVector(nStates)
	for s := 1; s < nStates; s++ {
		rates[s] = -0.2 - r.Float64()
	}
	durations := make([]float64, base.NumActions())
	for a := 0; a < nActions; a++ {
		durations[a] = 0.5 + r.Float64()
	}
	rm := &core.RecoveryModel{
		POMDP:           base,
		NullStates:      []int{0},
		RateRewards:     rates,
		Durations:       durations,
		MonitorAction:   b.Action("observe"),
		MonitorDuration: 0.1,
	}
	if err := rm.Validate(); err != nil {
		t.Fatal(err)
	}
	return rm
}

// TestFSCCampaignPropertyRandomModels is the generative property test: for
// random recovery models, a campaign decided by the compiled FSC (with tree
// fallback) must produce exactly the tree campaign's mean cost, at the
// strict and the permissive gap threshold.
func TestFSCCampaignPropertyRandomModels(t *testing.T) {
	root := rng.New(4242)
	for trial := 0; trial < 8; trial++ {
		r := root.SplitN("model", trial)
		nStates := 3 + r.IntN(4)
		nActions := 2 + r.IntN(3)
		nObs := 2 + r.IntN(3)
		rm := randomRecoveryBase(t, r, nStates, nActions, nObs)
		runner, err := NewRunner(rm, 500)
		if err != nil {
			t.Fatal(err)
		}
		faults := rm.FaultStates()
		const episodes = 16

		prepare := func() *core.Prepared {
			prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := prep.Bootstrap(5, controller.VariantAverage, 1, rng.New(uint64(900+trial))); err != nil {
				t.Fatal(err)
			}
			return prep
		}
		treePrep := prepare()
		treeCtrl, err := treePrep.NewController(core.ControllerConfig{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		initial, err := treePrep.InitialBelief()
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(300 + trial)
		tree, err := runner.RunCampaignOpts(treeCtrl, initial, faults, episodes, rng.New(seed), CampaignOptions{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: tree campaign: %v", trial, err)
		}

		fscPrep := prepare()
		fsc, err := fscPrep.CompileFSC(core.FSCConfig{Depth: 1})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		for _, threshold := range []float64{0, fsc.MaxGap() + 1} {
			dec, err := fscPrep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1}, threshold)
			if err != nil {
				t.Fatal(err)
			}
			fscInitial, err := fscPrep.InitialBelief()
			if err != nil {
				t.Fatal(err)
			}
			got, err := runner.RunCampaignOpts(dec, fscInitial, faults, episodes, rng.New(seed), CampaignOptions{Workers: 1})
			if err != nil {
				t.Fatalf("trial %d threshold %v: fsc campaign: %v", trial, threshold, err)
			}
			if got.Cost.Mean() != tree.Cost.Mean() {
				t.Errorf("trial %d (%d states, %d actions) threshold %v: fsc mean cost %v, tree %v",
					trial, nStates, nActions, threshold, got.Cost.Mean(), tree.Cost.Mean())
			}
			if got.Recovered != tree.Recovered || got.Episodes != tree.Episodes {
				t.Errorf("trial %d threshold %v: outcome split diverges: fsc %d/%d, tree %d/%d",
					trial, threshold, got.Recovered, got.Episodes, tree.Recovered, tree.Episodes)
			}
		}
	}
}
