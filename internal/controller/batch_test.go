package controller

import (
	"reflect"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/linalg"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// batchBeliefs draws m random points of the n-simplex.
func batchBeliefs(stream *rng.Stream, m, n int) []pomdp.Belief {
	pis := make([]pomdp.Belief, m)
	for i := range pis {
		pi := make(pomdp.Belief, n)
		sum := 0.0
		for s := range pi {
			pi[s] = stream.Float64()
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		pis[i] = pi
	}
	return pis
}

// decideFrom decides at pi the way an episode whose belief reached pi does:
// Reset to pi, then Decide.
func decideFrom(ctrl Controller, pi pomdp.Belief) (Decision, error) {
	if err := ctrl.Reset(pi); err != nil {
		return Decision{}, err
	}
	return ctrl.Decide()
}

// TestChooseBatchMatchesChoose pins the engine's bit-identity contract:
// ChooseBatch over random beliefs must reproduce the reference recursion
// (refChoose) exactly (Value, Action, and every Q-value compared with ==,
// via reflect.DeepEqual) at depth 1 and at depth 2, where the batched
// recursion shares frontiers across the batch.
func TestChooseBatchMatchesChoose(t *testing.T) {
	f := newFixture(t)
	for _, depth := range []int{1, 2} {
		engine, err := NewEngine(f.term, depth, 1, f.set)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			pis := batchBeliefs(rng.New(uint64(100*depth+trial)), 1+trial*3, f.term.NumStates())
			want := make([]pomdp.BackupResult, len(pis))
			for j, pi := range pis {
				res, err := refChoose(f.term, depth, 1, f.set, pi, &EngineCounters{})
				if err != nil {
					t.Fatal(err)
				}
				want[j] = res
			}
			got := make([]pomdp.BackupResult, len(pis))
			if err := engine.ChooseBatch(pis, got); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if !reflect.DeepEqual(want[j], got[j]) {
					t.Errorf("depth %d trial %d belief %d:\nreference:   %+v\nChooseBatch: %+v",
						depth, trial, j, want[j], got[j])
				}
			}
		}
	}
}

// TestChooseBatchReusesResultBuffers: a second call with the same out slice
// must not grow fresh QValues, and must still be exact.
func TestChooseBatchReusesResultBuffers(t *testing.T) {
	f := newFixture(t)
	engine, err := NewEngine(f.term, 1, 1, f.set)
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(5), 6, f.term.NumStates())
	out := make([]pomdp.BackupResult, len(pis))
	if err := engine.ChooseBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	firstQ := make([]*float64, len(out))
	for j := range out {
		firstQ[j] = &out[j].QValues[0]
	}
	if err := engine.ChooseBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if firstQ[j] != &out[j].QValues[0] {
			t.Errorf("belief %d: QValues reallocated on reuse", j)
		}
	}
}

func TestChooseBatchValidation(t *testing.T) {
	f := newFixture(t)
	engine, err := NewEngine(f.term, 1, 1, f.set)
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(9), 3, f.term.NumStates())
	if err := engine.ChooseBatch(pis, make([]pomdp.BackupResult, 2)); err == nil {
		t.Error("short result buffer accepted")
	}
	bad := []pomdp.Belief{{0.5, 0.5}}
	if err := engine.ChooseBatch(bad, make([]pomdp.BackupResult, 1)); err == nil {
		t.Error("wrong-length belief accepted")
	}
}

// TestDecideBatchMatchesDecide: the controller-level batch entry point must
// reproduce per-belief decisions exactly, including the a_T tie-break at the
// Sφ vertex (where the passive action's Q ties the terminate action's).
func TestDecideBatchMatchesDecide(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(11), 20, f.term.NumStates())
	// Include the Sφ vertex and a near-certain belief: the tie-break cases.
	vertex := make(pomdp.Belief, f.term.NumStates())
	vertex[0] = 1
	pis = append(pis, vertex)

	want := make([]Decision, len(pis))
	for j, pi := range pis {
		d, err := decideFrom(ctrl, pi)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = d
	}
	got := make([]Decision, len(pis))
	if err := ctrl.DecideBatch(pis, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("DecideBatch diverges from Decide:\nwant: %+v\ngot:  %+v", want, got)
	}
	if !got[len(got)-1].Terminate {
		t.Error("Sφ vertex not terminated: the a_T tie-break is not exercised")
	}
}

// TestDecideBatchNotificationCertainty: in the recovery-notification regime,
// certain beliefs are answered by the short-circuit, uncertain ones by the
// batched expansion, and both must match the sequential path.
func TestDecideBatchNotificationCertainty(t *testing.T) {
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := pomdp.AbsorbNullStates(ts.Model, ts.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	set, err := bounds.RASet(mod, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewBounded(mod, set, BoundedConfig{Depth: 1, TerminateAction: -1, NullStates: ts.NullStates})
	if err != nil {
		t.Fatal(err)
	}
	n := mod.NumStates()
	certain := make(pomdp.Belief, n)
	for _, s := range ts.NullStates {
		certain[s] = 1.0 / float64(len(ts.NullStates))
	}
	pis := append(batchBeliefs(rng.New(13), 8, n), certain)

	want := make([]Decision, len(pis))
	for j, pi := range pis {
		d, err := decideFrom(ctrl, pi)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = d
	}
	got := make([]Decision, len(pis))
	if err := ctrl.DecideBatch(pis, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("notification-regime DecideBatch diverges:\nwant: %+v\ngot:  %+v", want, got)
	}
	if !got[len(got)-1].Terminate {
		t.Error("certain belief not terminated by the short-circuit")
	}
}

// TestDecideBatchFallbackWithOnlineImprovement: with ImproveOnline the
// batched entry point must fall back to sequential decisions — pinned by
// running twin controllers over twin sets and checking both the decisions
// and the resulting bound sets agree plane-for-plane.
func TestDecideBatchFallbackWithOnlineImprovement(t *testing.T) {
	f := newFixture(t)
	newImproving := func() *Bounded {
		set, err := bounds.RASet(f.term, bounds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewBounded(f.term, set, BoundedConfig{
			Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}, ImproveOnline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	seqCtrl, batCtrl := newImproving(), newImproving()
	pis := batchBeliefs(rng.New(17), 12, f.term.NumStates())

	want := make([]Decision, len(pis))
	for j, pi := range pis {
		d, err := decideFrom(seqCtrl, pi)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = d
	}
	got := make([]Decision, len(pis))
	if err := batCtrl.DecideBatch(pis, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fallback decisions diverge:\nwant: %+v\ngot:  %+v", want, got)
	}
	a, b := seqCtrl.Set(), batCtrl.Set()
	if a.Size() != b.Size() {
		t.Fatalf("online-improved sets diverged: %d vs %d planes", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		if !reflect.DeepEqual(a.Plane(i), b.Plane(i)) {
			t.Errorf("plane %d diverged after online improvement", i)
		}
	}
}

func TestDecideBatchValidation(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action})
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(19), 3, f.term.NumStates())
	if err := ctrl.DecideBatch(pis, make([]Decision, 2)); err == nil {
		t.Error("short decision buffer accepted")
	}
	if err := ctrl.DecideBatch([]pomdp.Belief{{1, 0}}, make([]Decision, 1)); err == nil {
		t.Error("wrong-length belief accepted")
	}
}

// TestDecideIsBatchOfOne pins the single decision path under the settings
// that make DecideBatch decide one belief at a time (ImproveOnline and
// CheckConsistency, with CollectStats on). Three twins over three copies
// of the bound set see the same beliefs: per-belief
// Decide, one in-order DecideBatch, and the reference (the audit and the
// update by hand, then refChoose with the a_T tie-break). Decisions,
// Q-values, work counters and every stats field must agree, and so must the
// final planes, use counts and eviction counts, also through a probe of
// further Adds under a capacity, which evicts by those use counts.
func TestDecideIsBatchOfOne(t *testing.T) {
	f := newFixture(t)
	const capacity = 4
	for _, tc := range []struct {
		name           string
		improve, check bool
		capped         bool // capacity already bites during the decisions
	}{
		// Evictions can break Property 1(b), so the audited runs cap the
		// sets only for the probe.
		{"improve", true, false, true},
		{"check", false, true, false},
		{"improve+check", true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BoundedConfig{
				Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0},
				ImproveOnline: tc.improve, CheckConsistency: tc.check, CollectStats: true,
			}
			newTwin := func() (*bounds.Set, *Bounded) {
				set, err := bounds.RASet(f.term, bounds.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if tc.capped {
					set.SetCapacity(capacity)
				}
				ctrl, err := NewBounded(f.term, set, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return set, ctrl
			}
			seqSet, seqCtrl := newTwin()
			batSet, batCtrl := newTwin()
			refSet, refCtrl := newTwin()
			updater, err := bounds.NewUpdater(f.term, refSet, bounds.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sc := pomdp.NewScratch(f.term)

			pis := batchBeliefs(rng.New(43), 40, f.term.NumStates())
			vertex := make(pomdp.Belief, f.term.NumStates())
			vertex[0] = 1
			pis = append(pis, vertex)

			seqStats := make([]DecisionStats, len(pis))
			seqOut := make([]Decision, len(pis))
			for j, pi := range pis {
				if seqOut[j], err = decideFrom(seqCtrl, pi); err != nil {
					t.Fatal(err)
				}
				st := seqCtrl.DecisionStats()
				st.QValues = append([]float64(nil), st.QValues...)
				seqStats[j] = st
			}
			batOut := make([]Decision, len(pis))
			if err := batCtrl.DecideBatch(pis, batOut); err != nil {
				t.Fatal(err)
			}
			batStats := batCtrl.BatchDecisionStats()
			for j, pi := range pis {
				if tc.check {
					rep, err := bounds.CheckConsistency(f.term, sc, refSet, pi, bounds.Options{})
					if err != nil || !rep.OK {
						t.Fatalf("belief %d: reference audit %+v, %v", j, rep, err)
					}
				}
				if tc.improve {
					if _, err := updater.UpdateAt(pi); err != nil {
						t.Fatal(err)
					}
				}
				var ctr EngineCounters
				ref, err := refChoose(f.term, 1, 1, refSet, pi, &ctr)
				if err != nil {
					t.Fatal(err)
				}
				want := refCtrl.toDecision(&ref)
				leaf := refSet.Peek(pi)
				if seqOut[j] != want || batOut[j] != want {
					t.Fatalf("belief %d: Decide %+v, DecideBatch %+v, reference %+v", j, seqOut[j], batOut[j], want)
				}
				wantStats := DecisionStats{
					Action: want.Action, Terminate: want.Terminate, Value: want.Value, QValues: ref.QValues,
					LeafBound: leaf, BoundGap: want.Value - leaf, BeliefEntropy: pi.Entropy(),
					TreeNodes: ctr.Nodes, LeafEvals: ctr.LeafEvals, SlabPasses: seqStats[j].SlabPasses,
					SetSize: refSet.Size(), SetEvictions: refSet.Evictions(), Tier: TierTree,
				}
				if seqStats[j].SlabPasses == 0 {
					t.Fatalf("belief %d: no slab pass counted", j)
				}
				if !reflect.DeepEqual(seqStats[j], wantStats) || !reflect.DeepEqual(batStats[j], wantStats) {
					t.Fatalf("belief %d stats:\nDecide:      %+v\nDecideBatch: %+v\nreference:   %+v", j, seqStats[j], batStats[j], wantStats)
				}
			}
			if !seqOut[len(pis)-1].Terminate {
				t.Error("Sφ vertex not terminated: the a_T tie-break is not exercised")
			}

			// Further Adds under a capacity evict by the final use counts.
			for _, set := range []*bounds.Set{seqSet, batSet, refSet} {
				set.SetCapacity(capacity)
			}
			probe := rng.New(47)
			base := refSet.Plane(0)
			for k := 0; k < 6; k++ {
				b := make(linalg.Vector, len(base))
				for s := range b {
					b[s] = base[s] + probe.Float64()
				}
				b[probe.IntN(len(b))] -= 3
				for _, set := range []*bounds.Set{seqSet, batSet, refSet} {
					if _, err := set.Add(append(linalg.Vector(nil), b...)); err != nil {
						t.Fatal(err)
					}
				}
				for name, set := range map[string]*bounds.Set{"Decide": seqSet, "DecideBatch": batSet} {
					if set.Size() != refSet.Size() || set.Evictions() != refSet.Evictions() {
						t.Fatalf("probe %d: %s twin has %d planes/%d evictions, reference %d/%d",
							k, name, set.Size(), set.Evictions(), refSet.Size(), refSet.Evictions())
					}
					for i := 0; i < set.Size(); i++ {
						if set.Uses(i) != refSet.Uses(i) || !pomdp.SameBits(pomdp.Belief(set.Plane(i)), pomdp.Belief(refSet.Plane(i))) {
							t.Fatalf("probe %d: %s twin plane %d (%d uses) differs from the reference (%d uses)",
								k, name, i, set.Uses(i), refSet.Uses(i))
						}
					}
				}
			}
			if refSet.Evictions() == 0 {
				t.Fatal("no evictions: the use counters were not exercised")
			}
		})
	}
}
