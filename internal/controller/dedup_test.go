package controller

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// The tests in this file pin the engine's duplicate merging against
// refChoose, the textbook recursion: a batch that repeats
// beliefs must decide every entry bit-identically to the reference, count
// the logical tree, and leave the bound set's use counters — hence
// least-used eviction — exactly as per-leaf evaluation would.

// refChoose is the reference Max-Avg expansion: one pomdp.Backup per tree
// node, recursing into every successor, with the leaf called once per
// logical frontier belief. It adds the logical tree to ctr.
func refChoose(p *pomdp.POMDP, depth int, beta float64, leaf pomdp.ValueFn, pi pomdp.Belief, ctr *EngineCounters) (pomdp.BackupResult, error) {
	sc := pomdp.NewScratch(p)
	var backup func(pi pomdp.Belief, remaining int) (pomdp.BackupResult, error)
	backup = func(pi pomdp.Belief, remaining int) (pomdp.BackupResult, error) {
		ctr.Nodes++
		return pomdp.Backup(p, sc, pi, beta, pomdp.ValueFunc(func(b pomdp.Belief) float64 {
			if remaining == 1 {
				ctr.LeafEvals++
				return leaf.Value(b)
			}
			res, err := backup(b, remaining-1)
			if err != nil {
				panic(err)
			}
			return res.Value
		}))
	}
	return backup(pi, depth)
}

// dedupRegime is one termination regime of the two-server model: the
// model the controller decides over, a constructor for a fresh bound set,
// the controller configuration and the episode start.
type dedupRegime struct {
	name    string
	p       *pomdp.POMDP
	newSet  func(t *testing.T) *bounds.Set
	cfg     BoundedConfig
	initial pomdp.Belief
	observe int // the passive observe action
}

// dedupRegimes returns the terminate-action regime (the a_T transform) and
// the recovery-notification regime (absorbing Sφ, certainty termination).
func dedupRegimes(t *testing.T) []dedupRegime {
	t.Helper()
	f := newFixture(t)
	termInitial, err := pomdp.UniformOver(f.term.NumStates(), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := pomdp.AbsorbNullStates(f.ts.Model, f.ts.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	raSet := func(p *pomdp.POMDP) func(t *testing.T) *bounds.Set {
		return func(t *testing.T) *bounds.Set {
			t.Helper()
			set, err := bounds.RASet(p, bounds.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return set
		}
	}
	return []dedupRegime{
		{
			name:    "terminate",
			p:       f.term,
			newSet:  raSet(f.term),
			cfg:     BoundedConfig{TerminateAction: f.idx.Action, NullStates: []int{0}},
			initial: termInitial,
			observe: f.ts.ActionObserve,
		},
		{
			name:    "notify",
			p:       mod,
			newSet:  raSet(mod),
			cfg:     BoundedConfig{TerminateAction: -1, NullStates: f.ts.NullStates},
			initial: pomdp.UniformBelief(mod.NumStates()),
			observe: f.ts.ActionObserve,
		},
	}
}

// recordingController records the tracked belief before every Decide.
type recordingController struct {
	*Bounded
	seen *[]pomdp.Belief
}

func (r recordingController) Decide() (Decision, error) {
	*r.seen = append(*r.seen, r.Belief())
	return r.Bounded.Decide()
}

// beliefPool returns the beliefs a depth-1 controller visits over a few
// simulated recovery episodes (few and heavily repeated, as on a real
// campaign) plus some dense random beliefs.
func beliefPool(t *testing.T, rg dedupRegime) []pomdp.Belief {
	t.Helper()
	cfg := rg.cfg
	cfg.Depth = 1
	ctrl, err := NewBounded(rg.p, rg.newSet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pool []pomdp.Belief
	rec := recordingController{Bounded: ctrl, seen: &pool}
	root := rng.New(501)
	for ep := 0; ep < 12; ep++ {
		stream := root.SplitN("ep", ep)
		episode(t, rg.p, rec, rg.initial, 1+stream.IntN(2), stream, 200)
	}
	return append(pool, batchBeliefs(rng.New(502), 6, rg.p.NumStates())...)
}

// duplicateBatch draws m ≥ 2 beliefs from pool with replacement, as fresh
// copies (so merging cannot lean on shared backing arrays), makes sure some
// belief repeats bit for bit, and shuffles the batch.
func duplicateBatch(stream *rng.Stream, pool []pomdp.Belief, m int) []pomdp.Belief {
	pis := make([]pomdp.Belief, m)
	repeats := false
	for j := range pis {
		pis[j] = pool[stream.IntN(len(pool))].Clone()
		for _, prev := range pis[:j] {
			repeats = repeats || pomdp.SameBits(prev, pis[j])
		}
	}
	if !repeats {
		pis[m-1] = pis[0].Clone()
	}
	stream.Shuffle(len(pis), func(i, j int) { pis[i], pis[j] = pis[j], pis[i] })
	return pis
}

// sameBackup reports whether two root backups agree bit for bit.
func sameBackup(a, b pomdp.BackupResult) bool {
	return a.Action == b.Action && math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		pomdp.SameBits(a.QValues, b.QValues)
}

// parityEngine is an engine under test, named by its leaf kind.
type parityEngine struct {
	leaf   string
	engine *Engine
}

// parityEngines returns, for one regime and depth, an engine per leaf kind:
// the bound set (a batched, use-counting leaf) and two plain ValueFns, the
// heuristic controller's default SRDS'05 leaf and the zero leaf.
func parityEngines(t *testing.T, rg dedupRegime, depth int) []parityEngine {
	t.Helper()
	set, err := NewEngine(rg.p, depth, 1, rg.newSet(t))
	if err != nil {
		t.Fatal(err)
	}
	heuristic := func(leaf pomdp.ValueFn) *Engine {
		h, err := NewHeuristic(rg.p, HeuristicConfig{
			Depth: depth, NullStates: rg.cfg.NullStates, TerminationProbability: 0.9999, Leaf: leaf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h.engine
	}
	return []parityEngine{
		{"set", set},
		{"srds05", heuristic(nil)},
		{"zero", heuristic(pomdp.ValueFunc(func(pomdp.Belief) float64 { return 0 }))},
	}
}

// TestDedupChooseBatchParity: on batches with repeats, ChooseBatch and the
// one-belief Choose must reproduce the reference recursion bit for bit
// (Action, Value, every Q-value) at depths 1–3 in both termination regimes,
// for a batched leaf and for plain ones, and advance the work counters by
// exactly the logical tree the reference counts.
func TestDedupChooseBatchParity(t *testing.T) {
	for _, rg := range dedupRegimes(t) {
		pool := beliefPool(t, rg)
		for depth := 1; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth%d", rg.name, depth), func(t *testing.T) {
				for _, pe := range parityEngines(t, rg, depth) {
					engine := pe.engine
					stream := rng.New(uint64(600 + depth))
					for trial := 0; trial < 6; trial++ {
						pis := duplicateBatch(stream, pool, 4+5*trial)
						want := make([]pomdp.BackupResult, len(pis))
						var ref EngineCounters
						for j, pi := range pis {
							res, err := refChoose(rg.p, depth, 1, engine.leaf, pi, &ref)
							if err != nil {
								t.Fatal(err)
							}
							want[j] = res
						}
						c0 := engine.Counters()
						got := make([]pomdp.BackupResult, len(pis))
						if err := engine.ChooseBatch(pis, got); err != nil {
							t.Fatal(err)
						}
						c1 := engine.Counters()
						for j, pi := range pis {
							one, err := engine.Choose(pi)
							if err != nil {
								t.Fatal(err)
							}
							if !sameBackup(want[j], got[j]) || !sameBackup(want[j], one) {
								t.Fatalf("%s leaf, trial %d belief %d:\nreference:   %+v\nChooseBatch: %+v\nChoose:      %+v",
									pe.leaf, trial, j, want[j], got[j], one)
							}
						}
						c2 := engine.Counters()
						for _, c := range []EngineCounters{
							{Nodes: c1.Nodes - c0.Nodes, LeafEvals: c1.LeafEvals - c0.LeafEvals},
							{Nodes: c2.Nodes - c1.Nodes, LeafEvals: c2.LeafEvals - c1.LeafEvals},
						} {
							if c != ref {
								t.Fatalf("%s leaf, trial %d: engine counters %+v, reference %+v", pe.leaf, trial, c, ref)
							}
						}
					}
				}
			})
		}
	}
}

// TestDedupDecideBatchParity: Bounded.DecideBatch on batches with repeats
// must match per-belief decisions bit for bit — Decision and every stats
// Q-value — and its per-decision work stats must sum to the per-belief
// totals, at depths 1–3 in both termination regimes. Every tree-decided
// belief's Q-values and work stats must also match the reference recursion.
func TestDedupDecideBatchParity(t *testing.T) {
	for _, rg := range dedupRegimes(t) {
		pool := beliefPool(t, rg)
		for depth := 1; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth%d", rg.name, depth), func(t *testing.T) {
				cfg := rg.cfg
				cfg.Depth, cfg.CollectStats = depth, true
				ctrl, err := NewBounded(rg.p, rg.newSet(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				stream := rng.New(uint64(700 + depth))
				for trial := 0; trial < 6; trial++ {
					pis := duplicateBatch(stream, pool, 4+5*trial)
					want := make([]Decision, len(pis))
					wantQ := make([][]float64, len(pis))
					var wantNodes, wantLeaves uint64
					for j, pi := range pis {
						if want[j], err = decideFrom(ctrl, pi); err != nil {
							t.Fatal(err)
						}
						st := ctrl.DecisionStats()
						wantQ[j] = append([]float64(nil), st.QValues...)
						wantNodes += st.TreeNodes
						wantLeaves += st.LeafEvals
						if st.TreeNodes == 0 {
							continue // certainty short-circuit: no tree
						}
						var ctr EngineCounters
						ref, err := refChoose(rg.p, depth, 1, ctrl.engine.leaf, pi, &ctr)
						if err != nil {
							t.Fatal(err)
						}
						if !pomdp.SameBits(st.QValues, ref.QValues) || st.TreeNodes != ctr.Nodes || st.LeafEvals != ctr.LeafEvals {
							t.Fatalf("trial %d belief %d: Q-values %v (%d nodes, %d leaves), reference %v (%+v)",
								trial, j, st.QValues, st.TreeNodes, st.LeafEvals, ref.QValues, ctr)
						}
					}
					got := make([]Decision, len(pis))
					if err := ctrl.DecideBatch(pis, got); err != nil {
						t.Fatal(err)
					}
					var gotNodes, gotLeaves uint64
					for j, st := range ctrl.BatchDecisionStats() {
						if got[j] != want[j] || math.Float64bits(got[j].Value) != math.Float64bits(want[j].Value) {
							t.Fatalf("trial %d belief %d: DecideBatch %+v, Decide %+v", trial, j, got[j], want[j])
						}
						if !pomdp.SameBits(st.QValues, wantQ[j]) {
							t.Fatalf("trial %d belief %d: Q-values %v, want %v", trial, j, st.QValues, wantQ[j])
						}
						gotNodes += st.TreeNodes
						gotLeaves += st.LeafEvals
					}
					if gotNodes != wantNodes || gotLeaves != wantLeaves {
						t.Fatalf("trial %d: batch stats sum to %d nodes/%d leaves, per-belief %d/%d",
							trial, gotNodes, gotLeaves, wantNodes, wantLeaves)
					}
				}
			})
		}
	}
}

// TestDedupFSCMissParity: an FSC-fronted controller whose small table
// serves only part of a batch with repeats must answer every entry — hits
// and the merged misses alike — exactly as the per-belief tree does.
func TestDedupFSCMissParity(t *testing.T) {
	for _, rg := range dedupRegimes(t) {
		pool := beliefPool(t, rg)
		for depth := 1; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth%d", rg.name, depth), func(t *testing.T) {
				set := rg.newSet(t)
				cfg := rg.cfg
				cfg.Depth = depth
				tree, err := NewBounded(rg.p, set, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fsc, err := CompileFSC(tree, []pomdp.Belief{rg.initial}, FSCCompileConfig{
					InitialObservationAction: rg.observe,
					MaxNodes:                 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				fallback, err := NewBounded(rg.p, set, cfg)
				if err != nil {
					t.Fatal(err)
				}
				dec := useFSC(t, fallback, fsc, fsc.MaxGap()+1)
				// Half the pool again as compiled beliefs, so the batch
				// mixes table hits with repeated misses.
				mixed := append([]pomdp.Belief(nil), pool...)
				for i := 0; i < fsc.NumNodes(); i++ {
					mixed = append(mixed, fsc.Node(i).Belief)
				}
				stream := rng.New(uint64(800 + depth))
				h0, f0 := fsc.Hits(), fsc.Fallbacks()
				for trial := 0; trial < 6; trial++ {
					pis := duplicateBatch(stream, mixed, 8+5*trial)
					got := make([]Decision, len(pis))
					if err := dec.DecideBatch(pis, got); err != nil {
						t.Fatal(err)
					}
					for j, pi := range pis {
						want, err := decideFrom(tree, pi)
						if err != nil {
							t.Fatal(err)
						}
						if got[j] != want || math.Float64bits(got[j].Value) != math.Float64bits(want.Value) {
							t.Fatalf("trial %d belief %d: FSC DecideBatch %+v, tree %+v", trial, j, got[j], want)
						}
					}
				}
				if fsc.Hits() == h0 || fsc.Fallbacks() == f0 {
					t.Fatalf("batches did not split across tiers: %d hits, %d fallbacks", fsc.Hits()-h0, fsc.Fallbacks()-f0)
				}
			})
		}
	}
}

// TestDedupEvictionParity drives two capacity-limited twins of the bound
// set, one through the merging DecideBatch and one through the reference
// recursion, with the same batches and the same Adds in between: the
// merged multiplicities must advance the use counters exactly as the
// reference's per-leaf evaluations do, so both twins evict the same planes.
// A third twin is read by a pool of batch deciders on separate goroutines,
// as the server's pooled deciders share one set, and must evict the same
// planes too.
func TestDedupEvictionParity(t *testing.T) {
	for _, rg := range dedupRegimes(t) {
		pool := beliefPool(t, rg)
		for depth := 1; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth%d", rg.name, depth), func(t *testing.T) {
				const capacity, workers = 4, 3
				newTwin := func() *bounds.Set {
					set := rg.newSet(t)
					set.SetCapacity(capacity)
					return set
				}
				merged, single, shared := newTwin(), newTwin(), newTwin()
				cfg := rg.cfg
				cfg.Depth = depth
				newCtrl := func(set *bounds.Set) *Bounded {
					ctrl, err := NewBounded(rg.p, set, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return ctrl
				}
				mergedCtrl := newCtrl(merged)
				pooled := make([]*Bounded, workers)
				for w := range pooled {
					pooled[w] = newCtrl(shared)
				}
				base := merged.Plane(0)
				stream := rng.New(uint64(900 + depth))
				for round := 0; round < 12; round++ {
					pis := duplicateBatch(stream, pool, 16)
					out := make([]Decision, len(pis))
					if err := mergedCtrl.DecideBatch(pis, out); err != nil {
						t.Fatal(err)
					}
					// The pooled deciders split the batch's work: together
					// they decide it once.
					var wg sync.WaitGroup
					errs := make([]error, workers)
					for w, ctrl := range pooled {
						wg.Add(1)
						go func(w int, ctrl *Bounded) {
							defer wg.Done()
							part := pis[w*len(pis)/workers : (w+1)*len(pis)/workers]
							errs[w] = ctrl.DecideBatch(part, make([]Decision, len(part)))
						}(w, ctrl)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
					for _, pi := range pis {
						if cfg.TerminateAction < 0 && pi.Mass(pomdp.SortedStates(cfg.NullStates)) >= certainty {
							continue // decided without a tree
						}
						if _, err := refChoose(rg.p, depth, 1, single, pi, &EngineCounters{}); err != nil {
							t.Fatal(err)
						}
					}
					// A plane raised above the base one at one state and
					// lowered elsewhere: it wins the leaves that lean on
					// that state, so the planes' use counts differ.
					b := make(linalg.Vector, len(base))
					for s := range b {
						b[s] = base[s] - 0.3*stream.Float64()
					}
					b[stream.IntN(len(b))] += 0.5 + 1.5*stream.Float64()
					for _, set := range []*bounds.Set{merged, single, shared} {
						if _, err := set.Add(append(linalg.Vector(nil), b...)); err != nil {
							t.Fatal(err)
						}
					}
					for name, set := range map[string]*bounds.Set{"merged": merged, "pooled": shared} {
						if set.Size() != single.Size() || set.Evictions() != single.Evictions() {
							t.Fatalf("round %d: %s twin has %d planes/%d evictions, reference twin %d/%d",
								round, name, set.Size(), set.Evictions(), single.Size(), single.Evictions())
						}
						for i := 0; i < set.Size(); i++ {
							if !pomdp.SameBits(pomdp.Belief(set.Plane(i)), pomdp.Belief(single.Plane(i))) {
								t.Fatalf("round %d: %s twin evicted differently (plane %d differs)", round, name, i)
							}
						}
					}
				}
				if single.Evictions() == 0 {
					t.Fatal("no evictions: the capacity never bit, so the use counters were not exercised")
				}
			})
		}
	}
}
