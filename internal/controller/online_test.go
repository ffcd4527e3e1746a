package controller

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// sameDecision reports whether two decisions agree bit for bit, Value
// compared by math.Float64bits.
func sameDecision(a, b Decision) bool {
	return a.Action == b.Action && a.Terminate == b.Terminate &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// tabled returns a controller over set that consults the store tbl.
func tabled(t *testing.T, p *pomdp.POMDP, set *bounds.Set, cfg BoundedConfig, tbl *FSC) *Bounded {
	t.Helper()
	ctrl, err := NewBounded(p, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.UseFSC(tbl, 0); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// checkTableParity decides pis through ctrl in batches of the given size
// and checks every decision against ref, a store-less controller over the
// same set.
func checkTableParity(t *testing.T, label string, ctrl, ref *Bounded, pis []pomdp.Belief, batch int) {
	t.Helper()
	got := make([]Decision, batch)
	want := make([]Decision, batch)
	for lo := 0; lo < len(pis); lo += batch {
		chunk := pis[lo:min(lo+batch, len(pis))]
		if err := ctrl.DecideBatch(chunk, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.DecideBatch(chunk, want); err != nil {
			t.Fatal(err)
		}
		for j := range chunk {
			if !sameDecision(got[j], want[j]) {
				t.Fatalf("%s: belief %d decided %+v through the online region, tree says %+v", label, lo+j, got[j], want[j])
			}
		}
	}
}

// randomTermModel generates a random recovery model satisfying Conditions
// 1 and 2 (state 0 is Sφ; each fault has a fixing action; observations are
// noisy state signatures), transformed with the terminate action.
func randomTermModel(t *testing.T, r *rng.Stream, nStates, nActions, nObs int) (*pomdp.POMDP, pomdp.TerminationIndices) {
	t.Helper()
	b := pomdp.NewBuilder()
	name := func(s int) string { return fmt.Sprintf("s%d", s) }
	for s := 0; s < nStates; s++ {
		b.State(name(s))
	}
	for a := 0; a < nActions; a++ {
		action := fmt.Sprintf("a%d", a)
		for s := 0; s < nStates; s++ {
			switch {
			case s == 0:
				b.Transition(name(s), action, name(s), 1)
			case a == s%nActions || a == 0:
				pFix := 0.5 + 0.5*r.Float64()
				b.Transition(name(s), action, name(0), pFix)
				if pFix < 1 {
					b.Transition(name(s), action, name(s), 1-pFix)
				}
			default:
				b.Transition(name(s), action, name(s), 1)
			}
			cost := -0.1 - r.Float64()
			if s == 0 {
				cost = -0.05
			}
			b.Reward(name(s), action, cost)
			b.Observe(name(s), action, fmt.Sprintf("o%d", s%nObs), 0.8)
			b.Observe(name(s), action, fmt.Sprintf("o%d", (s+1)%nObs), 0.2)
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
	mod, idx, err := pomdp.WithTermination(base, pomdp.TerminationConfig{
		NullStates: []int{0}, OperatorResponseTime: 5 + 10*r.Float64(), RateReward: rates,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mod, idx
}

// TestDecisionTableParityRandomModels: on random recovery models with
// online-improved bound sets, decisions through a shared store — cold, then
// warm, batched and one at a time, from two controllers — equal a
// store-less controller's bit for bit at depths 1 and 2.
func TestDecisionTableParityRandomModels(t *testing.T) {
	root := rng.New(2301)
	for trial := 0; trial < 6; trial++ {
		r := root.SplitN("model", trial)
		mod, idx := randomTermModel(t, r, 3+r.IntN(4), 2+r.IntN(3), 2+r.IntN(3))
		set, err := bounds.RASet(mod, bounds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		u, err := bounds.NewUpdater(mod, set, bounds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pi := range batchBeliefs(r.Split("grow"), 20, mod.NumStates()) {
			if _, err := u.UpdateAt(pi); err != nil {
				t.Fatal(err)
			}
		}
		for depth := 1; depth <= 2; depth++ {
			cfg := BoundedConfig{Depth: depth, TerminateAction: idx.Action, NullStates: []int{0}}
			ref, err := NewBounded(mod, set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Beliefs an episode visits, plus dense random ones.
			var pis []pomdp.Belief
			rec := recordingController{Bounded: ref, seen: &pis}
			initial := pomdp.UniformBelief(mod.NumStates())
			for ep := 0; ep < 6; ep++ {
				stream := r.SplitN("ep", ep)
				episode(t, mod, rec, initial, 1+stream.IntN(mod.NumStates()-2), stream, 100)
			}
			pis = append(pis, batchBeliefs(r.Split("dense"), 8, mod.NumStates())...)

			tbl := NewFSC(mod, cfg)
			a, b := tabled(t, mod, set, cfg, tbl), tabled(t, mod, set, cfg, tbl)
			label := fmt.Sprintf("trial %d depth %d", trial, depth)
			checkTableParity(t, label+" cold", a, ref, pis, 5)
			checkTableParity(t, label+" warm", b, ref, pis, 16)
			checkTableParity(t, label+" warm, one at a time", a, ref, pis, 1)
			if tbl.OnlineHits() == 0 || tbl.OnlineMisses() == 0 {
				t.Errorf("%s: %d hits, %d misses; want both", label, tbl.OnlineHits(), tbl.OnlineMisses())
			}
		}
	}
}

// TestDecisionTableSeesNewPlane: once Set.Add keeps a plane that changes
// the tree's argmax at a belief the online region holds, the next decision
// there is the fresh tree's, not the stored one.
func TestDecisionTableSeesNewPlane(t *testing.T) {
	f := newFixture(t)
	cfg := BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}}
	pi, err := pomdp.UniformOver(f.term.NumStates(), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewFSC(f.term, cfg)
	ctrl := tabled(t, f.term, f.set, cfg, tbl)
	cached, err := decideFrom(ctrl, pi)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := decideFrom(ctrl, pi); tbl.OnlineHits() != 1 || !sameDecision(again, cached) {
		t.Fatalf("warm decision %+v with %d hits; want %+v from the table", again, tbl.OnlineHits(), cached)
	}
	// Find a plane — the RA plane raised at one state — that moves the
	// argmax at pi, trying it on a copy of the set.
	data, err := f.set.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var plane linalg.Vector
	var fresh Decision
search:
	for s := 0; s < f.term.NumStates(); s++ {
		for _, bonus := range []float64{1, 10, 100, 1000} {
			trial := new(bounds.Set)
			if err := trial.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
			cand := trial.Plane(0)
			cand[s] += bonus
			if kept, err := trial.Add(cand); err != nil || !kept {
				continue
			}
			ref, err := NewBounded(f.term, trial, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d, err := decideFrom(ref, pi); err == nil && d.Action != cached.Action {
				plane, fresh = cand, d
				break search
			}
		}
	}
	if plane == nil {
		t.Fatal("no single plane moves the argmax at the test belief")
	}
	gen := f.set.Generation()
	if kept, err := f.set.Add(plane); err != nil || !kept {
		t.Fatalf("Add kept=%v err=%v", kept, err)
	}
	if f.set.Generation() == gen {
		t.Fatal("kept Add left the generation unchanged")
	}
	got, err := decideFrom(ctrl, pi)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(got, fresh) {
		t.Errorf("after the Add the online region answered %+v (stored %+v); the fresh tree says %+v", got, cached, fresh)
	}
}

// TestDecisionTableBucketCollision: three beliefs that hash to one two-way
// bucket keep evicting each other, and every decision stays the tree's.
func TestDecisionTableBucketCollision(t *testing.T) {
	f := newFixture(t)
	cfg := BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}}
	byBucket := map[uint64][]pomdp.Belief{}
	var crowded []pomdp.Belief
	stream := rng.New(2302)
	for crowded == nil {
		pi := batchBeliefs(stream, 1, f.term.NumStates())[0]
		k := hashBelief(pi) >> (64 - bucketBits)
		byBucket[k] = append(byBucket[k], pi)
		if len(byBucket[k]) == 3 {
			crowded = byBucket[k]
		}
	}
	tbl := NewFSC(f.term, cfg)
	ctrl := tabled(t, f.term, f.set, cfg, tbl)
	ref, err := NewBounded(f.term, f.set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := []pomdp.Belief{crowded[0], crowded[1], crowded[0], crowded[1], crowded[2], crowded[0], crowded[2], crowded[1]}
	checkTableParity(t, "one at a time", ctrl, ref, order, 1)
	checkTableParity(t, "batched", ctrl, ref, order, len(order))
	// Two fit in the bucket, so the first four decisions miss twice and hit
	// twice; the third belief evicts one of them and misses recur.
	if tbl.OnlineHits() < 2 || tbl.OnlineMisses() <= 3 {
		t.Errorf("%d hits, %d misses; want a crowded bucket to keep missing", tbl.OnlineHits(), tbl.OnlineMisses())
	}
}

// TestDecisionTableSkipsCertainty: in the recovery-notification regime a
// belief certain of Sφ is answered before the online region, is never counted and
// is never stored.
func TestDecisionTableSkipsCertainty(t *testing.T) {
	var rg dedupRegime
	for _, r := range dedupRegimes(t) {
		if r.name == "notify" {
			rg = r
		}
	}
	cfg := rg.cfg
	cfg.Depth = 1
	tbl := NewFSC(rg.p, cfg)
	ctrl := tabled(t, rg.p, rg.newSet(t), cfg, tbl)
	certain := make(pomdp.Belief, rg.p.NumStates())
	for _, s := range rg.cfg.NullStates {
		certain[s] = 1 / float64(len(rg.cfg.NullStates))
	}
	out := make([]Decision, 2)
	for i := 0; i < 2; i++ {
		if err := ctrl.DecideBatch([]pomdp.Belief{certain}, out); err != nil {
			t.Fatal(err)
		}
		if !out[0].Terminate {
			t.Fatalf("certain belief decided %+v, want termination", out[0])
		}
	}
	if tbl.OnlineHits() != 0 || tbl.OnlineMisses() != 0 {
		t.Errorf("certain belief counted: %d hits, %d misses", tbl.OnlineHits(), tbl.OnlineMisses())
	}
	uncertain := rg.initial
	if err := ctrl.DecideBatch([]pomdp.Belief{certain, uncertain}, out); err != nil {
		t.Fatal(err)
	}
	if tbl.OnlineHits() != 0 || tbl.OnlineMisses() != 1 {
		t.Errorf("mixed batch: %d hits, %d misses; want 0 and 1", tbl.OnlineHits(), tbl.OnlineMisses())
	}
	for i := range tbl.slots {
		if e := tbl.slots[i].Load(); e != nil && pomdp.SameBits(e.pi, certain) {
			t.Fatalf("slot %d stores the certain belief", i)
		}
	}
}

// TestDecisionTableReadOnlyPathOnly: controllers that improve online, audit
// Property 1(b) or collect stats never consult the online region, and neither does
// any controller while the set is capped — checked on every call, since a
// hit would hide leaf uses from least-used eviction. A capped controller's
// use counters advance exactly as a store-less one's.
func TestDecisionTableReadOnlyPathOnly(t *testing.T) {
	f := newFixture(t)
	cfg := BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}}
	pis := batchBeliefs(rng.New(2303), 6, f.term.NumStates())
	out := make([]Decision, len(pis))
	for _, mod := range []func(*BoundedConfig){
		func(c *BoundedConfig) { c.ImproveOnline = true },
		func(c *BoundedConfig) { c.CheckConsistency = true },
		func(c *BoundedConfig) { c.CollectStats = true },
	} {
		c := cfg
		mod(&c)
		set, err := bounds.RASet(f.term, bounds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tbl := NewFSC(f.term, c)
		ctrl := tabled(t, f.term, set, c, tbl)
		for i := 0; i < 2; i++ {
			if err := ctrl.DecideBatch(pis, out); err != nil {
				t.Fatal(err)
			}
		}
		if tbl.OnlineHits() != 0 || tbl.OnlineMisses() != 0 {
			t.Errorf("%+v: table consulted (%d hits, %d misses)", c, tbl.OnlineHits(), tbl.OnlineMisses())
		}
	}

	// A capacity set after the store was attached still bypasses it.
	capped, err := bounds.RASet(f.term, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := bounds.RASet(f.term, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewFSC(f.term, cfg)
	ctrl := tabled(t, f.term, capped, cfg, tbl)
	ref, err := NewBounded(f.term, twin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	capped.SetCapacity(4)
	checkTableParity(t, "capped", ctrl, ref, append(pis, pis...), 4)
	if tbl.OnlineHits() != 0 || tbl.OnlineMisses() != 0 {
		t.Errorf("capped set: table consulted (%d hits, %d misses)", tbl.OnlineHits(), tbl.OnlineMisses())
	}
	for i := 0; i < capped.Size(); i++ {
		if capped.Uses(i) != twin.Uses(i) {
			t.Errorf("plane %d uses %d, store-less twin %d", i, capped.Uses(i), twin.Uses(i))
		}
	}
	capped.SetCapacity(0)
	checkTableParity(t, "uncapped", ctrl, ref, append(pis, pis...), 4)
	if tbl.OnlineHits() != uint64(len(pis)) || tbl.OnlineMisses() != uint64(len(pis)) {
		t.Errorf("uncapped set: %d hits, %d misses; want %d each", tbl.OnlineHits(), tbl.OnlineMisses(), len(pis))
	}
}

// TestDecisionTableRefusesOtherControllers: a store serves one model, set,
// depth, discount and terminate action.
func TestDecisionTableRefusesOtherControllers(t *testing.T) {
	f := newFixture(t)
	cfg := BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}}
	tbl := NewFSC(f.term, cfg)
	tabled(t, f.term, f.set, cfg, tbl)
	tabled(t, f.term, f.set, cfg, tbl) // a second controller like the first is welcome
	other, err := bounds.RASet(f.term, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deeper := cfg
	deeper.Depth = 2
	discounted := cfg
	discounted.Beta = 0.9
	twin := newFixture(t) // a model like f's, but another one
	for name, c := range map[string]struct {
		p   *pomdp.POMDP
		set *bounds.Set
		cfg BoundedConfig
	}{
		"another model": {twin.term, f.set, cfg},
		"another set":   {f.term, other, cfg},
		"depth 2":       {f.term, f.set, deeper},
		"discounted":    {f.term, f.set, discounted},
	} {
		ctrl, err := NewBounded(c.p, c.set, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.UseFSC(tbl, 0); err == nil {
			t.Errorf("%s: store accepted", name)
		}
	}
}

// hashTwin returns a belief whose bits differ from pi's but whose
// hashBelief equals pi's: entry 0 is perturbed and the last entry solved
// for, which the hash's invertible xor-multiply steps allow.
func hashTwin(stream *rng.Stream, pi pomdp.Belief) pomdp.Belief {
	const mul = 0x9e3779b97f4a7c15
	inv := uint64(mul) // Newton's iteration for the inverse of mul mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - mul*inv
	}
	target := hashBelief(pi)
	n := len(pi)
	for {
		twin := pi.Clone()
		twin[0] *= 1 + stream.Float64()
		h := uint64(n)
		for _, x := range twin[:n-1] {
			h = (bits.RotateLeft64(h, 27) ^ math.Float64bits(x)) * mul
		}
		last := math.Float64frombits(bits.RotateLeft64(h, 27) ^ target*inv)
		if last > 0 && last < 1 {
			twin[n-1] = last
			return twin
		}
	}
}

// TestDecisionTableHashCollision: a belief whose hash equals a stored
// belief's but whose bits differ is not answered by the stored entry;
// matching is pomdp.SameBits, not the hash.
func TestDecisionTableHashCollision(t *testing.T) {
	f := newFixture(t)
	cfg := BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}}
	stream := rng.New(2305)
	pi := batchBeliefs(stream, 1, f.term.NumStates())[0]
	twin := hashTwin(stream, pi)
	if hashBelief(twin) != hashBelief(pi) || pomdp.SameBits(twin, pi) {
		t.Fatal("hashTwin did not forge a colliding belief")
	}
	tbl := NewFSC(f.term, cfg)
	ctrl := tabled(t, f.term, f.set, cfg, tbl)
	ref, err := NewBounded(f.term, f.set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTableParity(t, "one at a time", ctrl, ref, []pomdp.Belief{pi, twin, pi, twin}, 1)
	checkTableParity(t, "batched", ctrl, ref, []pomdp.Belief{twin, pi}, 2)
	if tbl.OnlineMisses() != 2 || tbl.OnlineHits() != 4 {
		t.Errorf("%d hits, %d misses; want 4 and 2", tbl.OnlineHits(), tbl.OnlineMisses())
	}
}
