package controller

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bpomdp/internal/bounds"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// useFSC attaches fsc to ctrl at the given gap threshold and returns ctrl.
func useFSC(t *testing.T, ctrl *Bounded, fsc *FSC, gapThreshold float64) *Bounded {
	t.Helper()
	if err := ctrl.UseFSC(fsc, gapThreshold); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// compileFixtureFSC compiles the two-server termination fixture's FSC from
// the uniform-over-original-states root, through a depth-1 tree over the
// fixture's frozen RA-Bound set.
func compileFixtureFSC(t *testing.T, f *fixture, cfg FSCCompileConfig) *FSC {
	t.Helper()
	n := f.term.NumStates()
	orig := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if s != f.idx.State {
			orig = append(orig, s)
		}
	}
	root, err := pomdp.UniformOver(n, orig)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitialObservationAction = f.ts.ActionObserve
	fsc, err := CompileFSC(tree, []pomdp.Belief{root}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fsc
}

// TestCompileFSCNodeParity is the cornerstone exactness test: every compiled
// node's stored decision and bound gap must be bit-identical to the
// reference recursion's decision at the node's belief over the same frozen
// set, with the gap Value − V_B⁻(π), and to what a Bounded controller
// reaching that belief decides and reports.
func TestCompileFSCNodeParity(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	if fsc.NumNodes() < 2 {
		t.Fatalf("compiled only %d nodes; expansion did not reach past the root", fsc.NumNodes())
	}
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{
		Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}, CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fsc.NumNodes(); i++ {
		n := fsc.Node(i)
		ref, err := refChoose(f.term, 1, 1, f.set, n.Belief, &EngineCounters{})
		if err != nil {
			t.Fatal(err)
		}
		want := ctrl.toDecision(&ref)
		if n.decision() != want || math.Float64bits(n.Value) != math.Float64bits(want.Value) {
			t.Errorf("node %d: compiled decision %+v, reference %+v", i, n.decision(), want)
		}
		if gap := want.Value - f.set.Peek(n.Belief); math.Float64bits(n.Gap) != math.Float64bits(gap) {
			t.Errorf("node %d: compiled gap %v, reference Value − Peek = %v", i, n.Gap, gap)
		}
		d, err := decideFrom(ctrl, n.Belief)
		if err != nil {
			t.Fatal(err)
		}
		if d != n.decision() {
			t.Errorf("node %d: compiled decision %+v, tree says %+v", i, n.decision(), d)
		}
		st := ctrl.DecisionStats()
		if st.BoundGap != n.Gap {
			t.Errorf("node %d: compiled gap %v, tree observed %v", i, n.Gap, st.BoundGap)
		}
	}
}

// TestCompileFSCNotificationCertainty compiles in the recovery-notification
// regime and pins that certainty nodes replay the online controller's
// short-circuit: Terminate with zero value, and parity with Decide at
// every node.
func TestCompileFSCNotificationCertainty(t *testing.T) {
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
	fsc, err := CompileFSC(ctrl, []pomdp.Belief{pomdp.UniformBelief(mod.NumStates())}, FSCCompileConfig{
		InitialObservationAction: ts.ActionObserve,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawCertainty := false
	for i := 0; i < fsc.NumNodes(); i++ {
		n := fsc.Node(i)
		d, err := decideFrom(ctrl, n.Belief)
		if err != nil {
			t.Fatal(err)
		}
		if d != n.decision() {
			t.Errorf("node %d: compiled decision %+v, tree says %+v", i, n.decision(), d)
		}
		if n.Terminate {
			sawCertainty = true
			if n.Value != 0 {
				t.Errorf("node %d: certainty termination with value %v, want 0", i, n.Value)
			}
			if n.Edges != nil {
				t.Errorf("node %d: certainty termination keeps %d edges", i, len(n.Edges))
			}
		}
	}
	if !sawCertainty {
		t.Error("perfect-coverage compile reached no certainty termination node")
	}
}

// TestFSCDeciderEpisodeParity drives an FSC-fronted controller and a twin
// tree controller through identical episodes (same RNG streams) and
// requires bit-identical decisions throughout, at the strictest and the
// loosest gap thresholds. The set is frozen (no online improvement), so the table is an
// amortization of the tree, never an approximation.
func TestFSCDeciderEpisodeParity(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	newTree := func() *Bounded {
		ctrl, err := NewBounded(f.term, f.set, BoundedConfig{
			Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	n := f.term.NumStates()
	orig := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if s != f.idx.State {
			orig = append(orig, s)
		}
	}
	initial, err := pomdp.UniformOver(n, orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, fsc.MaxGap() + 1} {
		dec := useFSC(t, newTree(), fsc, threshold)
		tree := newTree()
		for trial := 0; trial < 30; trial++ {
			seed := uint64(1000 + trial)
			faultState := 1 + trial%2
			recA, stepsA := episode(t, f.base, dec, initial, faultState, rng.New(seed), 200)
			recB, stepsB := episode(t, f.base, tree, initial, faultState, rng.New(seed), 200)
			if recA != recB || stepsA != stepsB {
				t.Errorf("threshold %v trial %d: fsc episode (rec=%v steps=%d) diverges from tree (rec=%v steps=%d)",
					threshold, trial, recA, stepsA, recB, stepsB)
			}
		}
	}
	if fsc.Hits() == 0 {
		t.Error("no decision was ever served from the table")
	}
	if fsc.Fallbacks() == 0 {
		t.Error("no decision ever fell back (threshold 0 should force fallbacks)")
	}
}

// TestFSCDeciderStatsTiers pins the tier attribution and the compile-time
// bound-gap telemetry of both serving tiers.
func TestFSCDeciderStatsTiers(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	newTree := func() *Bounded {
		ctrl, err := NewBounded(f.term, f.set, BoundedConfig{
			Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}, CollectStats: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	root := fsc.Node(0)

	// Loose threshold: the root decision is a table hit tagged TierFSC, with
	// the compile-time gap.
	dec := useFSC(t, newTree(), fsc, fsc.MaxGap()+1)
	if err := dec.Reset(root.Belief); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decide(); err != nil {
		t.Fatal(err)
	}
	st := dec.DecisionStats()
	if st.Tier != TierFSC {
		t.Errorf("table hit reported tier %q, want %q", st.Tier, TierFSC)
	}
	if st.BoundGap != root.Gap || st.Value != root.Value || st.TreeNodes != 0 {
		t.Errorf("table-hit stats %+v do not replay the compiled node %+v", st, root)
	}

	// Strict threshold on a positive-gap node: fallback, tagged TierTree,
	// with the tree's own live telemetry — the satellite-6 regression (the
	// fallback path must never drop tier attribution).
	wide := -1
	for i := 0; i < fsc.NumNodes(); i++ {
		if n := fsc.Node(i); !n.Terminate && n.Gap > 0 {
			wide = i
			break
		}
	}
	if wide < 0 {
		t.Fatal("no positive-gap node to force a fallback with")
	}
	dec2 := useFSC(t, newTree(), fsc, 0)
	if err := dec2.Reset(fsc.Node(wide).Belief); err != nil {
		t.Fatal(err)
	}
	if _, err := dec2.Decide(); err != nil {
		t.Fatal(err)
	}
	st = dec2.DecisionStats()
	if st.Tier != TierTree {
		t.Errorf("fallback decision reported tier %q, want %q", st.Tier, TierTree)
	}
	if st.TreeNodes == 0 {
		t.Error("fallback stats report zero expansion work")
	}
}

// TestFSCDecideBatchMatchesTree: at any threshold over a frozen set, the
// tiered batch decider must reproduce the plain tree's DecideBatch
// bit-for-bit on a mix of compiled and off-graph beliefs, and must actually
// split the batch across both tiers.
func TestFSCDecideBatchMatchesTree(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	newTree := func(stats bool) *Bounded {
		ctrl, err := NewBounded(f.term, f.set, BoundedConfig{
			Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}, CollectStats: stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	pis := batchBeliefs(rng.New(71), 9, f.term.NumStates())
	for i := 0; i < fsc.NumNodes() && i < 8; i++ {
		pis = append(pis, fsc.Node(i).Belief)
	}
	dec := useFSC(t, newTree(true), fsc, fsc.MaxGap()+1)
	h0, f0 := fsc.Hits(), fsc.Fallbacks()
	got := make([]Decision, len(pis))
	if err := dec.DecideBatch(pis, got); err != nil {
		t.Fatal(err)
	}
	if fsc.Hits() == h0 {
		t.Error("batch served no table hits despite compiled beliefs in it")
	}
	if fsc.Fallbacks() == f0 {
		t.Error("batch fell back for nothing despite off-graph beliefs in it")
	}
	want := make([]Decision, len(pis))
	if err := newTree(false).DecideBatch(pis, want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("tiered DecideBatch diverges from tree:\nwant: %+v\ngot:  %+v", want, got)
	}
	sts := dec.BatchDecisionStats()
	if len(sts) != len(pis) {
		t.Fatalf("batch stats length %d, want %d", len(sts), len(pis))
	}
	for j, st := range sts {
		if st.Tier != TierFSC && st.Tier != TierTree {
			t.Errorf("belief %d: batch stats carry tier %q", j, st.Tier)
		}
	}
}

// TestFSCRoundTrip pins the artifact format: Encode → Decode must reproduce
// every node bit-for-bit, and a decider over the decoded table must serve
// the same decisions.
func TestFSCRoundTrip(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	var buf bytes.Buffer
	if err := fsc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFSC(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates() != fsc.NumStates() || got.NumActions() != fsc.NumActions() ||
		got.NumObservations() != fsc.NumObservations() || got.Depth() != fsc.Depth() ||
		got.Beta() != fsc.Beta() || got.TerminateAction() != fsc.TerminateAction() {
		t.Fatalf("decoded dimensions diverge: %+v vs %+v", got, fsc)
	}
	if got.NumNodes() != fsc.NumNodes() {
		t.Fatalf("decoded %d nodes, want %d", got.NumNodes(), fsc.NumNodes())
	}
	for i := 0; i < fsc.NumNodes(); i++ {
		if !reflect.DeepEqual(got.Node(i), fsc.Node(i)) {
			t.Errorf("node %d diverges after round trip:\nwant: %+v\ngot:  %+v", i, fsc.Node(i), got.Node(i))
		}
	}
}

// TestFSCDecodeRejectsCorruption: torn writes, bit flips, wrong schema, and
// trailing garbage must all be hard errors — a recovery controller must
// never serve decisions from a damaged table.
func TestFSCDecodeRejectsCorruption(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	var buf bytes.Buffer
	if err := fsc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 7, len(good) / 2, len(good) - 1} {
			if _, err := DecodeFSC(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, pos := range []int{9, len(good) / 3, len(good) - 3} {
			bad := append([]byte(nil), good...)
			bad[pos] ^= 0x40
			if _, err := DecodeFSC(bytes.NewReader(bad)); err == nil {
				t.Errorf("bit flip at %d accepted", pos)
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), good[:12]...)
		if _, err := DecodeFSC(bytes.NewReader(bad)); err == nil {
			t.Error("trailing data accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeFSC(bytes.NewReader(nil)); err == nil {
			t.Error("empty input accepted")
		}
	})
}

// fixtureTree builds a depth-1 controller over the two-server fixture's
// termination model and RA-Bound set, with cfg's switches on top.
func fixtureTree(t *testing.T, f *fixture, cfg BoundedConfig) *Bounded {
	t.Helper()
	cfg.Depth, cfg.TerminateAction, cfg.NullStates = 1, f.idx.Action, []int{0}
	ctrl, err := NewBounded(f.term, f.set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// fscBeliefs returns the beliefs of all of fsc's nodes.
func fscBeliefs(fsc *FSC) []pomdp.Belief {
	pis := make([]pomdp.Belief, fsc.NumNodes())
	for i := range pis {
		pis[i] = fsc.Node(i).Belief
	}
	return pis
}

// within fails the test unless fn returns, without error, within ten
// seconds.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

// TestFSCHitTakesNoSetLock: a batch the FSC answers in full completes while
// another goroutine holds the set's write lock, on a read-only, an auditing
// and an online-improving controller. A mixed batch on an improving
// controller that collects stats completes too: the hits' stats read-lock
// the set before the misses write-lock it, never inside.
func TestFSCHitTakesNoSetLock(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	pis := fscBeliefs(fsc)
	out := make([]Decision, len(pis)+4)
	for _, cfg := range []BoundedConfig{{}, {CheckConsistency: true}, {ImproveOnline: true}} {
		dec := useFSC(t, fixtureTree(t, f, cfg), fsc, fsc.MaxGap()+1)
		func() {
			mu := f.set.Mutex()
			mu.Lock()
			defer mu.Unlock()
			within(t, fmt.Sprintf("all-hit batch under the write lock (%+v)", cfg), func() error {
				return dec.DecideBatch(pis, out)
			})
		}()
	}
	dec := useFSC(t, fixtureTree(t, f, BoundedConfig{ImproveOnline: true, CollectStats: true}), fsc, fsc.MaxGap()+1)
	mixed := append(append([]pomdp.Belief(nil), pis...), batchBeliefs(rng.New(5), 4, f.term.NumStates())...)
	h0, f0 := fsc.Hits(), fsc.Fallbacks()
	within(t, "mixed batch on an improving, stats-collecting controller", func() error {
		return dec.DecideBatch(mixed, out)
	})
	if fsc.Hits()-h0 != uint64(len(pis)) || fsc.Fallbacks()-f0 != 4 {
		t.Errorf("mixed batch counted %d hits and %d fallbacks, want %d and 4", fsc.Hits()-h0, fsc.Fallbacks()-f0, len(pis))
	}
}

// TestFSCHitRunsNoOnlineUpdate: on an online-improving controller, batches
// and per-episode decisions the FSC answers leave the bound set's
// generation alone; the same beliefs decided without the FSC change it. In
// a batch mixing hits and misses, only the misses update the set: it ends
// where a twin set ends after deciding the misses alone.
func TestFSCHitRunsNoOnlineUpdate(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	pis := fscBeliefs(fsc)
	out := make([]Decision, len(pis))
	gen := f.set.Generation()
	dec := useFSC(t, fixtureTree(t, f, BoundedConfig{ImproveOnline: true}), fsc, fsc.MaxGap()+1)
	if err := dec.DecideBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	if err := dec.Reset(pis[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decide(); err != nil {
		t.Fatal(err)
	}
	if f.set.Generation() != gen {
		t.Errorf("FSC hits moved the set from generation %d to %d", gen, f.set.Generation())
	}
	if err := fixtureTree(t, f, BoundedConfig{ImproveOnline: true}).DecideBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	if f.set.Generation() == gen {
		t.Fatal("online updates at the FSC's beliefs never change the set; the test shows nothing")
	}

	f, twin := newFixture(t), newFixture(t)
	fsc = compileFixtureFSC(t, f, FSCCompileConfig{})
	misses := batchBeliefs(rng.New(9), 4, f.term.NumStates())
	var mixed []pomdp.Belief
	for k, pi := range misses {
		mixed = append(mixed, fsc.Node(k).Belief, pi)
	}
	dec = useFSC(t, fixtureTree(t, f, BoundedConfig{ImproveOnline: true}), fsc, fsc.MaxGap()+1)
	got := make([]Decision, len(mixed))
	if err := dec.DecideBatch(mixed, got); err != nil {
		t.Fatal(err)
	}
	want := make([]Decision, len(misses))
	if err := fixtureTree(t, twin, BoundedConfig{ImproveOnline: true}).DecideBatch(misses, want); err != nil {
		t.Fatal(err)
	}
	if f.set.Generation() != twin.set.Generation() || f.set.Size() != twin.set.Size() {
		t.Errorf("mixed batch left the set at generation %d (%d planes), deciding its misses alone at %d (%d)",
			f.set.Generation(), f.set.Size(), twin.set.Generation(), twin.set.Size())
	}
	for k := range misses {
		if got[2*k+1] != want[k] {
			t.Errorf("miss %d decided %+v in the mixed batch, %+v alone", k, got[2*k+1], want[k])
		}
	}
}

// TestFSCTierAttribution: LastTier and DecisionStats().Tier read fsc
// exactly when the FSC answered the most recent Decide, or entry 0 of the
// most recent batch, and tree otherwise.
func TestFSCTierAttribution(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	// Serve up to the smallest non-terminating gap, so a wider node falls
	// back.
	tight, wide := -1, -1
	for i := 0; i < fsc.NumNodes(); i++ {
		if n := fsc.Node(i); !n.Terminate && (tight < 0 || n.Gap < fsc.Node(tight).Gap) {
			tight = i
		}
	}
	for i := 0; i < fsc.NumNodes(); i++ {
		if n := fsc.Node(i); !n.Terminate && n.Gap > fsc.Node(tight).Gap {
			wide = i
		}
	}
	if tight < 0 || wide < 0 {
		t.Fatal("no two non-terminating nodes with different gaps")
	}
	tp, wp := fsc.Node(tight).Belief, fsc.Node(wide).Belief
	for _, stats := range []bool{false, true} {
		dec := useFSC(t, fixtureTree(t, f, BoundedConfig{CollectStats: stats}), fsc, fsc.Node(tight).Gap)
		check := func(label, want string) {
			t.Helper()
			if got := dec.LastTier(); got != want {
				t.Errorf("stats=%v %s: LastTier %q, want %q", stats, label, got, want)
			}
			if got := dec.DecisionStats().Tier; stats && got != want {
				t.Errorf("stats=%v %s: DecisionStats().Tier %q, want %q", stats, label, got, want)
			}
		}
		for _, c := range []struct {
			label string
			pi    pomdp.Belief
			want  string
		}{{"Decide at a servable node", tp, TierFSC}, {"Decide at a wide node", wp, TierTree}} {
			if err := dec.Reset(c.pi); err != nil {
				t.Fatal(err)
			}
			if _, err := dec.Decide(); err != nil {
				t.Fatal(err)
			}
			check(c.label, c.want)
		}
		out := make([]Decision, 2)
		for _, c := range []struct {
			label string
			pis   []pomdp.Belief
			want  string
		}{{"batch led by a hit", []pomdp.Belief{tp, wp}, TierFSC}, {"batch led by a miss", []pomdp.Belief{wp, tp}, TierTree}} {
			if err := dec.DecideBatch(c.pis, out); err != nil {
				t.Fatal(err)
			}
			check(c.label, c.want)
			if stats {
				other := map[string]string{TierFSC: TierTree, TierTree: TierFSC}[c.want]
				if got := dec.BatchDecisionStats()[1].Tier; got != other {
					t.Errorf("%s: entry 1 tier %q, want %q", c.label, got, other)
				}
			}
		}
	}
	if got := fixtureTree(t, f, BoundedConfig{}).LastTier(); got != TierTree {
		t.Errorf("controller without an FSC: LastTier %q, want %q", got, TierTree)
	}
}

// TestFSCDecideBatchErrorIndex: a batch that mixes an FSC hit with a
// wrong-length belief is refused naming the caller's index of the bad
// belief, before any belief is counted as a hit or a fallback.
func TestFSCDecideBatchErrorIndex(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	dec := useFSC(t, fixtureTree(t, f, BoundedConfig{}), fsc, fsc.MaxGap()+1)
	h0, f0 := fsc.Hits(), fsc.Fallbacks()
	err := dec.DecideBatch([]pomdp.Belief{fsc.Node(0).Belief, {1, 0}}, make([]Decision, 2))
	if err == nil || !strings.Contains(err.Error(), "batch belief 1 ") {
		t.Fatalf("short belief at index 1: error %v, want one naming batch belief 1", err)
	}
	if fsc.Hits() != h0 || fsc.Fallbacks() != f0 {
		t.Errorf("refused batch counted %d hits and %d fallbacks", fsc.Hits()-h0, fsc.Fallbacks()-f0)
	}
}

// TestFSCDecodeRejectsDuplicateBeliefs: an artifact in which two nodes
// carry the same belief bits is not a function from belief to decision,
// and decoding it fails.
func TestFSCDecodeRejectsDuplicateBeliefs(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	if fsc.NumNodes() < 3 {
		t.Fatalf("compiled only %d nodes", fsc.NumNodes())
	}
	fsc.nodes[2].Belief = fsc.nodes[1].Belief.Clone()
	var buf bytes.Buffer
	if err := fsc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFSC(&buf); err == nil || !strings.Contains(err.Error(), "nodes 1 and 2 share a belief") {
		t.Errorf("duplicate beliefs: decode error %v, want nodes 1 and 2 sharing a belief", err)
	}
}

func TestUseFSCValidation(t *testing.T) {
	f := newFixture(t)
	fsc := compileFixtureFSC(t, f, FSCCompileConfig{})
	tree := func() *Bounded {
		ctrl, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	if err := tree().UseFSC(nil, 0); err == nil {
		t.Error("nil FSC accepted")
	}
	if err := tree().UseFSC(fsc, -1); err == nil {
		t.Error("negative gap threshold accepted")
	}
	if err := tree().UseFSC(fsc, math.NaN()); err == nil {
		t.Error("NaN gap threshold accepted")
	}
	// A controller over a different model (the 3-state absorbed base instead
	// of the 4-state termination transform) must be rejected on dimensions.
	mod, err := pomdp.AbsorbNullStates(f.base, f.ts.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	baseSet, err := bounds.RASet(mod, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseCtrl, err := NewBounded(mod, baseSet, BoundedConfig{Depth: 1, TerminateAction: -1, NullStates: f.ts.NullStates})
	if err != nil {
		t.Fatal(err)
	}
	if err := baseCtrl.UseFSC(fsc, 0); err == nil {
		t.Error("dimension-mismatched controller accepted")
	}
	// Same dimensions, but recovery notification instead of a_T.
	notify, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: -1, NullStates: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := notify.UseFSC(fsc, 0); err == nil {
		t.Error("controller with another terminate action accepted")
	}
	// Same model and set, but another depth or discount than the compiler
	// decided with: compiled nodes would answer beside a different tree.
	for _, c := range []struct {
		cfg  BoundedConfig
		want string
	}{
		{BoundedConfig{Depth: 2}, "depth 1, controller at depth 2"},
		{BoundedConfig{Beta: 0.9}, "discount 1, controller uses 0.9"},
	} {
		c.cfg.TerminateAction, c.cfg.NullStates = f.idx.Action, []int{0}
		ctrl, err := NewBounded(f.term, f.set, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.UseFSC(fsc, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one naming %q", c.cfg, err, c.want)
		}
	}
	// Same configuration over another bound set: the online region is keyed
	// by one set's generations.
	other, err := bounds.RASet(f.term, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	useFSC(t, tree(), fsc, 0) // binds fsc to f's model and set
	ctrl, err := NewBounded(f.term, other, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.UseFSC(fsc, 0); err == nil {
		t.Error("controller over another bound set accepted")
	}
}

func TestCompileFSCValidation(t *testing.T) {
	f := newFixture(t)
	uniform := pomdp.UniformBelief(f.term.NumStates())
	tree, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileFSC(nil, []pomdp.Belief{uniform}, FSCCompileConfig{}); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := CompileFSC(tree, nil, FSCCompileConfig{}); err == nil {
		t.Error("no roots accepted")
	}
	if _, err := CompileFSC(tree, []pomdp.Belief{{1, 0}}, FSCCompileConfig{}); err == nil {
		t.Error("short root belief accepted")
	}
	if _, err := CompileFSC(tree, []pomdp.Belief{uniform}, FSCCompileConfig{InitialObservationAction: -1}); err == nil {
		t.Error("out-of-range initial observation action accepted")
	}
	if _, err := CompileFSC(tree, []pomdp.Belief{uniform}, FSCCompileConfig{MaxNodes: -1}); err == nil {
		t.Error("negative node budget accepted")
	}
}

// TestCompileFSCMaxNodes: the node budget must cap the table, keep edges to
// beyond-budget successors missing (−1), and leave every stored edge target
// in range.
func TestCompileFSCMaxNodes(t *testing.T) {
	f := newFixture(t)
	full := compileFixtureFSC(t, f, FSCCompileConfig{})
	capped := compileFixtureFSC(t, f, FSCCompileConfig{MaxNodes: 3})
	if capped.NumNodes() != 3 {
		t.Fatalf("capped compile produced %d nodes, want 3", capped.NumNodes())
	}
	if full.NumNodes() <= 3 {
		t.Fatalf("fixture graph too small (%d nodes) to exercise the budget", full.NumNodes())
	}
	if capped.MissingEdges() == 0 {
		t.Error("capped table has no missing edges")
	}
	for i := 0; i < capped.NumNodes(); i++ {
		for o, e := range capped.Node(i).Edges {
			if e >= int32(capped.NumNodes()) {
				t.Errorf("node %d obs %d: edge target %d out of range", i, o, e)
			}
		}
	}
}

// hugeNodeCountFSC is a CRC-valid artifact whose header declares 2^50
// nodes and that holds none.
func hugeNodeCountFSC(t testing.TB) []byte {
	t.Helper()
	hdr, err := json.Marshal(fscHeaderJSON{
		Schema: FSCSchema, States: 2, Actions: 2, Observations: 1,
		Depth: 1, Beta: 1, TerminateAction: 1, Nodes: 1 << 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFSCFrame(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeFSCHugeNodeCount: a header's node count is checked against the
// nodes that follow, never used to size memory up front, so an artifact
// claiming 2^50 nodes is refused instead of panicking the decoder.
func TestDecodeFSCHugeNodeCount(t *testing.T) {
	_, err := DecodeFSC(bytes.NewReader(hugeNodeCountFSC(t)))
	if err == nil || !strings.Contains(err.Error(), "input ends after 0") {
		t.Fatalf("DecodeFSC = %v, want the truncation error", err)
	}
}

// FuzzFSCDecode: arbitrary bytes must never panic the decoder, and any
// artifact it accepts must survive a re-encode/re-decode round trip.
func FuzzFSCDecode(fz *testing.F) {
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		fz.Fatal(err)
	}
	term, idx, err := pomdp.WithTermination(ts.Model, pomdp.TerminationConfig{
		NullStates:           ts.NullStates,
		OperatorResponseTime: 10,
		RateReward:           ts.RateRewards,
	})
	if err != nil {
		fz.Fatal(err)
	}
	set, err := bounds.RASet(term, bounds.Options{})
	if err != nil {
		fz.Fatal(err)
	}
	tree, err := NewBounded(term, set, BoundedConfig{Depth: 1, TerminateAction: idx.Action})
	if err != nil {
		fz.Fatal(err)
	}
	fsc, err := CompileFSC(tree, []pomdp.Belief{pomdp.UniformBelief(term.NumStates())}, FSCCompileConfig{
		InitialObservationAction: ts.ActionObserve,
	})
	if err != nil {
		fz.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fsc.Encode(&buf); err != nil {
		fz.Fatal(err)
	}
	good := buf.Bytes()
	fz.Add(good)
	fz.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	fz.Add(flipped)
	fz.Add([]byte{})
	fz.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	fz.Fuzz(func(t *testing.T, data []byte) {
		f, err := DecodeFSC(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := f.Encode(&out); err != nil {
			t.Fatalf("accepted artifact fails to re-encode: %v", err)
		}
		if _, err := DecodeFSC(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-encoded artifact rejected: %v", err)
		}
	})
}
