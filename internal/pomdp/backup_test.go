package pomdp_test

import (
	"fmt"
	"math"
	"testing"

	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// preparedEMN returns the EMN recovery model prepared for control.
func preparedEMN(t *testing.T) *core.Prepared {
	t.Helper()
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// randomModel draws a model over n states, na actions and no observations
// in which every (state, action) pair moves to up to three states and
// emits up to three observations, so most beliefs reach only some of them.
func randomModel(t *testing.T, r *rng.Stream, n, na, no int) *pomdp.POMDP {
	t.Helper()
	b := pomdp.NewBuilder()
	state := func(s int) string { return fmt.Sprintf("s%d", s) }
	for s := 0; s < n; s++ {
		b.State(state(s))
	}
	for o := 0; o < no; o++ {
		b.Observation(fmt.Sprintf("o%d", o))
	}
	// spread splits probability one over up to three of k outcomes.
	spread := func(k int, add func(i int, p float64)) {
		w := []float64{r.Float64(), r.Float64(), r.Float64()}[:1+r.IntN(3)]
		sum := 0.0
		for _, x := range w {
			sum += x
		}
		for _, x := range w {
			add(r.IntN(k), x/sum)
		}
	}
	for a := 0; a < na; a++ {
		action := fmt.Sprintf("a%d", a)
		for s := 0; s < n; s++ {
			spread(n, func(to int, p float64) { b.Transition(state(s), action, state(to), p) })
			spread(no, func(o int, p float64) { b.Observe(state(s), action, fmt.Sprintf("o%d", o), p) })
			b.Reward(state(s), action, -r.Float64())
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refBackup is the belief-MDP backup over Successors, as Backup computed it
// before it enumerated successors into a SuccessorBuf: the reference
// BackupInto must match bit for bit. Successors allocates its beliefs, so
// a leaf may re-enter refBackup with the same Scratch.
func refBackup(p *pomdp.POMDP, sc *pomdp.Scratch, pi pomdp.Belief, beta float64, leaf pomdp.ValueFn) pomdp.BackupResult {
	res := pomdp.BackupResult{Value: math.Inf(-1), Action: -1, QValues: make([]float64, p.NumActions())}
	for a := range res.QValues {
		q := p.ExpectedReward(pi, a)
		for _, succ := range p.Successors(sc, pi, a) {
			q += beta * succ.Prob * leaf.Value(succ.Belief)
		}
		res.QValues[a] = q
		if q > res.Value {
			res.Value, res.Action = q, a
		}
	}
	return res
}

// sameBackup reports whether two backups agree bit for bit.
func sameBackup(a, b pomdp.BackupResult) bool {
	return math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Action == b.Action &&
		pomdp.SameBits(a.QValues, b.QValues)
}

// maxOfPlanes is a leaf that allocates nothing: the maximum of the planes
// at a belief.
func maxOfPlanes(planes []linalg.Vector) pomdp.ValueFn {
	return pomdp.ValueFunc(func(b pomdp.Belief) float64 {
		best := math.Inf(-1)
		for _, pl := range planes {
			best = max(best, linalg.DotUnrolled(b, pl))
		}
		return best
	})
}

// checkKeptSuccessors checks that buf, after a BackupInto at pi that chose
// action, holds that action's successors bit for bit as Successors
// enumerates them, with leaf's value at each.
func checkKeptSuccessors(t *testing.T, p *pomdp.POMDP, sc *pomdp.Scratch, buf *pomdp.SuccessorBuf, pi pomdp.Belief, action int, leaf pomdp.ValueFn) {
	t.Helper()
	beliefs, probs, vals := buf.Beliefs(), buf.Probs(), buf.Values()
	want := p.Successors(sc, pi, action)
	if len(beliefs) != len(want) || len(probs) != len(want) || len(vals) != len(want) {
		t.Fatalf("buf keeps %d beliefs, %d probabilities, %d values; action %d has %d successors",
			len(beliefs), len(probs), len(vals), action, len(want))
	}
	for k, w := range want {
		if !pomdp.SameBits(beliefs[k], w.Belief) || math.Float64bits(probs[k]) != math.Float64bits(w.Prob) ||
			math.Float64bits(vals[k]) != math.Float64bits(leaf.Value(w.Belief)) {
			t.Fatalf("kept successor %d of action %d differs from Successors", k, action)
		}
	}
}

// TestBackupIntoMatchesBackup pins BackupInto, with one buffer and one
// Q-slice reused across every call, and Backup to refBackup on EMN and on
// random models: the same Value, Action and every Q-value, bit for bit,
// with the maximizing action's successors and leaf values left in buf. It
// also backs up through a leaf that re-enters Backup on the same Scratch
// (a depth-2 Max-Avg tree), which a successor buffer shared through the
// Scratch would corrupt.
func TestBackupIntoMatchesBackup(t *testing.T) {
	r := rng.New(34)
	type model struct {
		name string
		p    *pomdp.POMDP
	}
	models := []model{{"emn", preparedEMN(t).Model}}
	for k := 0; k < 6; k++ {
		models = append(models, model{fmt.Sprintf("random%d", k), randomModel(t, r, 2+r.IntN(12), 1+r.IntN(4), 1+r.IntN(6))})
	}
	for _, m := range models {
		p, n := m.p, m.p.NumStates()
		planes := make([]linalg.Vector, 3)
		for i := range planes {
			planes[i] = make(linalg.Vector, n)
			for s := range planes[i] {
				planes[i][s] = -10 * r.Float64()
			}
		}
		leaf := maxOfPlanes(planes)
		sc := pomdp.NewScratch(p)
		buf := pomdp.NewSuccessorBuf(p)
		var q []float64
		for _, beta := range []float64{1, 0.95} {
			nested := pomdp.ValueFunc(func(b pomdp.Belief) float64 {
				res, err := pomdp.Backup(p, sc, b, beta, leaf)
				if err != nil {
					t.Fatal(err)
				}
				return res.Value
			})
			refNested := pomdp.ValueFunc(func(b pomdp.Belief) float64 {
				return refBackup(p, sc, b, beta, leaf).Value
			})
			for k := 0; k < 30; k++ {
				pi := make(pomdp.Belief, n)
				for c := 1 + r.IntN(n); c > 0; c-- {
					pi[r.IntN(n)] += r.Float64()
				}
				linalg.Vector(pi).Normalize()
				want := refBackup(p, sc, pi, beta, leaf)
				got, err := pomdp.BackupInto(p, sc, buf, pi, beta, leaf, q)
				if err != nil {
					t.Fatal(err)
				}
				q = got.QValues
				if !sameBackup(got, want) {
					t.Fatalf("%s β=%v: BackupInto %+v, reference %+v", m.name, beta, got, want)
				}
				checkKeptSuccessors(t, p, sc, buf, pi, got.Action, leaf)
				if got, err := pomdp.Backup(p, sc, pi, beta, leaf); err != nil || !sameBackup(got, want) {
					t.Fatalf("%s β=%v: Backup %+v (error %v), reference %+v", m.name, beta, got, err, want)
				}
				wantDeep := refBackup(p, sc, pi, beta, refNested)
				if got, err := pomdp.Backup(p, sc, pi, beta, nested); err != nil || !sameBackup(got, wantDeep) {
					t.Fatalf("%s β=%v: depth-2 Backup %+v (error %v), reference %+v", m.name, beta, got, err, wantDeep)
				}
				got, err = pomdp.BackupInto(p, sc, buf, pi, beta, nested, q)
				if err != nil || !sameBackup(got, wantDeep) {
					t.Fatalf("%s β=%v: depth-2 BackupInto %+v (error %v), reference %+v", m.name, beta, got, err, wantDeep)
				}
			}
		}
	}
}
