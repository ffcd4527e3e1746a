package bounds

import (
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

func TestNewUpdaterValidation(t *testing.T) {
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUpdater(mod, set, Options{Beta: 2}); err == nil {
		t.Error("beta=2 accepted")
	}
	empty, err := NewSet(mod.NumStates())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUpdater(mod, empty, Options{}); err == nil {
		t.Error("empty set accepted")
	}
	wrong, err := NewSet(2, linalg.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUpdater(mod, wrong, Options{}); err == nil {
		t.Error("wrong-dimension set accepted")
	}
}

func TestUpdateAtNeverDecreasesBound(t *testing.T) {
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(mod, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for trial := 0; trial < 40; trial++ {
		pi := randomBelief(r, mod.NumStates())
		res, err := u.UpdateAt(pi)
		if err != nil {
			t.Fatal(err)
		}
		if res.After < res.Before-1e-9 {
			t.Errorf("trial %d: bound decreased %v -> %v", trial, res.Before, res.After)
		}
		if res.Action < 0 || res.Action >= mod.NumActions() {
			t.Errorf("trial %d: bad action %d", trial, res.Action)
		}
	}
}

func TestUpdateImprovesAtUniformBelief(t *testing.T) {
	// The RA-Bound ignores observations entirely, so at least the first
	// backed-up plane must strictly improve the bound at the uniform belief
	// (Figure 5(a)'s rapid early tightening).
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(mod, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pi := pomdp.UniformBelief(mod.NumStates())
	var first, last float64
	for i := 0; i < 15; i++ {
		res, err := u.UpdateAt(pi)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Before
		}
		last = res.After
	}
	if !(last > first+1e-6) {
		t.Errorf("bound did not improve at uniform belief: %v -> %v", first, last)
	}
}

func TestUpdatedBoundsRemainValidLowerBounds(t *testing.T) {
	// After improvement, V_B must still lie below the L_p^k 0 iterates
	// (which upper-bound the true value function for non-positive rewards).
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(mod, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	for i := 0; i < 20; i++ {
		if _, err := u.UpdateAt(randomBelief(r, mod.NumStates())); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 8; trial++ {
		pi := randomBelief(r, mod.NumStates())
		vb := set.Value(pi)
		if upper := lpIterate(t, mod, pi, 3); vb > upper+1e-7 {
			t.Errorf("trial %d: improved bound %v exceeds L_p^3 0 = %v", trial, vb, upper)
		}
		if vb > 0+1e-9 {
			t.Errorf("trial %d: improved bound %v exceeds trivial upper bound 0", trial, vb)
		}
	}
}

func TestUpdatedBoundsStayConsistent(t *testing.T) {
	// Property 1(b) should continue to hold after incremental updates on
	// this model (the paper conjectures this for transformed recovery
	// models and verifies it experimentally).
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(mod, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(33)
	for i := 0; i < 25; i++ {
		if _, err := u.UpdateAt(randomBelief(r, mod.NumStates())); err != nil {
			t.Fatal(err)
		}
	}
	sc := pomdp.NewScratch(mod)
	for trial := 0; trial < 15; trial++ {
		pi := randomBelief(r, mod.NumStates())
		rep, err := CheckConsistency(mod, sc, set, pi, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Errorf("trial %d: consistency violated: V_B %v > L_p V_B %v", trial, rep.Bound, rep.Backup)
		}
	}
}

func TestUpdaterSetAccessor(t *testing.T) {
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(mod, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Set() != set {
		t.Error("Set accessor does not return the underlying set")
	}
}

func TestUpdateAtRejectsShortBelief(t *testing.T) {
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(mod, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.UpdateAt(pomdp.Belief{1}); err == nil {
		t.Error("short belief accepted")
	}
}

// refBackupPlane is UpdateAt's choice of plane computed with one score
// vector per plane, as the Updater computed it before its single
// observation-major slab: the reference the slab must match bit for bit.
// It returns the backed-up plane and its action.
func refBackupPlane(p *pomdp.POMDP, set *Set, beta float64, pi pomdp.Belief) (linalg.Vector, int) {
	n, no, np := p.NumStates(), p.NumObservations(), set.Size()
	pred, g, cand, best := linalg.NewVector(n), linalg.NewVector(n), linalg.NewVector(n), linalg.NewVector(n)
	sel := make([]int, no)
	score := make([]linalg.Vector, np)
	for i := range score {
		score[i] = linalg.NewVector(no)
	}
	bestVal, bestAction := 0.0, -1
	for a := 0; a < p.NumActions(); a++ {
		p.Predict(pred, pi, a)
		for i := range score {
			score[i].Fill(0)
		}
		for s := 0; s < n; s++ {
			ps := pred[s]
			if ps == 0 {
				continue
			}
			p.Obs[a].Row(s, func(o int, q float64) {
				w := ps * q
				if w == 0 {
					return
				}
				for i := 0; i < np; i++ {
					score[i][o] += w * set.at(i, s)
				}
			})
		}
		for o := 0; o < no; o++ {
			sel[o] = 0
			top := score[0][o]
			for i := 1; i < np; i++ {
				if score[i][o] > top {
					top = score[i][o]
					sel[o] = i
				}
			}
		}
		g.Fill(0)
		for s := 0; s < n; s++ {
			p.Obs[a].Row(s, func(o int, q float64) {
				g[s] += q * set.at(sel[o], s)
			})
		}
		p.M.Trans[a].MulVec(cand, g)
		cand.Scale(beta)
		cand.AddScaled(1, p.M.Reward[a])
		if v := linalg.Vector(pi).Dot(cand); bestAction < 0 || v > bestVal {
			bestVal, bestAction = v, a
			copy(best, cand)
		}
	}
	return best, bestAction
}

// TestUpdateAtMatchesPerPlaneReference pins UpdateAt to refBackupPlane on
// random recovery models, undiscounted and discounted: at every step the
// backed-up plane has the same bits, the same action and the same Added,
// and the two sets stay plane-for-plane identical. The sets start with
// planes that differ from the base on one state each, so sparse beliefs
// score several planes equal and the first-maximum rule decides.
func TestUpdateAtMatchesPerPlaneReference(t *testing.T) {
	r := rng.New(71)
	for trial := 0; trial < 8; trial++ {
		mod := randomRecoveryModel(t, r, 3+r.IntN(6), 2+r.IntN(3), 2+r.IntN(4))
		n := mod.NumStates()
		for _, beta := range []float64{1, 0.9} {
			set, err := RASet(mod, Options{Beta: beta})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RASet(mod, Options{Beta: beta})
			if err != nil {
				t.Fatal(err)
			}
			base := set.Plane(0)
			for k := 0; k < 3; k++ {
				b := base.Clone()
				b[r.IntN(n)] += r.Float64()
				for _, s := range []*Set{set, ref} {
					if _, err := s.Add(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			u, err := NewUpdater(mod, set, Options{Beta: beta})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 40; step++ {
				pi := scanBelief(r, n)
				plane, action := refBackupPlane(mod, ref, beta, pi)
				refAdded, err := ref.Add(plane)
				if err != nil {
					t.Fatal(err)
				}
				res, err := u.UpdateAt(pi)
				if err != nil {
					t.Fatal(err)
				}
				if res.Action != action || res.Added != refAdded {
					t.Fatalf("trial %d β=%v step %d: action %d added %v, reference %d %v",
						trial, beta, step, res.Action, res.Added, action, refAdded)
				}
				if !pomdp.SameBits(pomdp.Belief(u.best), pomdp.Belief(plane)) {
					t.Fatalf("trial %d β=%v step %d: plane %v, reference %v", trial, beta, step, u.best, plane)
				}
				if set.Size() != ref.Size() || !pomdp.SameBits(set.cols, ref.cols) {
					t.Fatalf("trial %d β=%v step %d: sets diverged (%d vs %d planes)", trial, beta, step, set.Size(), ref.Size())
				}
			}
		}
	}
}
