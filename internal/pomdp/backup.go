package pomdp

import (
	"fmt"
	"math"
)

// ValueFn evaluates a (bound on a) POMDP value function at a belief.
type ValueFn interface {
	Value(pi Belief) float64
}

// ValueFunc adapts a plain function to the ValueFn interface.
type ValueFunc func(pi Belief) float64

// Value implements ValueFn.
func (f ValueFunc) Value(pi Belief) float64 { return f(pi) }

// BackupResult is the outcome of one application of the belief-MDP operator.
type BackupResult struct {
	// Value is (L_p f)(π) = max_a [π·r(a) + β Σ_o γ(o)·f(π^{π,a,o})].
	Value float64
	// Action is the maximizing action.
	Action int
	// QValues[a] is the bracketed expression for each action a.
	QValues []float64
}

// Backup applies the belief-MDP dynamic-programming operator L_p of
// Equation 2 once at belief π, using leaf to evaluate the successor beliefs.
// It is the depth-one building block of the controller's Max-Avg recursion
// tree and of the Property 1(b) check V_B⁻ ≤ L_p V_B⁻. Each call uses its
// own successor buffer, so leaf may call Backup again with the same Scratch.
func Backup(p *POMDP, sc *Scratch, pi Belief, beta float64, leaf ValueFn) (BackupResult, error) {
	return BackupInto(p, sc, NewSuccessorBuf(p), pi, beta, leaf, nil)
}

// BackupInto is Backup with caller-owned memory: buf holds the successor
// beliefs, enumerated by AppendSuccessors, and q the QValues, grown
// when its capacity is insufficient; the returned BackupResult aliases q.
// Callers that back up in a loop (the HSVI bound refiner's exploration
// trials) reuse one buf and one q across calls and allocate nothing. The
// results are bit-identical to Backup's.
//
// On return buf holds the maximizing action's successors, exactly as a
// Reset and AppendSuccessors(pi, Action) would leave them, and Values holds
// the leaf's value at each, so a caller that follows the greedy action (the
// refiner's exploration) need not expand or evaluate it again. It is empty
// when no action scored above −∞. Meanwhile buf holds at most two actions'
// successors, so Reserve(2·NumObservations) keeps it from ever growing.
//
// buf holds the beliefs leaf is evaluated at, so it must not be shared
// with any call the leaf makes: a leaf that re-enters
// BackupInto (a deeper Max-Avg level) needs a buffer of its own. That is why
// the buffer is a parameter and not part of the Scratch, which such a leaf
// may share.
func BackupInto(p *POMDP, sc *Scratch, buf *SuccessorBuf, pi Belief, beta float64, leaf ValueFn, q []float64) (BackupResult, error) {
	if len(pi) != p.NumStates() {
		return BackupResult{}, fmt.Errorf("pomdp: belief length %d, want %d", len(pi), p.NumStates())
	}
	if beta <= 0 || beta > 1 {
		return BackupResult{}, fmt.Errorf("pomdp: discount beta=%v outside (0,1]", beta)
	}
	if cap(q) < p.NumActions() {
		q = make([]float64, p.NumActions())
	}
	res := BackupResult{
		Value:   math.Inf(-1),
		Action:  -1,
		QValues: q[:p.NumActions()],
	}
	// buf holds the best action's successors so far, then the current
	// action's.
	buf.Reset()
	for a := 0; a < p.NumActions(); a++ {
		q := p.ExpectedReward(pi, a)
		lo := len(buf.probs)
		p.AppendSuccessors(sc, buf, pi, a)
		for k := lo; k < len(buf.probs); k++ {
			v := leaf.Value(buf.belief(k))
			buf.vals = append(buf.vals, v)
			q += beta * buf.probs[k] * v
		}
		res.QValues[a] = q
		if q > res.Value {
			res.Value, res.Action = q, a
			buf.keep(lo, len(buf.probs))
		} else {
			buf.keep(0, lo)
		}
	}
	return res, nil
}
