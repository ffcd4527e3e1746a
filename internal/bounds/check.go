package bounds

import (
	"fmt"

	"bpomdp/internal/pomdp"
)

// ConsistencyReport is the outcome of a Property 1(b) check at one belief.
type ConsistencyReport struct {
	// Bound is V_B⁻(π).
	Bound float64
	// Backup is (L_p V_B⁻)(π).
	Backup float64
	// OK reports Bound ≤ Backup (+tolerance) — the precondition, together
	// with "no free actions", of the paper's Property 1 termination
	// guarantee.
	OK bool
}

// CheckConsistency verifies Property 1(b) of the paper at belief π:
// V_B⁻(π) ≤ (L_p V_B⁻)(π). The paper proves this holds when B contains only
// the RA-Bound; the bounded controller uses this check defensively when the
// set has been extended by incremental updates.
func CheckConsistency(p *pomdp.POMDP, sc *pomdp.Scratch, set *Set, pi pomdp.Belief, opts Options) (ConsistencyReport, error) {
	o := opts.withDefaults()
	if set.Size() == 0 {
		return ConsistencyReport{}, ErrEmptySet
	}
	lhs, _ := set.ValueArg(pi)
	res, err := pomdp.Backup(p, sc, pi, o.Beta, set)
	if err != nil {
		return ConsistencyReport{}, fmt.Errorf("bounds: consistency backup: %w", err)
	}
	const tol = 1e-9
	return ConsistencyReport{
		Bound:  lhs,
		Backup: res.Value,
		OK:     lhs <= res.Value+tol,
	}, nil
}
