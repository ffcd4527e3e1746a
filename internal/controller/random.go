package controller

import (
	"fmt"

	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// Random chooses actions uniformly at random — the policy whose value IS
// the RA-Bound. It is included as an ablation baseline: the bounded
// controller must outperform it by construction (the bound is the random
// policy's value, and the controller maximizes against it).
type Random struct {
	BeliefFilter
	nullSet  []int
	termProb float64
	stream   *rng.Stream
}

var _ Controller = (*Random)(nil)

// NewRandom builds the random controller over the untransformed model.
func NewRandom(p *pomdp.POMDP, nullStates []int, terminationProbability float64, stream *rng.Stream) (*Random, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(nullStates) == 0 {
		return nil, fmt.Errorf("controller: random controller needs NullStates")
	}
	if terminationProbability <= 0 || terminationProbability > 1 {
		return nil, fmt.Errorf("controller: termination probability %v outside (0,1]", terminationProbability)
	}
	if stream == nil {
		return nil, fmt.Errorf("controller: nil rng stream")
	}
	return &Random{
		BeliefFilter: NewBeliefFilter(p, nil),
		nullSet:      pomdp.SortedStates(nullStates),
		termProb:     terminationProbability,
		stream:       stream,
	}, nil
}

// Name implements Controller.
func (r *Random) Name() string { return "random" }

// Decide implements Controller.
func (r *Random) Decide() (Decision, error) {
	if r.belief == nil {
		return Decision{}, ErrNotReset
	}
	if r.belief.Mass(r.nullSet) >= r.termProb {
		return Decision{Terminate: true}, nil
	}
	return Decision{Action: r.stream.IntN(r.p.NumActions())}, nil
}
