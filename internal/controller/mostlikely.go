package controller

import (
	"fmt"
	"math"

	"bpomdp/internal/pomdp"
)

// MostLikelyConfig configures the "most likely" baseline controller.
type MostLikelyConfig struct {
	// NullStates is Sφ.
	NullStates []int
	// TerminationProbability is the belief mass on Sφ above which recovery
	// is declared complete (0.9999 in the paper's campaigns).
	TerminationProbability float64
}

// MostLikely is the paper's simplest baseline: it performs probabilistic
// diagnosis with the Bayes rule and chooses the cheapest recovery action
// that recovers from the most likely fault, with no lookahead at all.
type MostLikely struct {
	BeliefFilter
	cfg     MostLikelyConfig
	nullSet []int
	// actionFor[s] is the precomputed cheapest action maximizing the
	// one-step probability of reaching Sφ from state s.
	actionFor []int
}

var _ Controller = (*MostLikely)(nil)

// NewMostLikely builds the most-likely controller over the untransformed
// recovery model p. For every fault state it precomputes the action with
// the highest one-step probability of landing in Sφ, breaking ties by
// cheaper immediate cost.
func NewMostLikely(p *pomdp.POMDP, cfg MostLikelyConfig) (*MostLikely, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.NullStates) == 0 {
		return nil, fmt.Errorf("controller: most-likely controller needs NullStates")
	}
	if cfg.TerminationProbability <= 0 || cfg.TerminationProbability > 1 {
		return nil, fmt.Errorf("controller: termination probability %v outside (0,1]", cfg.TerminationProbability)
	}
	m := &MostLikely{
		BeliefFilter: NewBeliefFilter(p, nil),
		cfg:          cfg,
		nullSet:      pomdp.SortedStates(cfg.NullStates),
	}
	n := p.NumStates()
	isNull := make([]bool, n)
	for _, s := range m.nullSet {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("controller: null state %d out of range [0,%d)", s, n)
		}
		isNull[s] = true
	}
	m.actionFor = make([]int, n)
	for s := 0; s < n; s++ {
		bestA, bestP, bestCost := 0, -1.0, math.Inf(-1)
		for a := 0; a < p.NumActions(); a++ {
			var pNull float64
			p.M.Trans[a].Row(s, func(c int, v float64) {
				if isNull[c] {
					pNull += v
				}
			})
			cost := p.M.Reward[a][s] // ≤ 0; larger is cheaper
			if pNull > bestP+1e-12 || (math.Abs(pNull-bestP) <= 1e-12 && cost > bestCost) {
				bestA, bestP, bestCost = a, pNull, cost
			}
		}
		m.actionFor[s] = bestA
	}
	return m, nil
}

// Name implements Controller.
func (m *MostLikely) Name() string { return "most-likely" }

// Decide implements Controller.
func (m *MostLikely) Decide() (Decision, error) {
	if m.belief == nil {
		return Decision{}, ErrNotReset
	}
	if m.belief.Mass(m.nullSet) >= m.cfg.TerminationProbability {
		return Decision{Terminate: true}, nil
	}
	// Diagnose the most likely FAULT (Sφ states are excluded: the cheapest
	// "recovery" from a null state would be doing nothing, and the
	// controller would rather address the likeliest remaining fault).
	bestS, bestP := -1, -1.0
	for s, prob := range m.belief {
		if prob > bestP && !containsInt(m.nullSet, s) {
			bestS, bestP = s, prob
		}
	}
	if bestS < 0 {
		return Decision{Terminate: true}, nil
	}
	return Decision{Action: m.actionFor[bestS]}, nil
}

func containsInt(sorted []int, x int) bool {
	for _, v := range sorted {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}
