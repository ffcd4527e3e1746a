package controller

import (
	"fmt"
	"math"

	"bpomdp/internal/pomdp"
)

// HeuristicConfig configures a heuristic-leaf POMDP controller — the
// controller family the paper's Section 5 compares against (depths 1–3).
type HeuristicConfig struct {
	// Depth is the Max-Avg tree expansion depth (≥ 1).
	Depth int
	// Beta is the discount factor; zero means 1.
	Beta float64
	// NullStates is Sφ; P[Sφ] drives the termination test and the leaf
	// heuristic.
	NullStates []int
	// TerminationProbability is the belief mass on Sφ above which the
	// controller declares recovery complete. The paper sets it to 0.9999
	// for its 10,000-injection campaigns and notes how hard it is to pick.
	TerminationProbability float64
	// Leaf overrides the leaf evaluator. Nil uses the SRDS'05 heuristic
	// (1 − P[Sφ])·min r(s,a); ablations pass alternatives (e.g. the zero
	// leaf for a purely myopic controller).
	Leaf pomdp.ValueFn
}

// Heuristic is a finite-depth Max-Avg controller whose leaves are valued by
// the heuristic the paper's earlier work (SRDS'05) found best for the EMN
// system: value(π) = (1 − P[Sφ])·min_{s,a} r(s,a) — the probability the
// system has not recovered times the cost of the most expensive action.
// Unlike a bound, this provides no termination or performance guarantee.
type Heuristic struct {
	BeliefFilter
	cfg       HeuristicConfig
	engine    *Engine
	nullSet   []int
	worstCost float64
}

var _ Controller = (*Heuristic)(nil)

// NewHeuristic builds a heuristic controller over the untransformed
// recovery model p (no terminate action; termination is by probability
// threshold).
func NewHeuristic(p *pomdp.POMDP, cfg HeuristicConfig) (*Heuristic, error) {
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.Beta == 0 {
		cfg.Beta = 1
	}
	if len(cfg.NullStates) == 0 {
		return nil, fmt.Errorf("controller: heuristic controller needs NullStates")
	}
	if cfg.TerminationProbability <= 0 || cfg.TerminationProbability > 1 {
		return nil, fmt.Errorf("controller: termination probability %v outside (0,1]", cfg.TerminationProbability)
	}
	h := &Heuristic{
		BeliefFilter: NewBeliefFilter(p, nil),
		cfg:          cfg,
		nullSet:      pomdp.SortedStates(cfg.NullStates),
	}
	worst := math.Inf(1)
	for _, r := range p.M.Reward {
		if m, _ := r.Min(); m < worst {
			worst = m
		}
	}
	h.worstCost = worst
	leaf := cfg.Leaf
	if leaf == nil {
		leaf = pomdp.ValueFunc(func(pi pomdp.Belief) float64 {
			return (1 - pi.Mass(h.nullSet)) * h.worstCost
		})
	}
	engine, err := NewEngine(p, cfg.Depth, cfg.Beta, leaf)
	if err != nil {
		return nil, err
	}
	h.engine = engine
	return h, nil
}

// Name implements Controller.
func (h *Heuristic) Name() string {
	return fmt.Sprintf("heuristic(depth=%d)", h.cfg.Depth)
}

// Decide implements Controller.
func (h *Heuristic) Decide() (Decision, error) {
	if h.belief == nil {
		return Decision{}, ErrNotReset
	}
	if h.belief.Mass(h.nullSet) >= h.cfg.TerminationProbability {
		return Decision{Terminate: true}, nil
	}
	res, err := h.engine.Choose(h.belief)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Action: res.Action, Value: res.Value}, nil
}
