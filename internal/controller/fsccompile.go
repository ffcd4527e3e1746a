package controller

import (
	"errors"
	"fmt"

	"bpomdp/internal/pomdp"
)

// FSCCompileConfig configures the offline FSC compiler. Depth, β, a_T and
// whether the bound improves during compilation come from the tree
// controller the compiler decides through.
type FSCCompileConfig struct {
	// InitialObservationAction is the action whose observation function
	// generates an episode's first monitor output (the passive observe
	// action). Root nodes compile their edges under it, because the runtime
	// observes one monitor sweep before the first decision.
	InitialObservationAction int
	// MaxNodes caps the table size; zero means 4096. The breadth-first
	// expansion compiles the shallowest reachable beliefs first, so a cap
	// trims the deep tail of long episodes — exactly the beliefs the
	// fallback tier exists for.
	MaxNodes int
}

// CompileFSC extracts a sparse finite-state controller from the bounded
// controller tree: starting from the given root beliefs (typically the
// episode initial belief, optionally augmented with Bootstrapper-sampled
// posteriors) it breadth-first enumerates the reachable belief graph,
// records at every belief the Decision tree.DecideBatch makes there,
// annotates it with the bound gap Value − V_B⁻(π) read through Set.Peek
// (so compiling cannot perturb least-used eviction), and links
// per-observation successor edges.
//
// Every node is decided through the tree itself, so a compiled node
// replays bit-identically what tree.Decide would return at the same belief
// over the same set. With the tree's ImproveOnline the bound is updated at
// every compiled belief before it is decided (the bootstrapping backup of
// §4.1), which drives compiled gaps toward zero but mutates the set —
// decisions are then only guaranteed to match a tree running over the
// final set where the recorded gap is still within threshold. Compile with
// a tree without ImproveOnline for exact decision parity over a frozen set.
func CompileFSC(tree *Bounded, roots []pomdp.Belief, cfg FSCCompileConfig) (*FSC, error) {
	if tree == nil {
		return nil, fmt.Errorf("controller: fsc compile needs a bounded controller to decide through")
	}
	p := tree.Model()
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 4096
	}
	if cfg.MaxNodes < 0 {
		return nil, fmt.Errorf("controller: fsc compile with negative node budget %d", cfg.MaxNodes)
	}
	if cfg.InitialObservationAction < 0 || cfg.InitialObservationAction >= p.NumActions() {
		return nil, fmt.Errorf("controller: initial observation action %d out of range", cfg.InitialObservationAction)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("controller: fsc compile needs at least one root belief")
	}

	f := newFSC(p.NumStates(), p.NumActions(), p.NumObservations(), tree.cfg.Depth, tree.cfg.Beta, tree.cfg.TerminateAction)
	for r, root := range roots {
		if len(root) != f.states {
			return nil, fmt.Errorf("controller: root belief %d length %d, want %d", r, len(root), f.states)
		}
		if !root.IsDistribution() {
			return nil, fmt.Errorf("controller: root belief %d is not a distribution", r)
		}
		if f.findNode(hashBelief(root), root) >= 0 {
			continue
		}
		if len(f.nodes) >= cfg.MaxNodes {
			break
		}
		f.addNode(FSCNode{
			Belief: root.Clone(),
			Action: -1,
			// Episodes observe one monitor sweep before the first decision,
			// so root edges condition on the monitor action.
			EdgeAction: cfg.InitialObservationAction,
		})
	}

	sc := pomdp.NewScratch(p)
	// The node slice doubles as the BFS queue: nodes are appended as their
	// beliefs are discovered and expanded in index order, so the cheapest
	// (shallowest) beliefs win the budget.
	for i := 0; i < len(f.nodes); i++ {
		pi := f.nodes[i].Belief
		d, err := tree.decideOne(pi)
		if err != nil {
			return nil, fmt.Errorf("controller: fsc compile decide at node %d: %w", i, err)
		}
		f.nodes[i].Action = d.Action
		f.nodes[i].Terminate = d.Terminate
		f.nodes[i].Value = d.Value
		f.nodes[i].Gap = d.Value - tree.Set().Peek(pi)
		ea := f.nodes[i].EdgeAction
		if ea < 0 {
			ea = d.Action
			f.nodes[i].EdgeAction = ea
		}
		if d.Terminate && ea == d.Action {
			// The decision ends the episode; there is no next observation.
			continue
		}
		edges := make([]int32, f.observations)
		for o := range edges {
			edges[o] = -1
			next, err := p.Update(sc, pi, ea, o)
			if errors.Is(err, pomdp.ErrImpossibleObservation) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("controller: fsc compile successor of node %d under obs %d: %w", i, o, err)
			}
			if j := f.findNode(hashBelief(next), next); j >= 0 {
				edges[o] = j
				continue
			}
			if len(f.nodes) >= cfg.MaxNodes {
				continue
			}
			edges[o] = f.addNode(FSCNode{Belief: next, Action: -1, EdgeAction: -1})
		}
		f.nodes[i].Edges = edges
	}
	return f, nil
}
