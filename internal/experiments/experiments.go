// Package experiments regenerates the paper's evaluation artifacts — Table 1
// and Figures 5(a)/5(b) — from the EMN model. The cmd tools and the shape
// tests share these harnesses, so "the number in the report" and "the
// number in the test" cannot drift apart.
package experiments

import (
	"fmt"
	"strings"

	"bpomdp/internal/arch"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
	"bpomdp/internal/stats"
)

// Algorithm names accepted by Table1Config.Algorithms.
const (
	AlgoMostLikely = "most-likely"
	AlgoHeuristic1 = "heuristic-1"
	AlgoHeuristic2 = "heuristic-2"
	AlgoHeuristic3 = "heuristic-3"
	AlgoBounded    = "bounded"
	AlgoOracle     = "oracle"
	AlgoRandom     = "random" // ablation extra, not in the paper's table
)

// DefaultAlgorithms is the paper's Table 1 row order.
func DefaultAlgorithms() []string {
	return []string{AlgoMostLikely, AlgoHeuristic1, AlgoHeuristic2, AlgoHeuristic3, AlgoBounded, AlgoOracle}
}

// Table1Config parameterizes the fault-injection experiment of Table 1.
type Table1Config struct {
	// Episodes is the number of fault injections per algorithm (10,000 in
	// the paper).
	Episodes int
	// Seed drives all stochastic choices; campaigns are reproducible.
	Seed uint64
	// Algorithms selects and orders the rows; nil means DefaultAlgorithms.
	Algorithms []string
	// BootstrapRuns and BootstrapDepth configure the bounded controller's
	// bootstrap phase (the paper uses 10 runs of depth 2).
	BootstrapRuns, BootstrapDepth int
	// BoundedDepth is the bounded controller's online tree depth (1 in the
	// paper).
	BoundedDepth int
	// TerminationProbability is the Sφ-mass threshold for the most-likely
	// and heuristic controllers (0.9999 in the paper).
	TerminationProbability float64
	// MaxSteps bounds each episode; zero means 1000.
	MaxSteps int
	// EMN tunes the system model; the zero value is the paper's.
	EMN emn.Config
	// AllFaults injects all 13 fault classes instead of the paper's
	// zombies-only campaign.
	AllFaults bool
}

func (c Table1Config) withDefaults() Table1Config {
	if c.Episodes == 0 {
		c.Episodes = 1000
	}
	if c.Algorithms == nil {
		c.Algorithms = DefaultAlgorithms()
	}
	if c.BootstrapRuns == 0 {
		c.BootstrapRuns = 10
	}
	if c.BootstrapDepth == 0 {
		c.BootstrapDepth = 2
	}
	if c.BoundedDepth == 0 {
		c.BoundedDepth = 1
	}
	if c.TerminationProbability == 0 {
		c.TerminationProbability = 0.9999
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1000
	}
	return c
}

// Table1Result holds one campaign row per algorithm, in requested order.
type Table1Result struct {
	Rows []sim.CampaignResult
}

// Render formats the result like the paper's Table 1.
func (r *Table1Result) Render() string {
	t := stats.NewTable(sim.TableHeaders()...)
	for i := range r.Rows {
		t.AddRow(r.Rows[i].Row()...)
	}
	return t.String()
}

// Row returns the campaign for the named algorithm, or nil.
func (r *Table1Result) Row(name string) *sim.CampaignResult {
	for i := range r.Rows {
		if strings.HasPrefix(r.Rows[i].Name, name) || r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table1 runs the paper's fault-injection experiment: for each algorithm, a
// campaign of Episodes zombie-fault injections on the EMN system, reporting
// per-fault averages. Because zombie faults are the hardest to diagnose,
// the paper injects only those; set AllFaults for the full mix.
func Table1(cfg Table1Config) (*Table1Result, error) {
	c := cfg.withDefaults()
	compiled, err := emn.Build(c.EMN)
	if err != nil {
		return nil, err
	}
	rm := compiled.Recovery
	runner, err := sim.NewRunner(rm, c.MaxSteps)
	if err != nil {
		return nil, err
	}
	faults := compiled.ZombieStates
	if c.AllFaults {
		faults = rm.FaultStates()
	}
	root := rng.New(c.Seed)

	out := &Table1Result{}
	for _, name := range c.Algorithms {
		ctrl, initial, err := buildAlgorithm(name, compiled, c, root)
		if err != nil {
			return nil, err
		}
		res, err := runner.RunCampaign(ctrl, initial, faults, c.Episodes, root.Split("campaign/"+name))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		res.Name = name
		out.Rows = append(out.Rows, res)
	}
	return out, nil
}

// buildAlgorithm instantiates one Table 1 row's controller with its initial
// belief.
func buildAlgorithm(name string, compiled *arch.Compiled, c Table1Config, root *rng.Stream) (controller.Controller, pomdp.Belief, error) {
	rm := compiled.Recovery
	uniform := pomdp.UniformBelief(rm.POMDP.NumStates())
	switch name {
	case AlgoMostLikely:
		ctrl, err := controller.NewMostLikely(rm.POMDP, controller.MostLikelyConfig{
			NullStates:             rm.NullStates,
			TerminationProbability: c.TerminationProbability,
		})
		return ctrl, uniform, err
	case AlgoHeuristic1, AlgoHeuristic2, AlgoHeuristic3:
		depth := int(name[len(name)-1] - '0')
		ctrl, err := controller.NewHeuristic(rm.POMDP, controller.HeuristicConfig{
			Depth:                  depth,
			NullStates:             rm.NullStates,
			TerminationProbability: c.TerminationProbability,
		})
		return ctrl, uniform, err
	case AlgoBounded:
		prep, err := core.Prepare(rm, core.PrepareOptions{
			OperatorResponseTime: emn.OperatorResponseTime,
		})
		if err != nil {
			return nil, nil, err
		}
		if c.BootstrapRuns > 0 {
			if _, err := prep.Bootstrap(c.BootstrapRuns, controller.VariantAverage,
				c.BootstrapDepth, root.Split("bootstrap")); err != nil {
				return nil, nil, err
			}
		}
		// The paper's controller keeps improving the bound at the beliefs
		// recovery actually visits (Section 4.1), which is what lets it
		// terminate promptly near the null vertex.
		ctrl, err := prep.NewController(core.ControllerConfig{Depth: c.BoundedDepth, ImproveOnline: true})
		if err != nil {
			return nil, nil, err
		}
		initial, err := prep.InitialBelief()
		return ctrl, initial, err
	case AlgoOracle:
		ctrl, err := controller.NewOracle(rm.POMDP, rm.NullStates)
		return ctrl, uniform, err
	case AlgoRandom:
		ctrl, err := controller.NewRandom(rm.POMDP, rm.NullStates,
			c.TerminationProbability, root.Split("random-ctrl"))
		return ctrl, uniform, err
	default:
		return nil, nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}
