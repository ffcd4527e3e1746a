// EMN recovery: one narrated episode on the paper's 3-tier e-commerce
// system (Figure 4).
//
// A zombie fault is injected into EMN server S1: it keeps answering the
// component monitors' pings while silently dropping the half of the
// traffic routed through it. Only the path monitors can see it, and each
// of them only with probability 1/2 per sweep. Watch the bounded controller
// narrow the diagnosis from monitor outputs, restart the right component,
// verify, and terminate — each decision explained by its bound gap, how
// much the Max-Avg expansion improved on the stored bound.
//
// Run with:
//
//	go run ./examples/emn-recovery
//	go run ./examples/emn-recovery -fault zombie:DB -seed 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "emn-recovery:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("emn-recovery", flag.ContinueOnError)
	var (
		faultName = fs.String("fault", "zombie:S1", "fault state to inject")
		seed      = fs.Uint64("seed", 1, "RNG seed")
		depth     = fs.Int("depth", 1, "bounded controller tree depth")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		return err
	}
	fault, ok := compiled.StateIndex[*faultName]
	if !ok {
		return fmt.Errorf("unknown fault state %q (try zombie:S1, crash:DB, hostdown:HostA, ...)", *faultName)
	}

	fmt.Fprintln(out, "preparing the EMN recovery model (RA-Bound + 10 bootstrap episodes)...")
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		return err
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 2, rng.New(*seed).Split("bootstrap")); err != nil {
		return err
	}
	ctrl, err := prep.NewController(core.ControllerConfig{Depth: *depth, ImproveOnline: true, CollectStats: true})
	if err != nil {
		return err
	}

	runner, err := sim.NewRunner(compiled.Recovery, 500)
	if err != nil {
		return err
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\ninjecting %s and starting recovery:\n\n", *faultName)
	res, err := runner.RunEpisode(&narrator{Bounded: ctrl, model: prep.Model, out: out}, initial, fault, rng.New(*seed).Split("episode"))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\nper-fault metrics (one Table 1 sample):\n")
	fmt.Fprintf(out, "  recovered:      %v\n", res.Recovered)
	fmt.Fprintf(out, "  cost:           %.2f dropped request-seconds\n", res.Cost)
	fmt.Fprintf(out, "  recovery time:  %.1fs (residual %.1fs)\n", res.RecoveryTime, res.ResidualTime)
	fmt.Fprintf(out, "  decisions took: %v\n", res.AlgoTime)
	fmt.Fprintf(out, "  actions: %d, monitor calls: %d\n", res.Actions, res.MonitorCalls)
	return nil
}

// narrator tells the episode as the runner drives the controller: every
// monitor reading, and every decision with the belief it was made at and
// the bound gap that explains it (the controller collects DecisionStats).
type narrator struct {
	*controller.Bounded
	model *pomdp.POMDP
	out   io.Writer
}

func (n *narrator) Observe(action, obs int) error {
	if err := n.Bounded.Observe(action, obs); err != nil {
		return err
	}
	fmt.Fprintf(n.out, "  observed %s\n", n.model.ObsName(obs))
	return nil
}

func (n *narrator) Decide() (controller.Decision, error) {
	d, err := n.Bounded.Decide()
	if err != nil {
		return d, err
	}
	st := n.DecisionStats()
	what := "TERMINATE"
	if !d.Terminate {
		what = n.model.M.ActionName(d.Action)
	}
	fmt.Fprintf(n.out, "%-12s value %8.3f  bound gap %.3f  belief %s\n", what, d.Value, st.BoundGap, n.likeliest())
	return d, nil
}

// likeliest names the states holding at least 10% of the belief.
func (n *narrator) likeliest() string {
	out := "{"
	for s, p := range n.Belief() {
		if p < 0.1 {
			continue
		}
		if len(out) > 1 {
			out += ", "
		}
		out += fmt.Sprintf("%s:%.2f", n.model.M.StateName(s), p)
	}
	return out + "}"
}
