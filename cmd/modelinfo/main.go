// Command modelinfo inspects a recovery model: it validates the paper's
// Conditions 1 and 2, diagnoses Property 1(a) free actions, classifies the
// recovery-notification regime, computes the RA-Bound, shows which of the
// literature's comparison bounds diverge, and reports the QMDP upper-bound
// gap. It can also export the built-in models as JSON.
//
// Usage:
//
//	modelinfo -model emn
//	modelinfo -model twoserver -top 10
//	modelinfo -model my-system.json -top 21600
//	modelinfo -model emn -export emn.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"bpomdp/internal/bounds"
	"bpomdp/internal/core"
	"bpomdp/internal/linalg"
	"bpomdp/internal/modelload"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "modelinfo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("modelinfo", flag.ContinueOnError)
	var m modelload.ModelFlags
	m.Register(fs)
	export := fs.String("export", "", "write the model JSON to this path and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rm, err := modelload.Load(m.Model)
	if err != nil {
		return err
	}
	if *export != "" {
		data, err := pomdp.MarshalModel(rm.POMDP)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*export, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", *export, len(data))
		return nil
	}
	return report(os.Stdout, rm, m.Top)
}

func report(w *os.File, rm *core.RecoveryModel, top float64) error {
	p := rm.POMDP
	fmt.Fprintf(w, "states: %d, actions: %d, observations: %d\n",
		p.NumStates(), p.NumActions(), p.NumObservations())

	if err := rm.Validate(); err != nil {
		fmt.Fprintf(w, "validation: FAILED: %v\n", err)
		return nil
	}
	fmt.Fprintln(w, "validation: OK (Condition 1: Sφ reachable from every state; Condition 2: rewards ≤ 0)")

	if free := rm.FreeActions(); len(free) == 0 {
		fmt.Fprintln(w, "Property 1(a): OK (no free actions outside Sφ)")
	} else {
		fmt.Fprintf(w, "Property 1(a): %d free (state, action) pairs — termination relies on the a_T tie-break, e.g. (%s, %s)\n",
			len(free), p.M.StateName(free[0].State), p.M.ActionName(free[0].Action))
	}

	hasNotif, err := rm.HasRecoveryNotification()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recovery notification: %v\n", hasNotif)

	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: top})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "regime: %s (t_op = %.0fs)\n\n", prep.Regime, top)

	upper, err := bounds.QMDP(prep.Model, bounds.Options{})
	if err != nil {
		return err
	}
	t := stats.NewTable("State", "RA-Bound", "QMDP upper", "Gap")
	for s := 0; s < prep.Model.NumStates(); s++ {
		t.AddRow(prep.Model.M.StateName(s),
			fmt.Sprintf("%.2f", prep.RA[s]),
			fmt.Sprintf("%.2f", upper[s]),
			fmt.Sprintf("%.2f", upper[s]-prep.RA[s]))
	}
	fmt.Fprint(w, t.String())

	fmt.Fprintln(w, "\ncomparison bounds (undiscounted):")
	if _, err := bounds.BIPOMDP(prep.Model, bounds.Options{Solver: linalg.FixedPointOptions{MaxIter: 20000}}); err != nil {
		if errors.Is(err, bounds.ErrUnbounded) {
			fmt.Fprintln(w, "  BI-POMDP: diverges (as the paper predicts for recovery models)")
		} else {
			return err
		}
	} else {
		fmt.Fprintln(w, "  BI-POMDP: finite")
	}
	bp, err := bounds.BlindPolicy(prep.Model, bounds.Options{Solver: linalg.FixedPointOptions{MaxIter: 20000}})
	switch {
	case errors.Is(err, bounds.ErrUnbounded):
		fmt.Fprintln(w, "  blind policy: every action diverges")
	case err != nil:
		return err
	default:
		fmt.Fprintf(w, "  blind policy: %d/%d actions finite (%d diverge)\n",
			len(bp.Planes), prep.Model.NumActions(), len(bp.Diverged))
	}
	return nil
}
