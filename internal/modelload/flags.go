package modelload

import (
	"flag"
	"fmt"
	"log"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/rng"
)

// ModelFlags are the -model and -top flags: which recovery model to load,
// and the operator response time its RA-Bound is prepared with.
type ModelFlags struct {
	Model string
	Top   float64
}

// Register declares -model and -top on fs.
func (m *ModelFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&m.Model, "model", "emn", `model: "emn", "twoserver", or a path to a model JSON`)
	fs.Float64Var(&m.Top, "top", emn.OperatorResponseTime, "operator response time t_op in seconds")
}

// Flags are the offline phase's shared flags: ModelFlags plus the flags
// that choose the bound set the tools start from, either one saved with
// -bounds or the RA-Bound warmed by -bootstrap simulated episodes.
type Flags struct {
	ModelFlags
	Bootstrap      int
	BootstrapDepth int
	Seed           uint64
	Bounds         string

	// SaveBootstrap writes a bootstrapped bound set back to -bounds. It is
	// the caller's choice, not a flag.
	SaveBootstrap bool
}

// Register declares the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.ModelFlags.Register(fs)
	fs.IntVar(&f.Bootstrap, "bootstrap", 10, "bootstrap episodes that warm the RA-Bound when -bounds loads no set (0 = keep the raw RA-Bound)")
	fs.IntVar(&f.BootstrapDepth, "bootstrap-depth", 2, "tree depth during bootstrap")
	fs.Uint64Var(&f.Seed, "seed", 1, "bootstrap RNG seed")
	fs.StringVar(&f.Bounds, "bounds", "", "load the bound set from this JSON file instead of bootstrapping; when it is missing, recoverd and fsccompile bootstrap and save the set to it, boundsrefine refuses")
}

// Prepare loads the model, prepares its RA-Bound, and then loads the bound
// set from -bounds when that file exists, or else runs -bootstrap episodes
// (saving the result to -bounds when SaveBootstrap is set). A -bounds file
// that is missing without SaveBootstrap is refused: the run would never
// create it, so the name is more likely a typo than a file to come. It logs
// each step.
func (f *Flags) Prepare() (*core.Prepared, error) {
	rm, err := Load(f.Model)
	if err != nil {
		return nil, err
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: f.Top})
	if err != nil {
		return nil, err
	}
	log.Printf("model %q: %d states, %d actions, %d observations; regime %s",
		f.Model, prep.Model.NumStates(), prep.Model.NumActions(), prep.Model.NumObservations(), prep.Regime)

	if f.Bounds != "" {
		loaded, err := prep.LoadBounds(f.Bounds)
		if err != nil {
			return nil, err
		}
		if loaded {
			log.Printf("loaded %d bound vectors from %s", prep.Set.Size(), f.Bounds)
			return prep, nil
		}
		if !f.SaveBootstrap {
			return nil, fmt.Errorf("bound set %s does not exist", f.Bounds)
		}
	}
	if f.Bootstrap <= 0 {
		return prep, nil
	}
	start := time.Now()
	stats, err := prep.Bootstrap(f.Bootstrap, controller.VariantAverage, f.BootstrapDepth, rng.New(f.Seed))
	if err != nil {
		return nil, err
	}
	last := stats[len(stats)-1]
	log.Printf("bootstrapped %d episodes in %v: bound at uniform %.2f, %d vectors",
		f.Bootstrap, time.Since(start).Round(time.Millisecond), last.BoundAtUniform, last.Vectors)
	if f.SaveBootstrap && f.Bounds != "" {
		if err := prep.SaveBounds(f.Bounds); err != nil {
			return nil, err
		}
		log.Printf("saved bound set to %s", f.Bounds)
	}
	return prep, nil
}
