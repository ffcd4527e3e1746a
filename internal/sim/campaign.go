package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/stats"
)

// CampaignResult aggregates the per-fault averages of a fault-injection
// campaign — one Table 1 row.
type CampaignResult struct {
	// Name labels the controller.
	Name string
	// Episodes and Recovered count injections and successful recoveries.
	Episodes, Recovered int
	// Abandoned counts episodes that failed with an error instead of
	// terminating (only non-zero with CampaignOptions.ContinueOnError).
	Abandoned int
	// Per-fault metric accumulators.
	Cost, RecoveryTime, ResidualTime, AlgoTimeMs, Actions, MonitorCalls stats.Accumulator

	// Decision-stat aggregates, non-zero only when the campaign's
	// controllers collect per-decision stats: total decisions covered, the
	// Max-Avg expansion work they performed, and per-episode means of the
	// bound gap (Property 1(b) slack) and decision-time belief entropy.
	// TreeNodes and LeafEvals count the logical tree, so batched and
	// sequential stepping report the same totals although a batched
	// expansion evaluates each distinct belief only once.
	Decisions                        int
	TreeNodes, LeafEvals, SlabPasses uint64
	BoundGap, BeliefEntropy          stats.Accumulator
	// FSCDecisions and TreeDecisions split Decisions by serving tier: table
	// hits of a compiled FSC vs Max-Avg tree expansions (including FSC
	// fallbacks). Zero unless the controllers collect stats.
	FSCDecisions, TreeDecisions int
}

// add folds one successful episode into the aggregate.
func (c *CampaignResult) add(res EpisodeResult) {
	c.Episodes++
	if res.Recovered {
		c.Recovered++
	}
	c.Cost.Add(res.Cost)
	c.RecoveryTime.Add(res.RecoveryTime)
	c.ResidualTime.Add(res.ResidualTime)
	c.AlgoTimeMs.Add(float64(res.AlgoTime) / float64(time.Millisecond))
	c.Actions.Add(float64(res.Actions))
	c.MonitorCalls.Add(float64(res.MonitorCalls))
	if res.Decisions > 0 {
		c.Decisions += res.Decisions
		c.TreeNodes += res.TreeNodes
		c.LeafEvals += res.LeafEvals
		c.SlabPasses += res.SlabPasses
		c.BoundGap.Add(res.BoundGapSum / float64(res.Decisions))
		c.BeliefEntropy.Add(res.EntropySum / float64(res.Decisions))
		c.FSCDecisions += res.FSCDecisions
		c.TreeDecisions += res.TreeDecisions
	}
}

// merge folds another worker's aggregate into c (exact parallel-variance
// combination via stats.Accumulator.Merge).
func (c *CampaignResult) merge(o *CampaignResult) {
	if c.Name == "" {
		c.Name = o.Name
	}
	c.Episodes += o.Episodes
	c.Recovered += o.Recovered
	c.Abandoned += o.Abandoned
	c.Cost.Merge(&o.Cost)
	c.RecoveryTime.Merge(&o.RecoveryTime)
	c.ResidualTime.Merge(&o.ResidualTime)
	c.AlgoTimeMs.Merge(&o.AlgoTimeMs)
	c.Actions.Merge(&o.Actions)
	c.MonitorCalls.Merge(&o.MonitorCalls)
	c.Decisions += o.Decisions
	c.TreeNodes += o.TreeNodes
	c.LeafEvals += o.LeafEvals
	c.SlabPasses += o.SlabPasses
	c.BoundGap.Merge(&o.BoundGap)
	c.BeliefEntropy.Merge(&o.BeliefEntropy)
	c.FSCDecisions += o.FSCDecisions
	c.TreeDecisions += o.TreeDecisions
}

// ControllerFactory builds an independent controller (and its initial
// belief) for one worker. Controllers are stateful and not safe for
// concurrent use, so the parallel campaign gives each worker its own.
type ControllerFactory func() (controller.Controller, pomdp.Belief, error)

// CampaignOptions tunes RunCampaignOpts. The zero value runs the campaign
// sequentially with a shared controller — the classic Table 1 loop.
type CampaignOptions struct {
	// ContinueOnError records a failed episode as Abandoned and moves on to
	// the next injection instead of aborting the campaign — the right mode
	// when the controller sits behind an unreliable transport and an
	// episode-level failure is itself a measurement.
	ContinueOnError bool
	// EpisodeFactory, when set, supplies a fresh controller per episode
	// (e.g. a new remote episode from a client); ctrl passed to the
	// campaign is ignored. The second return value, when non-nil, is called
	// after the episode with its error (nil on success) — a cleanup hook
	// for abandoning remote episodes. With Workers > 1 the factory is called
	// concurrently from worker goroutines and must be safe for that.
	EpisodeFactory func(episode int) (controller.Controller, func(error), error)
	// Workers is the number of campaign goroutines; 1 runs the campaign
	// sequentially on the calling goroutine. Episode i is assigned to
	// worker i mod Workers and uses the same derived RNG stream at any
	// worker count, so for a fixed Workers value the campaign is exactly
	// reproducible; the merged statistics with Workers == 1 are bit-for-bit
	// the sequential result.
	//
	// Workers == 0 auto-tunes only with a WorkerFactory and no
	// EpisodeFactory: the count is then picked from the episode count and
	// GOMAXPROCS (never more than one worker per four episodes, never more
	// than GOMAXPROCS). With a shared controller or an EpisodeFactory it
	// stays sequential, so an EpisodeFactory need be concurrency-safe only
	// when the caller asks for Workers > 1. Auto-tuned campaigns are
	// reproducible only on a fixed GOMAXPROCS — pass an explicit count when
	// determinism across machines matters.
	Workers int
	// WorkerFactory supplies each worker's private controller and initial
	// belief. Required when Workers > 1 and no EpisodeFactory is set: a
	// shared ctrl is stateful and cannot be driven from several goroutines.
	WorkerFactory ControllerFactory
	// BatchSize > 0 enables batched stepping: each worker keeps up to
	// BatchSize episodes live at once and advances them together through
	// one BatchDecider call per round, amortizing tree expansion and
	// leaf-bound evaluation across the batch. Per-episode RNG streams,
	// trajectories, and metrics are bit-identical to sequential stepping
	// (each worker folds its completed episodes in episode-index order),
	// so BatchSize is purely a throughput knob. Batched stepping drives
	// bare belief filters instead of the episode controller, so it is
	// incompatible with EpisodeFactory and does not feed StateAware
	// controllers.
	BatchSize int
	// BatchDecider supplies the decision engine for batched stepping. When
	// nil, the worker's controller (shared ctrl or WorkerFactory product)
	// must implement controller.BatchDecider. A BatchDecider is stateful
	// scratch-wise and must not be shared between workers; setting it with
	// Workers > 1 is rejected — use a WorkerFactory whose controllers
	// implement controller.BatchDecider instead.
	BatchDecider controller.BatchDecider
}

// RunCampaign injects episodes faults (uniformly over faultStates) and
// aggregates per-fault metrics. Episode RNG streams are derived from the
// given stream per episode index, so campaigns are reproducible and
// insensitive to controller internals.
func (r *Runner) RunCampaign(ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream) (CampaignResult, error) {
	return r.RunCampaignOpts(ctrl, initial, faultStates, episodes, stream, CampaignOptions{})
}

// RunCampaignOpts is the campaign engine: RunCampaign plus per-episode
// controller factories, error tolerance, and multi-worker execution (see
// CampaignOptions). The sequential path is simply Workers == 1.
//
// Error handling is uniform across worker counts: without ContinueOnError a
// failing episode stops the campaign, but the CampaignResult still carries
// every episode completed before the failure (partial results are never
// discarded), and the returned error joins every worker's failure via
// errors.Join rather than surfacing an arbitrary first one.
func (r *Runner) RunCampaignOpts(ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream, opts CampaignOptions) (CampaignResult, error) {
	var out CampaignResult
	if ctrl != nil {
		out.Name = ctrl.Name()
	}
	if len(faultStates) == 0 {
		return out, fmt.Errorf("sim: no fault states to inject")
	}
	if episodes < 1 {
		return out, fmt.Errorf("sim: non-positive episode count %d", episodes)
	}
	if ctrl == nil && opts.EpisodeFactory == nil && opts.WorkerFactory == nil && opts.BatchDecider == nil {
		return out, fmt.Errorf("sim: nil controller and no episode or worker factory")
	}
	if opts.BatchSize < 0 {
		return out, fmt.Errorf("sim: negative batch size %d", opts.BatchSize)
	}
	if opts.BatchSize > 0 && opts.EpisodeFactory != nil {
		return out, fmt.Errorf("sim: batched stepping is incompatible with EpisodeFactory")
	}
	if opts.BatchDecider != nil && opts.BatchSize == 0 {
		return out, fmt.Errorf("sim: BatchDecider set without a positive BatchSize")
	}
	workers := opts.Workers
	if workers == 0 && opts.WorkerFactory != nil && opts.EpisodeFactory == nil {
		workers = autoWorkers(episodes, runtime.GOMAXPROCS(0))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > episodes {
		workers = episodes
	}
	if workers > 1 && opts.BatchDecider != nil {
		return out, fmt.Errorf("sim: shared batch decider cannot run %d workers; use a WorkerFactory of batch-capable controllers", workers)
	}

	if workers == 1 {
		if opts.WorkerFactory != nil && opts.EpisodeFactory == nil {
			c, ini, err := opts.WorkerFactory()
			if err != nil {
				return out, fmt.Errorf("sim: worker 0 factory: %w", err)
			}
			ctrl, initial = c, ini
			out.Name = ctrl.Name()
		}
		res, err := r.runWorker(0, 1, ctrl, initial, faultStates, episodes, stream, opts)
		res.Name = firstNonEmpty(res.Name, out.Name)
		return res, err
	}

	if opts.EpisodeFactory == nil && opts.WorkerFactory == nil {
		return out, fmt.Errorf("sim: shared controller cannot run %d workers; set WorkerFactory or EpisodeFactory", workers)
	}

	results := make([]CampaignResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wCtrl, wInitial := ctrl, initial
			if opts.WorkerFactory != nil && opts.EpisodeFactory == nil {
				c, ini, err := opts.WorkerFactory()
				if err != nil {
					errs[w] = fmt.Errorf("sim: worker %d factory: %w", w, err)
					return
				}
				wCtrl, wInitial = c, ini
			}
			results[w], errs[w] = r.runWorker(w, workers, wCtrl, wInitial, faultStates, episodes, stream, opts)
		}(w)
	}
	wg.Wait()

	for w := range results {
		out.merge(&results[w])
	}
	return out, errors.Join(errs...)
}

// firstNonEmpty returns a if non-empty, else b.
func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// autoWorkers picks the worker count for Workers == 0: one worker per four
// episodes (a worker with fewer episodes spends more time starting up than
// simulating), capped at GOMAXPROCS, and never below one.
func autoWorkers(episodes, procs int) int {
	w := episodes / 4
	if w < 1 {
		w = 1
	}
	if w > procs {
		w = procs
	}
	return w
}

// runWorker runs worker w's stripe of the campaign — episodes w, w+workers,
// w+2·workers, … — sequentially on the calling goroutine. It is the single
// episode loop behind every campaign mode: the sequential engine is exactly
// runWorker(0, 1, …). On a fatal episode error it stops its own stripe and
// returns the partial aggregate alongside the error; other workers finish
// their stripes, so the merged partial result of a failing campaign is
// itself deterministic for a fixed worker count.
func (r *Runner) runWorker(w, workers int, ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream, opts CampaignOptions) (CampaignResult, error) {
	if opts.BatchSize > 0 {
		return r.runWorkerBatched(w, workers, ctrl, initial, faultStates, episodes, stream, opts)
	}
	var out CampaignResult
	if ctrl != nil {
		out.Name = ctrl.Name()
	}
	for i := w; i < episodes; i += workers {
		ep := stream.SplitN("episode", i)
		fault := faultStates[ep.IntN(len(faultStates))]
		epCtrl := ctrl
		var done func(error)
		if opts.EpisodeFactory != nil {
			c, cleanup, err := opts.EpisodeFactory(i)
			if err != nil {
				if opts.ContinueOnError {
					out.Abandoned++
					continue
				}
				return out, fmt.Errorf("sim: episode %d factory: %w", i, err)
			}
			epCtrl, done = c, cleanup
			if out.Name == "" {
				out.Name = epCtrl.Name()
			}
		}
		res, err := r.RunEpisode(epCtrl, initial, fault, ep)
		if done != nil {
			done(err)
		}
		if err != nil {
			if opts.ContinueOnError {
				out.Abandoned++
				continue
			}
			return out, fmt.Errorf("sim: episode %d (fault %s): %w",
				i, r.rm.POMDP.M.StateName(fault), err)
		}
		out.add(res)
	}
	return out, nil
}

// Row renders the campaign as a Table 1 row: cost, recovery time, residual
// time, algorithm time, actions, monitor calls (per-fault averages).
func (c *CampaignResult) Row() []string {
	return []string{
		c.Name,
		fmt.Sprintf("%.2f", c.Cost.Mean()),
		fmt.Sprintf("%.2f", c.RecoveryTime.Mean()),
		fmt.Sprintf("%.2f", c.ResidualTime.Mean()),
		fmt.Sprintf("%.3f", c.AlgoTimeMs.Mean()),
		fmt.Sprintf("%.3f", c.Actions.Mean()),
		fmt.Sprintf("%.2f", c.MonitorCalls.Mean()),
		fmt.Sprintf("%d/%d", c.Recovered, c.Episodes),
	}
}

// TableHeaders are the column headers matching Row.
func TableHeaders() []string {
	return []string{"Algorithm", "Cost", "RecoveryTime(s)", "ResidualTime(s)", "AlgoTime(ms)", "Actions", "MonitorCalls", "Recovered"}
}
