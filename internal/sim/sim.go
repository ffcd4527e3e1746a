// Package sim is the fault-injection simulator used for the paper's
// Section 5 evaluation: it injects faults into a simulated system governed
// by a recovery model, drives a controller through the
// detect–decide–act–observe loop, and collects the per-fault metrics of
// Table 1 (cost, recovery time, residual time, algorithm time, recovery
// actions, monitor calls).
//
// The simulator stands in for the authors' EMN testbed; like theirs, it is
// a model-driven simulation — the true system state evolves by the recovery
// model's transition function, monitor outputs are sampled from the
// observation function, and costs accrue via the reward structure (rate ×
// duration), while the controller's decision time is measured in real wall
// time.
package sim

import (
	"errors"
	"fmt"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// ErrTimedOut is wrapped into episode errors when a controller fails to
// terminate within the step budget.
var ErrTimedOut = errors.New("sim: controller did not terminate within step budget")

// EpisodeResult holds the per-fault metrics of one recovery episode; the
// fields mirror Table 1's columns.
type EpisodeResult struct {
	// Injected is the injected fault state.
	Injected int
	// Recovered reports whether the system was actually fault-free when the
	// controller terminated.
	Recovered bool
	// Steps is the number of decision steps (including pure observations).
	Steps int
	// Cost is the accumulated cost (dropped requests: drop rate × time),
	// i.e. the negated reward accrued on the true trajectory.
	Cost float64
	// RecoveryTime is the simulated time from fault injection to controller
	// termination, in seconds.
	RecoveryTime float64
	// ResidualTime is the simulated time the fault was actually present, in
	// seconds.
	ResidualTime float64
	// AlgoTime is the real wall-clock time the controller spent deciding.
	AlgoTime time.Duration
	// Actions is the number of recovery actions executed (restarts and
	// reboots; observations excluded).
	Actions int
	// MonitorCalls is the number of monitor sweeps performed (one follows
	// every step, including the initial detection sweep).
	MonitorCalls int

	// Decision-stat aggregates, populated only when the deciding controller
	// collects per-decision stats (controller.StatsSource with stats
	// enabled). Decisions counts the decisions covered; TreeNodes, LeafEvals
	// and SlabPasses total the Max-Avg expansion work, TreeNodes and
	// LeafEvals counting the logical tree rather than the deduplicated work
	// of a batched expansion (see controller.EngineCounters); BoundGapSum and
	// EntropySum accumulate the Property 1(b) slack and the belief entropy
	// across decisions (divide by Decisions for per-decision means).
	Decisions   int
	TreeNodes   uint64
	LeafEvals   uint64
	SlabPasses  uint64
	BoundGapSum float64
	EntropySum  float64
	// FSCDecisions and TreeDecisions split Decisions by serving tier
	// (controller.TierFSC compiled-node hits vs controller.TierTree
	// decisions). Under a controller without compiled nodes every decision
	// is a TreeDecision; with an FSC attached (controller.Bounded.UseFSC)
	// FSCDecisions counts its node hits and TreeDecisions everything else,
	// certainty terminations and online-region answers included.
	FSCDecisions  int
	TreeDecisions int
}

// addStats folds one decision's stats into the episode aggregates.
func (res *EpisodeResult) addStats(st controller.DecisionStats) {
	res.Decisions++
	res.TreeNodes += st.TreeNodes
	res.LeafEvals += st.LeafEvals
	res.SlabPasses += st.SlabPasses
	res.BoundGapSum += st.BoundGap
	res.EntropySum += st.BeliefEntropy
	switch st.Tier {
	case controller.TierFSC:
		res.FSCDecisions++
	case controller.TierTree:
		res.TreeDecisions++
	}
}

// Runner executes recovery episodes against a recovery model's simulated
// true system.
type Runner struct {
	rm      *core.RecoveryModel
	isNull  []bool
	maxStep int
}

// NewRunner builds a Runner for the recovery model. maxSteps caps each
// episode (0 means 1000).
func NewRunner(rm *core.RecoveryModel, maxSteps int) (*Runner, error) {
	if err := rm.Validate(); err != nil {
		return nil, err
	}
	if maxSteps == 0 {
		maxSteps = 1000
	}
	if maxSteps < 1 {
		return nil, fmt.Errorf("sim: non-positive step budget %d", maxSteps)
	}
	isNull := make([]bool, rm.POMDP.NumStates())
	for _, s := range rm.NullStates {
		isNull[s] = true
	}
	return &Runner{rm: rm, isNull: isNull, maxStep: maxSteps}, nil
}

// episode is one live recovery episode: the simulated true system, its
// RNG stream, and the belief tracking of whoever decides for it — its own
// controller, or (under batched stepping, where one BatchDecider decides
// for a whole stripe) a pooled belief filter. Campaign workers recycle
// episode objects, stream and filter included, so the steady state starts
// episodes without allocating.
type episode struct {
	index  int // campaign episode index (RNG stream and fold order)
	fault  int
	state  int
	stream *rng.Stream
	res    EpisodeResult

	ctrl  controller.Controller   // nil under batched stepping
	stats controller.StatsSource  // ctrl, when it collects decision stats
	done  func(error)             // EpisodeFactory cleanup hook, or nil
	flt   controller.BeliefFilter // batched stepping's belief tracking
	label string                  // names the batch decider in errors
}

// name labels the episode's decider in errors.
func (e *episode) name() string {
	if e.ctrl != nil {
		return e.ctrl.Name()
	}
	return e.label
}

// RunEpisode injects faultState, performs the initial detection sweep, and
// drives ctrl until it terminates. initial is the controller's prior belief
// before the first monitor output (it may be sized for a transformed model
// with extra states appended after the base states; base action and
// observation indices must coincide, which the Section 3.1 transforms
// guarantee). It is a campaign episode run on its own, through the same
// steps as the campaign loop.
func (r *Runner) RunEpisode(ctrl controller.Controller, initial pomdp.Belief, faultState int, stream *rng.Stream) (EpisodeResult, error) {
	e := &episode{fault: faultState, stream: stream, ctrl: ctrl}
	if err := r.start(e, initial); err != nil {
		return e.res, err
	}
	for {
		if err := r.checkBudget(e); err != nil {
			return e.res, err
		}
		d, err := e.decide()
		if err != nil {
			return e.res, err
		}
		if ended, err := r.apply(e, d); ended || err != nil {
			return e.res, err
		}
	}
}

// start injects e.fault, resets the episode's belief tracking to initial,
// and runs the initial detection sweep: the monitors fire once so the
// controller can condition its prior on real outputs (Section 4).
func (r *Runner) start(e *episode, initial pomdp.Belief) error {
	p := r.rm.POMDP
	e.state = e.fault
	e.res = EpisodeResult{Injected: e.fault}
	if e.fault < 0 || e.fault >= p.NumStates() {
		return fmt.Errorf("sim: fault state %d out of range [0,%d)", e.fault, p.NumStates())
	}
	var err error
	if e.ctrl != nil {
		err = e.ctrl.Reset(initial)
		// Decision-stat collection is decided once per episode so the hot
		// loop pays nothing when the controller does not collect.
		e.stats, _ = e.ctrl.(controller.StatsSource)
		if e.stats != nil && !e.stats.StatsEnabled() {
			e.stats = nil
		}
	} else {
		err = e.flt.Reset(initial)
	}
	if err != nil {
		return fmt.Errorf("sim: reset %s: %w", e.name(), err)
	}
	if err := r.act(e, r.rm.MonitorAction); err != nil {
		return err
	}
	e.res.Steps = 1
	return nil
}

// checkBudget fails an episode that used up its step budget without
// terminating.
func (r *Runner) checkBudget(e *episode) error {
	if e.res.Steps > r.maxStep {
		return fmt.Errorf("sim: %s after %d steps: %w", e.name(), r.maxStep, ErrTimedOut)
	}
	return nil
}

// decide is the decision round of an episode with its own controller: it
// feeds a StateAware controller the true state, times Decide, and folds in
// the decision's stats.
func (e *episode) decide() (controller.Decision, error) {
	if sa, ok := e.ctrl.(controller.StateAware); ok {
		sa.ObserveTrueState(e.state)
	}
	t0 := time.Now()
	d, err := e.ctrl.Decide()
	e.res.AlgoTime += time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("sim: %s decide: %w", e.ctrl.Name(), err)
	}
	if e.stats != nil {
		e.res.addStats(e.stats.DecisionStats())
	}
	return d, nil
}

// apply carries out decision d: a termination ends the episode (ended is
// true), an out-of-range action fails it, and any other action is executed
// as the episode's next step.
func (r *Runner) apply(e *episode, d controller.Decision) (ended bool, err error) {
	if d.Terminate {
		e.res.Recovered = r.isNull[e.state]
		return true, nil
	}
	if d.Action < 0 || d.Action >= r.rm.POMDP.NumActions() {
		return false, fmt.Errorf("sim: %s chose invalid action %d", e.name(), d.Action)
	}
	if d.Action != r.rm.MonitorAction {
		e.res.Actions++
	}
	if err := r.act(e, d.Action); err != nil {
		return false, err
	}
	e.res.Steps++
	return false, nil
}

// act executes one action on the true system (transition + monitor sweep +
// accounting) and feeds the sampled observation to the episode's belief
// tracking.
func (r *Runner) act(e *episode, action int) error {
	p := r.rm.POMDP
	res := &e.res
	dur := r.rm.Durations[action]
	tMon := r.rm.MonitorDuration

	// Cost is the negated model reward on the true trajectory; the model's
	// r(s,a) already folds in the action duration and the trailing sweep.
	res.Cost += -p.M.Reward[action][e.state]
	res.RecoveryTime += dur + tMon
	if !r.isNull[e.state] {
		res.ResidualTime += dur
	}

	next, err := r.sampleTransition(e.stream, e.state, action)
	if err != nil {
		return err
	}
	if !r.isNull[next] {
		res.ResidualTime += tMon
	}
	obs, err := r.sampleObservation(e.stream, next, action)
	if err != nil {
		return err
	}
	res.MonitorCalls++
	e.state = next
	if e.ctrl != nil {
		err = e.ctrl.Observe(action, obs)
	} else {
		err = e.flt.Observe(action, obs)
	}
	if err != nil {
		return fmt.Errorf("sim: %s observe: %w", e.name(), err)
	}
	return nil
}

func (r *Runner) sampleTransition(stream *rng.Stream, s, a int) (int, error) {
	cols, vals := r.rm.POMDP.M.Trans[a].RowSlice(s)
	next, err := stream.CategoricalSparse(cols, vals)
	if err != nil {
		return 0, fmt.Errorf("sim: transition from %s under %s: %w",
			r.rm.POMDP.M.StateName(s), r.rm.POMDP.M.ActionName(a), err)
	}
	return next, nil
}

func (r *Runner) sampleObservation(stream *rng.Stream, s, a int) (int, error) {
	cols, vals := r.rm.POMDP.Obs[a].RowSlice(s)
	obs, err := stream.CategoricalSparse(cols, vals)
	if err != nil {
		return 0, fmt.Errorf("sim: observation in %s under %s: %w",
			r.rm.POMDP.M.StateName(s), r.rm.POMDP.M.ActionName(a), err)
	}
	return obs, nil
}
