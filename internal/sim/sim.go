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
	// (controller.TierFSC table hits vs controller.TierTree expansions).
	// Under a plain tree controller every decision is a TreeDecision; under
	// a tiered FSC decider TreeDecisions counts the fallbacks.
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

// RunEpisode injects faultState, performs the initial detection sweep, and
// drives ctrl until it terminates. initial is the controller's prior belief
// before the first monitor output (it may be sized for a transformed model
// with extra states appended after the base states; base action and
// observation indices must coincide, which the Section 3.1 transforms
// guarantee).
func (r *Runner) RunEpisode(ctrl controller.Controller, initial pomdp.Belief, faultState int, stream *rng.Stream) (EpisodeResult, error) {
	p := r.rm.POMDP
	if faultState < 0 || faultState >= p.NumStates() {
		return EpisodeResult{}, fmt.Errorf("sim: fault state %d out of range [0,%d)", faultState, p.NumStates())
	}
	res := EpisodeResult{Injected: faultState}
	if err := ctrl.Reset(initial); err != nil {
		return res, fmt.Errorf("sim: reset %s: %w", ctrl.Name(), err)
	}

	state := faultState
	obsAction := r.rm.MonitorAction

	// Decision-stat collection is decided once per episode so the hot loop
	// pays nothing when the controller does not collect (the common case).
	ss, _ := ctrl.(controller.StatsSource)
	collect := ss != nil && ss.StatsEnabled()

	// Initial detection sweep: the monitors fire once so the controller can
	// condition its uniform prior on real outputs (Section 4).
	state, err := r.step(ctrl, &res, state, obsAction, stream)
	if err != nil {
		return res, err
	}

	for res.Steps = 1; res.Steps <= r.maxStep; res.Steps++ {
		if sa, ok := ctrl.(controller.StateAware); ok {
			sa.ObserveTrueState(state)
		}
		t0 := time.Now()
		d, err := ctrl.Decide()
		res.AlgoTime += time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("sim: %s decide: %w", ctrl.Name(), err)
		}
		if collect {
			res.addStats(ss.DecisionStats())
		}
		if d.Terminate {
			res.Recovered = r.isNull[state]
			return res, nil
		}
		if d.Action < 0 || d.Action >= p.NumActions() {
			return res, fmt.Errorf("sim: %s chose invalid action %d", ctrl.Name(), d.Action)
		}
		if d.Action != obsAction {
			res.Actions++
		}
		state, err = r.step(ctrl, &res, state, d.Action, stream)
		if err != nil {
			return res, err
		}
	}
	return res, fmt.Errorf("sim: %s after %d steps: %w", ctrl.Name(), r.maxStep, ErrTimedOut)
}

// stepObserver is the slice of controller.Controller the episode step needs:
// something that absorbs observations and names itself in errors. The
// batched campaign engine drives bare belief filters (the decisions come
// from a shared BatchDecider), so step cannot demand a full Controller.
type stepObserver interface {
	Observe(action, obs int) error
	Name() string
}

// step executes one action on the true system (transition + monitor sweep +
// accounting) and feeds the sampled observation to the controller.
func (r *Runner) step(ctrl stepObserver, res *EpisodeResult, state, action int, stream *rng.Stream) (int, error) {
	p := r.rm.POMDP
	dur := r.rm.Durations[action]
	tMon := r.rm.MonitorDuration

	// Cost is the negated model reward on the true trajectory; the model's
	// r(s,a) already folds in the action duration and the trailing sweep.
	res.Cost += -p.M.Reward[action][state]
	res.RecoveryTime += dur + tMon
	if !r.isNull[state] {
		res.ResidualTime += dur
	}

	next, err := r.sampleTransition(stream, state, action)
	if err != nil {
		return 0, err
	}
	if !r.isNull[next] {
		res.ResidualTime += tMon
	}
	obs, err := r.sampleObservation(stream, next, action)
	if err != nil {
		return 0, err
	}
	res.MonitorCalls++
	if err := ctrl.Observe(action, obs); err != nil {
		return 0, fmt.Errorf("sim: %s observe: %w", ctrl.Name(), err)
	}
	return next, nil
}

// sampleSparse draws an index from a sparse weight row (parallel col/val
// slices), reproducing rng.Stream.Categorical's arithmetic exactly — the
// total, the single Float64 draw, and the accumulation visit the stored
// entries in the same order a dense weight vector would visit its non-zero
// entries — without materializing the dense vector. This keeps the episode
// loop allocation-free while leaving every sampled trajectory bit-for-bit
// identical to the dense implementation it replaced.
func sampleSparse(stream *rng.Stream, cols []int, vals []float64) (int, error) {
	var total float64
	for i, w := range vals {
		if w < 0 {
			return 0, fmt.Errorf("sim: negative weight %v at index %d", w, cols[i])
		}
		total += w
	}
	if total <= 0 {
		return 0, fmt.Errorf("sim: weights sum to %v", total)
	}
	x := stream.Float64() * total
	var acc float64
	last := 0
	for i, w := range vals {
		if w == 0 {
			continue
		}
		acc += w
		last = cols[i]
		if x < acc {
			return cols[i], nil
		}
	}
	// Floating-point slack: fall back to the last positive-weight index.
	return last, nil
}

func (r *Runner) sampleTransition(stream *rng.Stream, s, a int) (int, error) {
	cols, vals := r.rm.POMDP.M.Trans[a].RowSlice(s)
	next, err := sampleSparse(stream, cols, vals)
	if err != nil {
		return 0, fmt.Errorf("sim: transition from %s under %s: %w",
			r.rm.POMDP.M.StateName(s), r.rm.POMDP.M.ActionName(a), err)
	}
	return next, nil
}

func (r *Runner) sampleObservation(stream *rng.Stream, s, a int) (int, error) {
	cols, vals := r.rm.POMDP.Obs[a].RowSlice(s)
	obs, err := sampleSparse(stream, cols, vals)
	if err != nil {
		return 0, fmt.Errorf("sim: observation in %s under %s: %w",
			r.rm.POMDP.M.StateName(s), r.rm.POMDP.M.ActionName(a), err)
	}
	return obs, nil
}
