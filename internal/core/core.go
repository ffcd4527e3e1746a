// Package core assembles the paper's recovery framework end to end: it
// couples a POMDP with recovery semantics (null-fault states, cost rates,
// action durations), verifies the paper's Conditions 1 and 2 and diagnoses
// Property 1(a), applies the regime-appropriate convergence transform
// (Section 3.1), computes the RA-Bound, and produces bootstrapped bounded
// controllers with provable termination.
//
// The typical pipeline is:
//
//	rm := &core.RecoveryModel{...}
//	prep, _ := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 6 * 3600})
//	prep.Bootstrap(10, stream)          // optional: tighten the bound
//	ctrl, _ := prep.NewController(...)  // drive recovery
package core

import (
	"errors"
	"fmt"
	"sync"

	"bpomdp/internal/bounds"
	"bpomdp/internal/controller"
	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// ErrCondition1 marks violations of the paper's Condition 1: recovery models
// must have a non-empty set of null-fault states Sφ reachable from every
// state.
var ErrCondition1 = errors.New("core: Condition 1 violated (Sφ empty or unreachable)")

// ErrCondition2 marks violations of Condition 2: all single-step rewards
// must be non-positive.
var ErrCondition2 = errors.New("core: Condition 2 violated (positive reward)")

// RecoveryModel couples an untransformed POMDP with the recovery semantics
// the framework needs.
type RecoveryModel struct {
	// POMDP is the recovery model before any convergence transform.
	POMDP *pomdp.POMDP
	// NullStates is Sφ, the states in which the system is free of activated
	// faults.
	NullStates []int
	// RateRewards[s] = r̄(s) ≤ 0 is the reward (cost) rate accrued per unit
	// time in state s; it prices the terminate action via r(s,a_T)=r̄(s)·t_op.
	RateRewards linalg.Vector
	// Durations[a] = t_a is the execution time of action a in seconds, used
	// by simulators and reporting (rewards in POMDP already fold durations
	// in via r = r̄·t_a + r̂).
	Durations []float64
	// MonitorAction is the index of the passive observe action, used to
	// sample the initial monitor output of an episode.
	MonitorAction int
	// MonitorDuration is the time of one monitor sweep in seconds; a sweep
	// follows every action. Rewards in POMDP already include it; simulators
	// use it for the time metrics.
	MonitorDuration float64
}

// Validate checks structural well-formedness plus the paper's Condition 1
// (null states exist and are reachable from everywhere) and Condition 2
// (non-positive rewards).
func (m *RecoveryModel) Validate() error {
	if m.POMDP == nil {
		return fmt.Errorf("core: nil POMDP")
	}
	if err := m.POMDP.Validate(); err != nil {
		return err
	}
	n := m.POMDP.NumStates()
	if len(m.NullStates) == 0 {
		return fmt.Errorf("%w: no null states given", ErrCondition1)
	}
	for _, s := range m.NullStates {
		if s < 0 || s >= n {
			return fmt.Errorf("core: null state %d out of range [0,%d)", s, n)
		}
	}
	reach := m.POMDP.M.CanReach(m.NullStates)
	for s, ok := range reach {
		if !ok {
			return fmt.Errorf("%w: state %s cannot reach Sφ", ErrCondition1, m.POMDP.M.StateName(s))
		}
	}
	if !m.POMDP.M.AllRewardsNonPositive() {
		return fmt.Errorf("%w", ErrCondition2)
	}
	if len(m.RateRewards) != n {
		return fmt.Errorf("core: rate rewards length %d, want %d", len(m.RateRewards), n)
	}
	for s, r := range m.RateRewards {
		if r > 0 {
			return fmt.Errorf("%w: rate reward %v at state %s", ErrCondition2, r, m.POMDP.M.StateName(s))
		}
	}
	if len(m.Durations) != m.POMDP.NumActions() {
		return fmt.Errorf("core: durations length %d, want %d actions", len(m.Durations), m.POMDP.NumActions())
	}
	for a, d := range m.Durations {
		if d < 0 {
			return fmt.Errorf("core: negative duration %v for action %s", d, m.POMDP.M.ActionName(a))
		}
	}
	if m.MonitorAction < 0 || m.MonitorAction >= m.POMDP.NumActions() {
		return fmt.Errorf("core: monitor action %d out of range [0,%d)", m.MonitorAction, m.POMDP.NumActions())
	}
	if m.MonitorDuration < 0 {
		return fmt.Errorf("core: negative monitor duration %v", m.MonitorDuration)
	}
	return nil
}

// FaultStates returns all states outside Sφ, in index order.
func (m *RecoveryModel) FaultStates() []int {
	isNull := make(map[int]bool, len(m.NullStates))
	for _, s := range m.NullStates {
		isNull[s] = true
	}
	out := make([]int, 0, m.POMDP.NumStates()-len(isNull))
	for s := 0; s < m.POMDP.NumStates(); s++ {
		if !isNull[s] {
			out = append(out, s)
		}
	}
	return out
}

// FreeAction identifies a zero-reward (state, action) pair outside Sφ — a
// violation of Property 1(a)'s "no free actions" precondition.
type FreeAction struct {
	State, Action int
}

// FreeActions lists the Property 1(a) violations of the model. The bounded
// controller tolerates them via its terminate tie-break, but models without
// free actions carry the paper's unconditional termination guarantee.
func (m *RecoveryModel) FreeActions() []FreeAction {
	isNull := make(map[int]bool, len(m.NullStates))
	for _, s := range m.NullStates {
		isNull[s] = true
	}
	var out []FreeAction
	for a := 0; a < m.POMDP.NumActions(); a++ {
		for s := 0; s < m.POMDP.NumStates(); s++ {
			if !isNull[s] && m.POMDP.M.Reward[a][s] == 0 {
				out = append(out, FreeAction{State: s, Action: a})
			}
		}
	}
	return out
}

// HasRecoveryNotification reports whether the model's observation function
// certifies recovery (Section 3.1's classification).
func (m *RecoveryModel) HasRecoveryNotification() (bool, error) {
	return pomdp.HasRecoveryNotification(m.POMDP, m.NullStates)
}

// Regime is the convergence regime of Section 3.1.
type Regime int

const (
	// RegimeNotification covers systems with recovery notification: Sφ is
	// made absorbing and the controller stops on certainty of Sφ.
	RegimeNotification Regime = iota + 1
	// RegimeTermination covers systems without recovery notification: the
	// terminate action a_T and state s_T are added, priced by t_op.
	RegimeTermination
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeNotification:
		return "recovery-notification"
	case RegimeTermination:
		return "termination"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// PrepareOptions configures Prepare.
type PrepareOptions struct {
	// OperatorResponseTime is t_op (same time unit as Durations); required
	// when the termination regime applies.
	OperatorResponseTime float64
	// ForceRegime overrides automatic regime detection when non-zero.
	ForceRegime Regime
	// Bounds tunes the RA-Bound solve and subsequent updates.
	Bounds bounds.Options
	// BoundCapacity, when positive, caps the hyperplane set with least-used
	// eviction (Section 4.3's finite-storage strategy).
	BoundCapacity int
}

// Prepared is a recovery model readied for control: transformed for
// convergence, with its RA-Bound computed.
type Prepared struct {
	// Source is the original recovery model.
	Source *RecoveryModel
	// Model is the transformed POMDP the controller runs on.
	Model *pomdp.POMDP
	// Regime records which Section 3.1 transform was applied.
	Regime Regime
	// Terminate holds the a_T/s_T indices (termination regime only;
	// Terminate.Action is -1 under recovery notification).
	Terminate pomdp.TerminationIndices
	// RA is the RA-Bound hyperplane V_m⁻.
	RA linalg.Vector
	// Set is the improvable bound set, seeded with RA.
	Set *bounds.Set
	// Upper is the sawtooth upper bound paired with Set by RefineBounds; nil
	// until refinement runs (the tree and FSC consume only Set, so serving
	// never depends on it).
	Upper *bounds.UpperBound

	opts PrepareOptions

	storesMu sync.Mutex
	stores   map[storeKey]*controller.FSC
}

// storeKey names one shared decision store: the tree's decisions are a
// pure function of the belief only over one bound set at one depth.
type storeKey struct {
	set   *bounds.Set
	depth int
}

// Prepare validates the recovery model, picks (or honours) the regime,
// applies the matching transform, and computes the RA-Bound.
func Prepare(m *RecoveryModel, opts PrepareOptions) (*Prepared, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	regime := opts.ForceRegime
	if regime == 0 {
		hasNotif, err := m.HasRecoveryNotification()
		if err != nil {
			return nil, err
		}
		if hasNotif {
			regime = RegimeNotification
		} else {
			regime = RegimeTermination
		}
	}

	prep := &Prepared{
		Source:    m,
		Regime:    regime,
		Terminate: pomdp.TerminationIndices{State: -1, Action: -1, Observation: -1},
		opts:      opts,
	}
	switch regime {
	case RegimeNotification:
		mod, err := pomdp.AbsorbNullStates(m.POMDP, m.NullStates)
		if err != nil {
			return nil, err
		}
		prep.Model = mod
	case RegimeTermination:
		if opts.OperatorResponseTime <= 0 {
			return nil, fmt.Errorf("core: termination regime requires a positive operator response time (t_op)")
		}
		mod, idx, err := pomdp.WithTermination(m.POMDP, pomdp.TerminationConfig{
			NullStates:           m.NullStates,
			OperatorResponseTime: opts.OperatorResponseTime,
			RateReward:           m.RateRewards,
		})
		if err != nil {
			return nil, err
		}
		prep.Model = mod
		prep.Terminate = idx
	default:
		return nil, fmt.Errorf("core: unknown regime %v", regime)
	}

	ra, err := bounds.RA(prep.Model, opts.Bounds)
	if err != nil {
		return nil, fmt.Errorf("core: RA-Bound: %w", err)
	}
	prep.RA = ra
	set, err := bounds.NewSet(prep.Model.NumStates(), ra)
	if err != nil {
		return nil, err
	}
	if opts.BoundCapacity > 0 {
		set.SetCapacity(opts.BoundCapacity)
	}
	prep.Set = set
	return prep, nil
}

// Bootstrap runs n bound-improvement episodes with the given variant and
// tree depth before real faults occur (Section 4.1), returning the
// per-iteration Figure 5 series.
func (p *Prepared) Bootstrap(n int, variant controller.BootstrapVariant, depth int, stream *rng.Stream) ([]controller.IterationStats, error) {
	b, err := p.NewBootstrapper(variant, depth, stream)
	if err != nil {
		return nil, err
	}
	return b.Run(n)
}

// NewBootstrapper builds a bootstrapper sharing this Prepared's bound set.
func (p *Prepared) NewBootstrapper(variant controller.BootstrapVariant, depth int, stream *rng.Stream) (*controller.Bootstrapper, error) {
	return controller.NewBootstrapper(p.Model, p.Set, controller.BootstrapConfig{
		Variant:                  variant,
		Depth:                    depth,
		Beta:                     p.opts.Bounds.Beta,
		FaultStates:              p.Source.FaultStates(),
		NullStates:               p.Source.NullStates,
		TerminateAction:          p.Terminate.Action,
		InitialObservationAction: p.Source.MonitorAction,
	}, stream)
}

// ControllerConfig trims the bounded-controller knobs exposed at this level.
type ControllerConfig struct {
	// Depth is the Max-Avg expansion depth (default 1, as in the paper's
	// evaluation).
	Depth int
	// ImproveOnline refines the bound at beliefs visited during real
	// recovery.
	ImproveOnline bool
	// CheckConsistency verifies Property 1(b) at every visited belief.
	CheckConsistency bool
	// CollectStats records per-decision DecisionStats (bound gap, belief
	// entropy, expansion work) for structured tracing and campaign
	// aggregation. Off by default; the decision path is unchanged when off.
	CollectStats bool
}

// BoundedConfig is the bounded-controller configuration NewController
// builds its controllers with. controller.NewBounded over p.Model and p.Set
// with it gives the same controller without a decision store — the bare
// tree expansion, as benchmarks time it.
func (p *Prepared) BoundedConfig(cfg ControllerConfig) controller.BoundedConfig {
	return controller.BoundedConfig{
		Depth:            cfg.Depth,
		Beta:             p.opts.Bounds.Beta,
		TerminateAction:  p.Terminate.Action,
		NullStates:       p.Source.NullStates,
		ImproveOnline:    cfg.ImproveOnline,
		CheckConsistency: cfg.CheckConsistency,
		CollectStats:     cfg.CollectStats,
	}
}

// NewController builds the bounded recovery controller over the prepared
// model, sharing (and with ImproveOnline refining) the prepared bound set.
// It is NewFSCDecider over DecisionStore(cfg.Depth): every controller it
// builds over the same set and depth shares one store with no compiled
// nodes, whose online region answers recurring beliefs exactly as the tree
// would.
func (p *Prepared) NewController(cfg ControllerConfig) (*controller.Bounded, error) {
	return p.NewFSCDecider(p.DecisionStore(cfg.Depth), cfg, 0)
}

// DecisionStore returns the decision store with no compiled nodes that
// NewController shares among its controllers over the current p.Set at the
// given depth (0 means 1, as for controllers), creating it on first use.
func (p *Prepared) DecisionStore(depth int) *controller.FSC {
	if depth == 0 {
		depth = 1
	}
	k := storeKey{set: p.Set, depth: depth}
	p.storesMu.Lock()
	defer p.storesMu.Unlock()
	f := p.stores[k]
	if f == nil {
		if p.stores == nil {
			p.stores = make(map[storeKey]*controller.FSC)
		}
		f = controller.NewFSC(p.Model, p.BoundedConfig(ControllerConfig{Depth: depth}))
		p.stores[k] = f
	}
	return f
}

// FSCConfig trims the FSC-compiler knobs exposed at this level.
type FSCConfig struct {
	// Depth is the Max-Avg expansion depth decisions are compiled with
	// (default 1). The artifact records it, and NewFSCDecider refuses a
	// controller of another depth.
	Depth int
	// MaxNodes caps the compiled table; zero means the compiler default.
	MaxNodes int
	// Improve runs an incremental bound update at every compiled belief
	// (the compiling tree's ImproveOnline; it mutates the prepared set, see
	// controller.CompileFSC).
	Improve bool
}

// CompileFSC compiles a finite-state controller over the prepared model
// from the episode initial belief, deciding every node through a bounded
// controller over the current (typically bootstrapped) bound set. That
// controller has no decision store: nothing reads what compiling decides
// besides the artifact, so it leaves DecisionStore's online region empty.
func (p *Prepared) CompileFSC(cfg FSCConfig) (*controller.FSC, error) {
	initial, err := p.InitialBelief()
	if err != nil {
		return nil, err
	}
	tree, err := controller.NewBounded(p.Model, p.Set, p.BoundedConfig(ControllerConfig{Depth: cfg.Depth, ImproveOnline: cfg.Improve}))
	if err != nil {
		return nil, err
	}
	return controller.CompileFSC(tree, []pomdp.Belief{initial}, controller.FSCCompileConfig{
		InitialObservationAction: p.Source.MonitorAction,
		MaxNodes:                 cfg.MaxNodes,
	})
}

// NewFSCDecider builds a bounded controller over the prepared model and
// bound set with the decision store fsc attached (see
// controller.Bounded.UseFSC): beliefs its compiled nodes cover within
// gapThreshold are answered from them, the rest by its online region and
// the tree. It fails when fsc was built for another model, depth, discount
// or terminate action, or already serves another bound set.
func (p *Prepared) NewFSCDecider(fsc *controller.FSC, cfg ControllerConfig, gapThreshold float64) (*controller.Bounded, error) {
	b, err := controller.NewBounded(p.Model, p.Set, p.BoundedConfig(cfg))
	if err != nil {
		return nil, err
	}
	if err := b.UseFSC(fsc, gapThreshold); err != nil {
		return nil, err
	}
	return b, nil
}

// InitialBelief constructs the episode-start belief the paper's controller
// uses: all faults (and the null state) equally likely over the original
// state space, with no mass on s_T.
func (p *Prepared) InitialBelief() (pomdp.Belief, error) {
	n := p.Model.NumStates()
	orig := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if s != p.Terminate.State {
			orig = append(orig, s)
		}
	}
	return pomdp.UniformOver(n, orig)
}
