package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bpomdp/internal/arch"
	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/fleet"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
)

// The served policy is recoverd's defaults, fixed so that -seed moves only
// the workload: bootstrap 10 episodes at depth 2 with seed 1, HSVI
// refinement to a 1e-6 root gap, online depth 1, and an FSC serving only
// nodes whose compile-time gap is at most 1e-6. Online improvement stays
// off: it mutates the shared bound set in request order, so no two runs
// would serve the same decisions.
const (
	bootstrapEpisodes = 10
	bootstrapDepth    = 2
	bootstrapSeed     = 1
	refineGap         = 1e-6
	onlineDepth       = 1
	fscGapThreshold   = 1e-6
)

// Server settings copied from recoverd's flag defaults.
const (
	episodeTTL        = 30 * time.Minute
	tombstoneTTL      = 10 * time.Minute
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// fleetIDs names the fleet3 members; n3 is the one taken down for the
// forced adoption.
var fleetIDs = []string{"n1", "n2", "n3"}

// policy is the offline half of the stack: the prepared EMN model with its
// bootstrapped and refined bound set, the compiled FSC (nil when the
// workload serves the tree alone), and the campaign runner that simulates
// the faulty system.
type policy struct {
	compiled *arch.Compiled
	prep     *core.Prepared
	fsc      *controller.FSC
	runner   *sim.Runner
	initial  pomdp.Belief
}

// setupTimes splits one set-up by stage.
type setupTimes struct {
	build, bootstrap, refine, fscCompile, server time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.build + t.bootstrap + t.refine + t.fscCompile + t.server
}

// buildPolicy runs the offline pipeline recoverd runs before serving,
// timing each stage into st.
func buildPolicy(withFSC bool, st *setupTimes) (*policy, error) {
	t0 := time.Now()
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		return nil, err
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(compiled.Recovery, 0)
	if err != nil {
		return nil, err
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := prep.Bootstrap(bootstrapEpisodes, controller.VariantAverage, bootstrapDepth, rng.New(bootstrapSeed)); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	t2 := time.Now()
	if _, err := prep.RefineBounds(core.RefineConfig{Epsilon: refineGap}); err != nil {
		return nil, fmt.Errorf("refine bounds: %w", err)
	}
	t3 := time.Now()
	p := &policy{compiled: compiled, prep: prep, runner: runner, initial: initial}
	if withFSC {
		if p.fsc, err = prep.CompileFSC(core.FSCConfig{Depth: onlineDepth}); err != nil {
			return nil, fmt.Errorf("compile fsc: %w", err)
		}
	}
	t4 := time.Now()
	st.build, st.bootstrap, st.refine, st.fscCompile = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return p, nil
}

// decider is what both of recoverd's decision engines are: the tiered
// FSC-then-tree decider and the bare Max-Avg tree.
type decider interface {
	controller.Controller
	controller.BatchDecider
}

// newDecider builds one decision engine the way recoverd's factories do.
func (p *policy) newDecider() (decider, error) {
	cfg := core.ControllerConfig{Depth: onlineDepth}
	if p.fsc != nil {
		return p.prep.NewFSCDecider(p.fsc, cfg, fscGapThreshold)
	}
	return p.prep.NewController(cfg)
}

// faults are the paper's Table 1 injections.
func (p *policy) faults() []int { return p.compiled.ZombieStates }

// member is one served recoverd: its server, listener and store.
type member struct {
	id     string
	srv    *server.Server
	reg    *obs.Registry
	view   *fleet.Membership
	ln     net.Listener
	hs     *http.Server
	url    string
	done   chan struct{} // closed once hs.Serve has returned
	killed bool
}

// stack is one running instance of a workload's serving side.
type stack struct {
	wl      *workload
	pol     *policy
	dir     string // checkpoint root, removed by close
	members []*member
	tr      *tracer // nil on an untraced stack
	base    *http.Transport
}

// newStack opens the workload's stores, builds its servers over pol and
// starts them on loopback listeners, timing the whole into st.server. A
// non-nil tr wraps every layer boundary for the traced decomposition.
func newStack(wl *workload, pol *policy, workDir string, tr *tracer, st *setupTimes) (*stack, error) {
	t0 := time.Now()
	s := &stack{wl: wl, pol: pol, tr: tr}
	if err := s.start(workDir); err != nil {
		_ = s.close() // the start error is the one to report
		return nil, err
	}
	st.server = time.Since(t0)
	return s, nil
}

func (s *stack) start(workDir string) error {
	ids := []string{"recoverd"}
	if s.wl.fleet {
		ids = fleetIDs
	}
	if s.wl.durable {
		dir, err := os.MkdirTemp(workDir, "stores-")
		if err != nil {
			return fmt.Errorf("store root: %w", err)
		}
		s.dir = dir
	}
	// Listeners come first so that fleet members know every address.
	var peers []fleet.Member
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		m := &member{id: id, ln: ln, url: "http://" + ln.Addr().String(), reg: obs.NewRegistry()}
		s.members = append(s.members, m)
		peers = append(peers, fleet.Member{ID: id, Addr: m.url})
	}
	for _, m := range s.members {
		if err := s.startMember(m, peers); err != nil {
			return fmt.Errorf("member %s: %w", m.id, err)
		}
	}
	s.base = http.DefaultTransport.(*http.Transport).Clone()
	if s.tr != nil {
		s.tr.countDials(s.base)
	}
	return nil
}

func (s *stack) storeFor(id string) (server.Checkpointer, error) {
	return server.OpenCheckpointStore("", filepath.Join(s.dir, id))
}

func (s *stack) startMember(m *member, peers []fleet.Member) error {
	cfg := server.Config{
		Model:             s.pol.prep.Model,
		EpisodeTTL:        episodeTTL,
		TombstoneTTL:      tombstoneTTL,
		ClientRetryBudget: client.DefaultRetryBudget,
		Metrics:           m.reg,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			d, err := s.pol.newDecider()
			if err != nil {
				return nil, nil, err
			}
			initial, err := s.pol.prep.InitialBelief()
			return s.tr.wrapDecider(d), initial, err
		},
		NewBatchDecider: func() (controller.BatchDecider, error) {
			d, err := s.pol.newDecider()
			if err != nil {
				return nil, err
			}
			return s.tr.wrapDecider(d), nil
		},
	}
	var idBase uint64
	if s.wl.fleet {
		view, err := fleet.NewMembership(peers, 0)
		if err != nil {
			return err
		}
		idx, _ := view.Index(m.id)
		idBase = server.EpisodeIDBaseFor(idx)
		m.view = view
		cfg.Fleet = &server.FleetConfig{Self: m.id, Membership: view, StoreFor: s.storeFor}
	}
	if s.wl.durable {
		store, err := s.storeFor(m.id)
		if err != nil {
			return err
		}
		cfg.Checkpointer = s.tr.wrapStore(store, m.id, idBase)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	m.srv = srv
	m.hs = &http.Server{
		Handler:           s.tr.wrapHandler(srv, m.id),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		_ = m.hs.Serve(m.ln)
	}()
	return nil
}

// kill drops a member's listener and live connections without any
// shutdown hook, the way a crashed daemon disappears.
func (m *member) kill() {
	m.killed = true
	_ = m.hs.Close()
	<-m.done
}

// close stops every member, waits for its serve loop, closes its server
// and removes the checkpoint root. It is safe on a partly started stack.
func (s *stack) close() error {
	// Drop idle client connections first: a connection the transport dialed
	// but never used counts as new, not idle, and would hold Shutdown for
	// five seconds. Members replicate through the default transport.
	if s.base != nil {
		s.base.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	var errs []error
	for _, m := range s.members {
		switch {
		case m.hs == nil:
			_ = m.ln.Close()
		case !m.killed:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := m.hs.Shutdown(ctx); err != nil {
				errs = append(errs, fmt.Errorf("shutdown %s: %w", m.id, err))
			}
			cancel()
			<-m.done
		}
		if m.srv != nil {
			if err := m.srv.Close(); err != nil {
				errs = append(errs, fmt.Errorf("close %s: %w", m.id, err))
			}
		}
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// gather sums one series of the members' registries.
func (s *stack) gather(series string) float64 {
	var total float64
	for _, m := range s.members {
		total += m.reg.Gather()[series]
	}
	return total
}

// fscCounts reads the shared FSC table's hit and fallback counters.
func (p *policy) fscCounts() (hits, fallbacks uint64) {
	if p.fsc == nil {
		return 0, 0
	}
	return p.fsc.Hits(), p.fsc.Fallbacks()
}
