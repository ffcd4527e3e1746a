package arch

import (
	"errors"
	"math"
	"testing"

	"bpomdp/internal/pomdp"
)

// tinySystem is a 1-host, 2-component pipeline with one path monitor.
func tinySystem() *System {
	return &System{
		Name:  "tiny",
		Hosts: []Host{{Name: "h1", RebootDuration: 100}},
		Components: []Component{
			{Name: "fe", Host: "h1", RestartDuration: 10},
			{Name: "be", Host: "h1", RestartDuration: 20},
		},
		Paths: []Path{{
			Name:         "main",
			TrafficShare: 1,
			Stages: []Stage{
				{{Component: "fe", Weight: 1}},
				{{Component: "be", Weight: 1}},
			},
		}},
		ComponentMonitors: []ComponentMonitor{
			{Name: "feMon", Target: "fe"},
			{Name: "beMon", Target: "be"},
		},
		PathMonitors:    []PathMonitor{{Name: "pathMon", Path: "main"}},
		MonitorDuration: 1,
		CrashFaults:     true,
		ZombieFaults:    true,
		HostFaults:      true,
	}
}

func TestValidateAcceptsTiny(t *testing.T) {
	if err := tinySystem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*System)
	}{
		{"no hosts", func(s *System) { s.Hosts = nil }},
		{"no components", func(s *System) { s.Components = nil }},
		{"no fault classes", func(s *System) { s.CrashFaults, s.ZombieFaults, s.HostFaults = false, false, false }},
		{"negative monitor duration", func(s *System) { s.MonitorDuration = -1 }},
		{"duplicate host", func(s *System) { s.Hosts = append(s.Hosts, Host{Name: "h1"}) }},
		{"empty host name", func(s *System) { s.Hosts[0].Name = "" }},
		{"negative reboot", func(s *System) { s.Hosts[0].RebootDuration = -1 }},
		{"duplicate component", func(s *System) { s.Components = append(s.Components, Component{Name: "fe", Host: "h1"}) }},
		{"unknown component host", func(s *System) { s.Components[0].Host = "nowhere" }},
		{"negative restart", func(s *System) { s.Components[0].RestartDuration = -5 }},
		{"traffic shares not 1", func(s *System) { s.Paths[0].TrafficShare = 0.5 }},
		{"path without stages", func(s *System) { s.Paths[0].Stages = nil }},
		{"empty stage", func(s *System) { s.Paths[0].Stages = []Stage{{}} }},
		{"unknown path component", func(s *System) { s.Paths[0].Stages[0][0].Component = "ghost" }},
		{"non-positive weight", func(s *System) { s.Paths[0].Stages[0][0].Weight = 0 }},
		{"no monitors", func(s *System) { s.ComponentMonitors, s.PathMonitors = nil, nil }},
		{"duplicate monitor", func(s *System) { s.PathMonitors[0].Name = "feMon" }},
		{"monitor unknown target", func(s *System) { s.ComponentMonitors[0].Target = "ghost" }},
		{"monitor unknown path", func(s *System) { s.PathMonitors[0].Path = "ghost" }},
		{"bad coverage", func(s *System) { s.ComponentMonitors[0].Coverage = 2 }},
		{"bad false positive", func(s *System) { s.PathMonitors[0].FalsePositive = -0.5 }},
		{"duplicate path", func(s *System) { s.Paths = append(s.Paths, s.Paths[0]) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys := tinySystem()
			tt.mutate(sys)
			if err := sys.Validate(); !errors.Is(err, ErrInvalidSystem) {
				t.Errorf("err = %v, want ErrInvalidSystem", err)
			}
		})
	}
}

func TestCompileTinyShape(t *testing.T) {
	c, err := tinySystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	// States: null + 2 crash + 1 host + 2 zombie = 6.
	if got := c.Recovery.POMDP.NumStates(); got != 6 {
		t.Errorf("states = %d, want 6", got)
	}
	// Actions: 2 restarts + 1 reboot + observe = 4.
	if got := c.Recovery.POMDP.NumActions(); got != 4 {
		t.Errorf("actions = %d, want 4", got)
	}
	if len(c.CrashStates) != 2 || len(c.ZombieStates) != 2 || len(c.HostStates) != 1 {
		t.Errorf("fault classes = %d/%d/%d", len(c.CrashStates), len(c.ZombieStates), len(c.HostStates))
	}
	if c.Recovery.POMDP.M.StateName(c.NullState) != NullStateName {
		t.Errorf("null state mislabeled")
	}
	if c.Recovery.POMDP.M.ActionName(c.ObserveAction) != ObserveActionName {
		t.Errorf("observe action mislabeled")
	}
	if c.MonitorDuration != 1 || c.Recovery.MonitorDuration != 1 {
		t.Errorf("monitor duration not propagated")
	}
	if len(c.MonitorNames) != 3 {
		t.Errorf("monitor names = %v", c.MonitorNames)
	}
}

func TestReplicasShape(t *testing.T) {
	for _, n := range []int{4, 16} {
		c, err := Replicas(n).Compile()
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Recovery.POMDP.NumStates(); got != 3*n+1 {
			t.Errorf("replica-%d: states = %d, want %d", n, got, 3*n+1)
		}
		if len(c.ZombieStates) != n || len(c.MonitorNames) != n+1 {
			t.Errorf("replica-%d: %d zombie states, monitors %v", n, len(c.ZombieStates), c.MonitorNames)
		}
	}
}

func TestCompileTinyDynamics(t *testing.T) {
	c, err := tinySystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := c.Recovery.POMDP
	st := c.StateIndex
	ac := c.ActionIndex

	// restart:fe fixes crash:fe and zombie:fe.
	if got := p.M.Trans[ac["restart:fe"]].At(st["crash:fe"], c.NullState); got != 1 {
		t.Errorf("restart:fe from crash:fe -> null = %v", got)
	}
	if got := p.M.Trans[ac["restart:fe"]].At(st["zombie:fe"], c.NullState); got != 1 {
		t.Errorf("restart:fe from zombie:fe -> null = %v", got)
	}
	// restart:fe does not fix crash:be.
	if got := p.M.Trans[ac["restart:fe"]].At(st["crash:be"], st["crash:be"]); got != 1 {
		t.Errorf("restart:fe from crash:be should be a no-op, got %v", got)
	}
	// reboot:h1 fixes everything (both components live on h1).
	for _, s := range []string{"crash:fe", "crash:be", "zombie:fe", "zombie:be", "hostdown:h1"} {
		if got := p.M.Trans[ac["reboot:h1"]].At(st[s], c.NullState); got != 1 {
			t.Errorf("reboot:h1 from %s -> null = %v", s, got)
		}
	}
	// observe is the identity.
	for s := 0; s < p.NumStates(); s++ {
		if got := p.M.Trans[c.ObserveAction].At(s, s); got != 1 {
			t.Errorf("observe from state %d not identity: %v", s, got)
		}
	}
}

func TestCompileTinyRewards(t *testing.T) {
	c, err := tinySystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := c.Recovery.POMDP
	st, ac := c.StateIndex, c.ActionIndex

	// Null is free to observe; restarting fe in null drops all traffic for
	// 10s (single path through fe), then all-clear during the 1s sweep.
	assertReward(t, p, st[NullStateName], c.ObserveAction, 0)
	assertReward(t, p, st[NullStateName], ac["restart:fe"], -10)
	// Observe with crash:fe: traffic fully dropped during the 1s sweep.
	assertReward(t, p, st["crash:fe"], c.ObserveAction, -1)
	// restart:fe with crash:fe: 10s down during restart, healthy sweep after.
	assertReward(t, p, st["crash:fe"], ac["restart:fe"], -10)
	// restart:fe with crash:be: 10s full drop, then still-broken 1s sweep.
	assertReward(t, p, st["crash:be"], ac["restart:fe"], -11)
	// Rate rewards: -1 (full drop) in every fault state, 0 in null.
	for s := 0; s < p.NumStates(); s++ {
		want := -1.0
		if s == c.NullState {
			want = 0
		}
		if got := c.Recovery.RateRewards[s]; math.Abs(got-want) > 1e-12 {
			t.Errorf("rate[%s] = %v, want %v", p.M.StateName(s), got, want)
		}
	}
}

func assertReward(t *testing.T, p *pomdp.POMDP, s, a int, want float64) {
	t.Helper()
	if got := p.M.Reward[a][s]; math.Abs(got-want) > 1e-9 {
		t.Errorf("r(%s, %s) = %v, want %v", p.M.StateName(s), p.M.ActionName(a), got, want)
	}
}

func TestCompileTinyObservations(t *testing.T) {
	c, err := tinySystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := c.Recovery.POMDP
	st := c.StateIndex

	findObs := func(name string) int {
		for o := 0; o < p.NumObservations(); o++ {
			if p.ObsName(o) == name {
				return o
			}
		}
		t.Fatalf("observation %q not found among %d", name, p.NumObservations())
		return -1
	}
	clear := findObs("obs:clear")
	// Null emits all-clear deterministically.
	if got := p.Obs[c.ObserveAction].At(st[NullStateName], clear); got != 1 {
		t.Errorf("q(clear|null) = %v", got)
	}
	// crash:fe: feMon and pathMon down deterministically (single route).
	feDown := findObs("obs:feMon+pathMon")
	if got := p.Obs[c.ObserveAction].At(st["crash:fe"], feDown); got != 1 {
		t.Errorf("q(feMon+pathMon|crash:fe) = %v", got)
	}
	// zombie:fe: pings fine, path probe fails -> only pathMon down.
	zDown := findObs("obs:pathMon")
	if got := p.Obs[c.ObserveAction].At(st["zombie:fe"], zDown); got != 1 {
		t.Errorf("q(pathMon|zombie:fe) = %v", got)
	}
	// hostdown: both pings and the path probe fail.
	hDown := findObs("obs:feMon+beMon+pathMon")
	if got := p.Obs[c.ObserveAction].At(st["hostdown:h1"], hDown); got != 1 {
		t.Errorf("q(all|hostdown:h1) = %v", got)
	}
}

func TestCompileLoadBalancedZombieRouting(t *testing.T) {
	// Two load-balanced replicas: a zombie in one gives the path monitor a
	// 50% detection probability — the paper's key source of imprecision.
	sys := &System{
		Name:  "lb",
		Hosts: []Host{{Name: "h", RebootDuration: 50}},
		Components: []Component{
			{Name: "r1", Host: "h", RestartDuration: 5},
			{Name: "r2", Host: "h", RestartDuration: 5},
		},
		Paths: []Path{{
			Name:         "p",
			TrafficShare: 1,
			Stages:       []Stage{{{Component: "r1", Weight: 0.5}, {Component: "r2", Weight: 0.5}}},
		}},
		PathMonitors:    []PathMonitor{{Name: "pm", Path: "p"}},
		MonitorDuration: 1,
		ZombieFaults:    true,
	}
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := c.Recovery.POMDP
	st := c.StateIndex
	var clear, down int = -1, -1
	for o := 0; o < p.NumObservations(); o++ {
		switch p.ObsName(o) {
		case "obs:clear":
			clear = o
		case "obs:pm":
			down = o
		}
	}
	if clear < 0 || down < 0 {
		t.Fatalf("observations missing")
	}
	for _, s := range []string{"zombie:r1", "zombie:r2"} {
		if got := p.Obs[c.ObserveAction].At(st[s], down); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("q(pm down|%s) = %v, want 0.5", s, got)
		}
		if got := p.Obs[c.ObserveAction].At(st[s], clear); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("q(clear|%s) = %v, want 0.5", s, got)
		}
	}
	// Drop rate with one zombie replica is half the traffic.
	if got := c.Recovery.RateRewards[st["zombie:r1"]]; math.Abs(got-(-0.5)) > 1e-12 {
		t.Errorf("rate(zombie:r1) = %v, want -0.5", got)
	}
}

func TestObservationName(t *testing.T) {
	if got := ObservationName(nil); got != "obs:clear" {
		t.Errorf("empty = %q", got)
	}
	if got := ObservationName([]string{"a", "b"}); got != "obs:a+b" {
		t.Errorf("two = %q", got)
	}
}
