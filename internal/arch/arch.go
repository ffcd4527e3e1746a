// Package arch compiles a declarative description of a distributed system —
// hosts, components, load-balanced request paths, ping monitors and
// end-to-end path monitors — into a recovery POMDP (a core.RecoveryModel).
//
// The paper hand-builds its 14-state model of AT&T's EMN deployment
// (Figure 4); this package generalizes that construction so the EMN model
// (internal/emn) and user-defined systems come from the same, tested code
// path:
//
//   - one state per fault: component crashes, component "zombies" (alive to
//     pings but functionally dead), and host crashes, plus the null state;
//   - one action per component restart and host reboot, plus a passive
//     observe action;
//   - observations are the joint outputs of all monitors; ping monitors see
//     crashes but not zombies, path monitors see whatever their randomly
//     routed probe traverses — giving exactly the imprecise, probabilistic
//     localization the paper's controller must cope with;
//   - rewards encode dropped-request cost: requests accrue at each path's
//     traffic share and drop when their route crosses a faulty or
//     recovering component (r = r̄·t_a + r̂ folded per Section 2).
package arch

import (
	"errors"
	"fmt"
	"strings"
)

// ErrInvalidSystem is wrapped by all system-validation failures.
var ErrInvalidSystem = errors.New("arch: invalid system description")

// Host is a machine that can crash and be rebooted.
type Host struct {
	// Name identifies the host.
	Name string
	// RebootDuration is the time a reboot takes, in seconds.
	RebootDuration float64
}

// Component is a software component deployed on a host.
type Component struct {
	// Name identifies the component.
	Name string
	// Host is the name of the host the component runs on.
	Host string
	// RestartDuration is the time a restart takes, in seconds.
	RestartDuration float64
}

// Alternative is one load-balancing choice within a path stage.
type Alternative struct {
	// Component is the component name.
	Component string
	// Weight is the routing probability weight (normalized per stage).
	Weight float64
}

// Stage is one hop of a request path: the request is routed to exactly one
// of the alternatives, chosen with probability proportional to weight.
type Stage []Alternative

// Path is a class of end-to-end requests.
type Path struct {
	// Name identifies the path.
	Name string
	// TrafficShare is the fraction of total system requests on this path;
	// shares must sum to 1 across paths.
	TrafficShare float64
	// Stages are traversed in order; the request fails if any traversed
	// component is unavailable.
	Stages []Stage
}

// ComponentMonitor is a ping-style monitor of a single component: it
// detects crashes (of the component or its host) but is fooled by zombies,
// which still answer pings.
type ComponentMonitor struct {
	// Name identifies the monitor (one bit of the observation vector).
	Name string
	// Target is the monitored component.
	Target string
	// Coverage is the probability of reporting DOWN when the target (or its
	// host) has crashed. Zero means 1.
	Coverage float64
	// FalsePositive is the probability of reporting DOWN when the target is
	// up (or a zombie).
	FalsePositive float64
}

// PathMonitor probes a request path end to end with a synthetic request
// routed like real traffic; it detects any fault its probe traverses —
// including zombies — but cannot localize it.
type PathMonitor struct {
	// Name identifies the monitor (one bit of the observation vector).
	Name string
	// Path is the probed path.
	Path string
	// Coverage is the probability of reporting DOWN given the probe's route
	// crossed a fault. Zero means 1.
	Coverage float64
	// FalsePositive is the probability of reporting DOWN when the probe
	// succeeded.
	FalsePositive float64
}

// System is the declarative description compiled into a recovery POMDP.
type System struct {
	// Name labels the system in diagnostics.
	Name string
	// Hosts, Components, Paths describe the architecture.
	Hosts      []Host
	Components []Component
	Paths      []Path
	// ComponentMonitors and PathMonitors define the observation vector, in
	// order: component monitors first, then path monitors.
	ComponentMonitors []ComponentMonitor
	PathMonitors      []PathMonitor
	// MonitorDuration is the time of one monitor sweep, in seconds; a sweep
	// follows every action.
	MonitorDuration float64
	// MonitorCost is the fixed cost of one monitor sweep (the synthetic
	// probe requests consume system capacity), charged on every action's
	// reward. A positive value ensures no action is free outside Sφ —
	// Property 1(a)'s precondition for the paper's termination guarantee —
	// and is what stops an optimal controller from monitoring a healthy
	// system forever.
	MonitorCost float64
	// Fault classes to model. At least one must be enabled.
	CrashFaults  bool
	ZombieFaults bool
	HostFaults   bool
}

const (
	// NullStateName is the name of the fault-free state.
	NullStateName = "null"
	// ObserveActionName is the name of the passive observe action.
	ObserveActionName = "observe"
)

// Fault kinds used in state naming.
const (
	crashPrefix  = "crash:"
	zombiePrefix = "zombie:"
	hostPrefix   = "hostdown:"
)

// Replicas is the replica model of n hosts: each runs one component, the
// components are the n load-balanced alternatives of one path's single
// stage, and every component has a ping monitor and the path one probe.
// Crash, zombie and host faults are modelled, so the compiled model has
// 3n+1 states. It is the system-size axis of the scaling measurements.
func Replicas(n int) *System {
	sys := &System{
		Name:            fmt.Sprintf("replica-%d", n),
		MonitorDuration: 5,
		MonitorCost:     0.5,
		CrashFaults:     true,
		ZombieFaults:    true,
		HostFaults:      true,
	}
	stage := Stage{}
	for i := 0; i < n; i++ {
		host, comp := fmt.Sprintf("h%d", i), fmt.Sprintf("app%d", i)
		sys.Hosts = append(sys.Hosts, Host{Name: host, RebootDuration: 300})
		sys.Components = append(sys.Components, Component{Name: comp, Host: host, RestartDuration: 60})
		sys.ComponentMonitors = append(sys.ComponentMonitors, ComponentMonitor{Name: "mon" + comp, Target: comp})
		stage = append(stage, Alternative{Component: comp, Weight: 1})
	}
	sys.Paths = []Path{{Name: "p", TrafficShare: 1, Stages: []Stage{stage}}}
	sys.PathMonitors = []PathMonitor{{Name: "probe", Path: "p"}}
	return sys
}

// Validate checks referential integrity, probability ranges, traffic shares
// and durations.
func (s *System) Validate() error {
	if len(s.Hosts) == 0 || len(s.Components) == 0 {
		return fmt.Errorf("%w: need at least one host and one component", ErrInvalidSystem)
	}
	if !s.CrashFaults && !s.ZombieFaults && !s.HostFaults {
		return fmt.Errorf("%w: no fault classes enabled", ErrInvalidSystem)
	}
	if s.MonitorDuration < 0 {
		return fmt.Errorf("%w: negative monitor duration %v", ErrInvalidSystem, s.MonitorDuration)
	}
	if s.MonitorCost < 0 {
		return fmt.Errorf("%w: negative monitor cost %v", ErrInvalidSystem, s.MonitorCost)
	}
	hosts := make(map[string]bool, len(s.Hosts))
	for _, h := range s.Hosts {
		if h.Name == "" {
			return fmt.Errorf("%w: empty host name", ErrInvalidSystem)
		}
		if hosts[h.Name] {
			return fmt.Errorf("%w: duplicate host %q", ErrInvalidSystem, h.Name)
		}
		if h.RebootDuration < 0 {
			return fmt.Errorf("%w: host %q negative reboot duration", ErrInvalidSystem, h.Name)
		}
		hosts[h.Name] = true
	}
	comps := make(map[string]bool, len(s.Components))
	for _, c := range s.Components {
		if c.Name == "" {
			return fmt.Errorf("%w: empty component name", ErrInvalidSystem)
		}
		if comps[c.Name] {
			return fmt.Errorf("%w: duplicate component %q", ErrInvalidSystem, c.Name)
		}
		if !hosts[c.Host] {
			return fmt.Errorf("%w: component %q on unknown host %q", ErrInvalidSystem, c.Name, c.Host)
		}
		if c.RestartDuration < 0 {
			return fmt.Errorf("%w: component %q negative restart duration", ErrInvalidSystem, c.Name)
		}
		comps[c.Name] = true
	}
	var share float64
	paths := make(map[string]bool, len(s.Paths))
	for _, p := range s.Paths {
		if p.Name == "" {
			return fmt.Errorf("%w: empty path name", ErrInvalidSystem)
		}
		if paths[p.Name] {
			return fmt.Errorf("%w: duplicate path %q", ErrInvalidSystem, p.Name)
		}
		paths[p.Name] = true
		if p.TrafficShare < 0 || p.TrafficShare > 1 {
			return fmt.Errorf("%w: path %q traffic share %v outside [0,1]", ErrInvalidSystem, p.Name, p.TrafficShare)
		}
		share += p.TrafficShare
		if len(p.Stages) == 0 {
			return fmt.Errorf("%w: path %q has no stages", ErrInvalidSystem, p.Name)
		}
		for i, st := range p.Stages {
			if len(st) == 0 {
				return fmt.Errorf("%w: path %q stage %d empty", ErrInvalidSystem, p.Name, i)
			}
			var w float64
			for _, alt := range st {
				if !comps[alt.Component] {
					return fmt.Errorf("%w: path %q references unknown component %q", ErrInvalidSystem, p.Name, alt.Component)
				}
				if alt.Weight <= 0 {
					return fmt.Errorf("%w: path %q stage %d non-positive weight", ErrInvalidSystem, p.Name, i)
				}
				w += alt.Weight
			}
			if w <= 0 {
				return fmt.Errorf("%w: path %q stage %d zero total weight", ErrInvalidSystem, p.Name, i)
			}
		}
	}
	if len(s.Paths) > 0 && (share < 1-1e-9 || share > 1+1e-9) {
		return fmt.Errorf("%w: traffic shares sum to %v, want 1", ErrInvalidSystem, share)
	}
	if len(s.ComponentMonitors)+len(s.PathMonitors) == 0 {
		return fmt.Errorf("%w: no monitors", ErrInvalidSystem)
	}
	monNames := make(map[string]bool)
	for _, m := range s.ComponentMonitors {
		if m.Name == "" || monNames[m.Name] {
			return fmt.Errorf("%w: missing or duplicate monitor name %q", ErrInvalidSystem, m.Name)
		}
		monNames[m.Name] = true
		if !comps[m.Target] {
			return fmt.Errorf("%w: monitor %q targets unknown component %q", ErrInvalidSystem, m.Name, m.Target)
		}
		if err := probRange(m.Coverage, m.FalsePositive); err != nil {
			return fmt.Errorf("%w: monitor %q: %v", ErrInvalidSystem, m.Name, err)
		}
	}
	for _, m := range s.PathMonitors {
		if m.Name == "" || monNames[m.Name] {
			return fmt.Errorf("%w: missing or duplicate monitor name %q", ErrInvalidSystem, m.Name)
		}
		monNames[m.Name] = true
		if !paths[m.Path] {
			return fmt.Errorf("%w: monitor %q probes unknown path %q", ErrInvalidSystem, m.Name, m.Path)
		}
		if err := probRange(m.Coverage, m.FalsePositive); err != nil {
			return fmt.Errorf("%w: monitor %q: %v", ErrInvalidSystem, m.Name, err)
		}
	}
	return nil
}

func probRange(coverage, falsePositive float64) error {
	if coverage < 0 || coverage > 1 {
		return fmt.Errorf("coverage %v outside [0,1]", coverage)
	}
	if falsePositive < 0 || falsePositive > 1 {
		return fmt.Errorf("false positive %v outside [0,1]", falsePositive)
	}
	return nil
}

// CrashStateName returns the state name of component c's crash fault.
func CrashStateName(c string) string { return crashPrefix + c }

// ZombieStateName returns the state name of component c's zombie fault.
func ZombieStateName(c string) string { return zombiePrefix + c }

// HostDownStateName returns the state name of host h's crash fault.
func HostDownStateName(h string) string { return hostPrefix + h }

// RestartActionName returns the action name restarting component c.
func RestartActionName(c string) string { return "restart:" + c }

// RebootActionName returns the action name rebooting host h.
func RebootActionName(h string) string { return "reboot:" + h }

// ObservationName renders an observation from the DOWN-reporting monitor
// names, in monitor order; the all-clear observation is "obs:clear".
func ObservationName(down []string) string {
	if len(down) == 0 {
		return "obs:clear"
	}
	return "obs:" + strings.Join(down, "+")
}
