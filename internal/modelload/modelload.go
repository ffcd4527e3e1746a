// Package modelload is the command-line tools' offline front end. Load
// resolves a model name: the built-in "emn" and "twoserver" models, or a
// path to a model JSON file (as produced by modelinfo -export /
// pomdp.MarshalModel). Flags declares the flags the tools share and runs
// the offline phase they share: load the model, prepare its RA-Bound, and
// load or bootstrap the bound set.
package modelload

import (
	"fmt"
	"os"

	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/linalg"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
)

// Load resolves name to a recovery model. For JSON files, Sφ defaults to
// the state named "null", durations to one second per action, the monitor
// action to index 0, and cost rates to -1 outside Sφ — enough for
// inspection; systems with real semantics should be built with
// internal/arch.
func Load(name string) (*core.RecoveryModel, error) {
	switch name {
	case "emn":
		c, err := emn.Build(emn.Config{})
		if err != nil {
			return nil, err
		}
		return c.Recovery, nil
	case "twoserver":
		ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
		if err != nil {
			return nil, err
		}
		return &core.RecoveryModel{
			POMDP:           ts.Model,
			NullStates:      ts.NullStates,
			RateRewards:     ts.RateRewards,
			Durations:       []float64{1, 1, 0},
			MonitorAction:   ts.ActionObserve,
			MonitorDuration: 0.1,
		}, nil
	default:
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		p, err := pomdp.UnmarshalModel(data)
		if err != nil {
			return nil, err
		}
		null := -1
		for s := 0; s < p.NumStates(); s++ {
			if p.M.StateName(s) == "null" {
				null = s
			}
		}
		if null < 0 {
			return nil, fmt.Errorf("modelload: model %s has no state named %q", name, "null")
		}
		durations := make([]float64, p.NumActions())
		for a := range durations {
			durations[a] = 1
		}
		rates := linalg.NewVector(p.NumStates())
		for s := 0; s < p.NumStates(); s++ {
			if s != null {
				rates[s] = -1
			}
		}
		return &core.RecoveryModel{
			POMDP:           p,
			NullStates:      []int{null},
			RateRewards:     rates,
			Durations:       durations,
			MonitorAction:   0,
			MonitorDuration: 1,
		}, nil
	}
}
