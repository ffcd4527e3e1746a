package main

import (
	"encoding/json"
	"flag"
	"testing"
)

// TestRunProducesReport smoke-tests the harness with a tiny time budget: the
// report must carry every required benchmark, campaign throughput figures,
// and the zero-allocation belief-update hot path.
func TestRunProducesReport(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1ms"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	rep, err := run(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "bpomdp.bench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Model.Name != "emn" || rep.Model.States == 0 {
		t.Errorf("model info incomplete: %+v", rep.Model)
	}
	for _, name := range []string{"belief_update", "belief_update_alloc", "gs_sweep", "ra_solve", "campaign_sequential", "campaign_parallel"} {
		e, ok := rep.Bench[name]
		if !ok {
			t.Errorf("missing benchmark %q", name)
			continue
		}
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Errorf("%s: implausible result %+v", name, e)
		}
	}
	if e := rep.Bench["belief_update"]; e.AllocsPerOp != 0 {
		t.Errorf("belief_update allocates (%d allocs/op); the reuse path must be allocation-free", e.AllocsPerOp)
	}
	// The batched-decision entries are present; TestBatchDecideAllocs holds
	// them to zero allocations, without the race detector, whose
	// instrumentation allocates on its own.
	for _, name := range []string{"batch_decide", "batch_decide_reachable", "batch_decide_table"} {
		if _, ok := rep.Bench[name]; !ok {
			t.Errorf("missing benchmark %q", name)
		}
	}
	for _, name := range []string{"campaign_sequential", "campaign_parallel"} {
		e := rep.Bench[name]
		if e.EpisodesPerSec <= 0 || e.Episodes != 4 {
			t.Errorf("%s: campaign fields incomplete: %+v", name, e)
		}
	}
	if rep.Bench["campaign_parallel"].Workers != 2 {
		t.Errorf("parallel workers = %d, want 2", rep.Bench["campaign_parallel"].Workers)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not serializable: %v", err)
	}
}
