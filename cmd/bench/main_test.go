package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"runtime"
	"strings"
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

	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "bpomdp.bench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Model.Name != "emn" || rep.Model.States == 0 {
		t.Errorf("model info incomplete: %+v", rep.Model)
	}
	campaigns := []string{
		"campaign_store", "campaign_tree", "campaign_w1", "campaign_wN",
		"campaign_fsc_tier", "campaign_tiered_seed", "campaign_tiered_refined",
	}
	for _, name := range append([]string{
		"belief_update", "belief_update_alloc", "gs_sweep", "ra_solve",
		"tree_depth1", "tree_depth2", "tree_depth3",
		"prepare_replica16", "prepare_replica64", "refine_replica16", "decide_replica16", "decide_replica64",
	}, campaigns...) {
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
	// Every campaign entry runs the one campaign length.
	for name, e := range rep.Bench {
		if strings.HasPrefix(name, "campaign_") && (e.EpisodesPerSec <= 0 || e.Episodes != 1024) {
			t.Errorf("%s: campaign fields incomplete or not over 1,024 episodes: %+v", name, e)
		}
	}
	if got, want := rep.Bench["campaign_wN"].Workers, max(2, runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("campaign_wN workers = %d, want %d", got, want)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not serializable: %v", err)
	}
}

// TestServeAnswersRequests: a -serve worker names its entries once set up,
// then answers each requested entry with its measurement, in order, and a
// name it has no entry for with null.
func TestServeAnswersRequests(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1ms"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	var out bytes.Buffer
	if err := serve(strings.NewReader("gs_sweep\nno_such_entry\ncampaign_store\n"), &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	var names []string
	if err := dec.Decode(&names); err != nil || len(names) != 25 {
		t.Fatalf("ready line names %d entries (%v), want 25", len(names), err)
	}
	var sweep, missing, store *Entry
	for _, e := range []**Entry{&sweep, &missing, &store} {
		if err := dec.Decode(e); err != nil {
			t.Fatal(err)
		}
	}
	if sweep == nil || sweep.Iterations <= 0 || sweep.Episodes != 0 {
		t.Errorf("gs_sweep answer %+v", sweep)
	}
	if missing != nil {
		t.Errorf("unknown entry answered %+v, want null", missing)
	}
	if store == nil || store.Episodes != campaignEpisodes {
		t.Errorf("campaign_store answer %+v", store)
	}
}
