//go:build !race

package main

import (
	"flag"
	"testing"
)

// TestBatchDecideAllocs: the batched expansion, with and without duplicate
// beliefs to merge, runs from reused scratch, and a warm online region of
// the decision store answers without allocating. Each entry is measured
// over a fixed twenty calls, so its allocs/op counts what one call
// allocates: at the report
// smoke test's 1ms, batch_decide is a single call, and any allocation the
// process makes meanwhile would be counted as that call's. The race
// detector's instrumentation allocates on its own, hence the build tag.
func TestBatchDecideAllocs(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "20x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	_, s, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"batch_decide", "batch_decide_reachable", "batch_decide_table"} {
		measure, ok := s.measure[name]
		if !ok {
			t.Errorf("missing benchmark %q", name)
			continue
		}
		e := measure()
		if e.AllocsPerOp != 0 {
			t.Errorf("%s allocates (%d allocs/op); it must run from reused scratch", name, e.AllocsPerOp)
		}
	}
}
