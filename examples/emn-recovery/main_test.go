package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunNarratesRecovery runs the example's episode end to end: zombie:S1,
// seed 1, depth 1 must terminate recovered, and the narration must name a
// recovery action and explain decisions by their bound gap.
func TestRunNarratesRecovery(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fault", "zombie:S1", "-seed", "1", "-depth", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"restart:", "bound gap", "TERMINATE", "recovered:      true"} {
		if !strings.Contains(text, want) {
			t.Errorf("narration lacks %q:\n%s", want, text)
		}
	}
}

func TestRunRejectsUnknownFault(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fault", "nosuch"}, &out); err == nil {
		t.Error("unknown fault state accepted")
	}
}
