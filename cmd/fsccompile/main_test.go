package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunBootstrapThenLoad: a bootstrapped run saves its set to a missing
// -bounds file; a run that loads that file skips the bootstrap, leaves the
// file alone, and compiles the identical artifact.
func TestRunBootstrapThenLoad(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "bounds.json")
	first := filepath.Join(dir, "first.fsc")
	second := filepath.Join(dir, "second.fsc")
	base := []string{"-model", "twoserver", "-top", "10", "-bootstrap-depth", "1", "-bounds", bounds}

	if err := run(append(base, "-bootstrap", "3", "-out", first)); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(bounds)
	if err != nil {
		t.Fatalf("bootstrapped set not saved to -bounds: %v", err)
	}

	if err := run(append(base, "-out", second)); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(bounds); err != nil || !bytes.Equal(after, saved) {
		t.Errorf("-bounds file changed by a run that loaded it (read error %v)", err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(second); err != nil || !bytes.Equal(a, b) {
		t.Errorf("artifact compiled from the loaded set differs from the bootstrapped run's (read error %v)", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"states":2,"planes":[[0,0]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.fsc")
	for _, c := range []struct {
		name, want string
		args       []string
	}{
		{"bound set over the wrong number of states", "over 2 states, model has 4", []string{"-model", "twoserver", "-bounds", wrong}},
		{"unreadable model path", "no such file", []string{"-model", "/no/such/model.json"}},
		{"unknown flag", "not defined", []string{"-bogus-flag"}},
	} {
		err := run(append(c.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a failed run wrote -out (stat error %v)", err)
	}
}
