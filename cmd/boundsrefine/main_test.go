package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunBootstrapThenLoad: a bootstrapped run writes -out and -upper-out
// but never -bounds; a run that loads its refined set from -bounds leaves
// the file alone and skips the bootstrap, so -bootstrap does not change
// what it writes.
func TestRunBootstrapThenLoad(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "bounds.json")
	out := filepath.Join(dir, "refined.json")
	upper := filepath.Join(dir, "upper.json")
	base := []string{"-model", "twoserver", "-top", "10", "-bootstrap-depth", "1"}

	if err := run(append(base, "-bootstrap", "3", "-bounds", bounds, "-out", out, "-upper-out", upper)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bounds); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("boundsrefine wrote -bounds (stat error %v)", err)
	}
	for _, p := range []string{out, upper} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("output missing: %v", err)
		}
	}

	refined, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(dir, "again.json")
	if err := run(append(base, "-bounds", out, "-out", again)); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(out); err != nil || !bytes.Equal(after, refined) {
		t.Errorf("-bounds file changed by a run that loaded it (read error %v)", err)
	}
	noBoot := filepath.Join(dir, "no-bootstrap.json")
	if err := run(append(base, "-bounds", out, "-bootstrap", "0", "-out", noBoot)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(noBoot); err != nil || !bytes.Equal(a, b) {
		t.Errorf("-bootstrap 10 changed the refinement of a loaded set (read error %v)", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"states":2,"planes":[[0,0]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
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
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a failed run wrote -out (stat error %v)", err)
	}
}
