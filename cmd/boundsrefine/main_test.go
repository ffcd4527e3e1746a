package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunBootstrapThenLoad: a bootstrapped run writes -out and -upper-out;
// a run that loads its refined set from -bounds leaves the file alone and
// skips the bootstrap, so -bootstrap does not change what it writes.
func TestRunBootstrapThenLoad(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "refined.json")
	upper := filepath.Join(dir, "upper.json")
	base := []string{"-model", "twoserver", "-top", "10", "-bootstrap-depth", "1"}

	if err := run(append(base, "-bootstrap", "3", "-out", out, "-upper-out", upper)); err != nil {
		t.Fatal(err)
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

// TestRunRefusesMissingBounds: boundsrefine never writes -bounds, so a
// -bounds file that does not exist (a typo) is refused with an error
// naming it, instead of refining a freshly bootstrapped set; neither
// -bounds nor -out is written.
func TestRunRefusesMissingBounds(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	out := filepath.Join(dir, "out.json")
	err := run([]string{"-model", "twoserver", "-top", "10", "-bootstrap-depth", "1", "-bounds", missing, "-out", out})
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("error %v, want one naming %s", err, missing)
	}
	for _, p := range []string{missing, out} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a refused run wrote %s (stat error %v)", p, err)
		}
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
