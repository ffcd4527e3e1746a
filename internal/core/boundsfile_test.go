package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/controller"
	"bpomdp/internal/linalg"
	"bpomdp/internal/rng"
)

func TestLoadBoundsMissingFileIsNotLoaded(t *testing.T) {
	prep, err := Prepare(twoServerModel(t, 0.9, 0.05), PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	before := prep.Set
	loaded, err := prep.LoadBounds(filepath.Join(t.TempDir(), "bounds.json"))
	if err != nil || loaded {
		t.Fatalf("missing file: loaded=%v err=%v, want false and nil", loaded, err)
	}
	if prep.Set != before {
		t.Error("a missing file replaced the bound set")
	}
}

func TestLoadBoundsRefusesStateMismatch(t *testing.T) {
	prep, err := Prepare(twoServerModel(t, 0.9, 0.05), PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	n := prep.Model.NumStates() + 1
	other, err := bounds.NewSet(n, make(linalg.Vector, n))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bounds.json")
	if err := WriteJSONFile(path, other); err != nil {
		t.Fatal(err)
	}
	before := prep.Set
	loaded, err := prep.LoadBounds(path)
	if err == nil || loaded || !strings.Contains(err.Error(), "states") {
		t.Fatalf("mismatched set: loaded=%v err=%v, want a state-count refusal", loaded, err)
	}
	if prep.Set != before {
		t.Error("a refused file replaced the bound set")
	}

	// A truncated file is refused the same way.
	if err := os.WriteFile(path, []byte(`{"states":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err := prep.LoadBounds(path); err == nil || loaded {
		t.Fatalf("truncated file: loaded=%v err=%v, want an error", loaded, err)
	}
}

func TestSaveBoundsRoundTrips(t *testing.T) {
	model := twoServerModel(t, 0.9, 0.05)
	prep, err := Prepare(model, PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Bootstrap(5, controller.VariantAverage, 1, rng.New(8)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bounds.json")
	// Saving twice replaces the file in place and leaves no temp file behind.
	for i := 0; i < 2; i++ {
		if err := prep.SaveBounds(path); err != nil {
			t.Fatal(err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory after save: %v (err %v), want only bounds.json", entries, err)
	}

	fresh, err := Prepare(model, PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fresh.LoadBounds(path)
	if err != nil || !loaded {
		t.Fatalf("load: loaded=%v err=%v", loaded, err)
	}
	if fresh.Set.Size() != prep.Set.Size() {
		t.Fatalf("loaded %d planes, saved %d", fresh.Set.Size(), prep.Set.Size())
	}
	for i := 0; i < prep.Set.Size(); i++ {
		if !reflect.DeepEqual(fresh.Set.Plane(i), prep.Set.Plane(i)) {
			t.Errorf("plane %d: loaded %v, saved %v", i, fresh.Set.Plane(i), prep.Set.Plane(i))
		}
	}
}
