package main

import (
	"os"
	"path/filepath"
	"testing"

	"bpomdp/internal/modelload"
)

func TestRunTwoServer(t *testing.T) {
	if err := run([]string{"-model", "twoserver", "-top", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEMN(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN bound solves in -short mode")
	}
	if err := run([]string{"-model", "emn"}); err != nil {
		t.Fatal(err)
	}
}

func TestExportAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "two.json")
	if err := run([]string{"-model", "twoserver", "-export", path}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("export missing: %v", err)
	}
	// The exported model round-trips through the generic JSON loader.
	if err := run([]string{"-model", path, "-top", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownModel(t *testing.T) {
	if err := run([]string{"-model", "/no/such/file.json"}); err == nil {
		t.Error("missing model file accepted")
	}
}

func TestLoadModelRejectsNoNullState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	data := `{"states":["s"],"actions":["go"],"observations":["o"],
		"transitions":[{"action":"go","from":"s","to":"s","prob":1}],
		"observationProbs":[{"action":"go","state":"s","obs":"o","prob":1}],
		"rewards":[]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := modelload.Load(path); err == nil {
		t.Error("model without a null state accepted")
	}
}
