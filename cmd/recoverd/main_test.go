package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/core"
	"bpomdp/internal/modelload"
)

// cancelledCtx returns an already-cancelled context so run() takes the
// graceful-shutdown path immediately after setup.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestRunBootstrapsAndSavesBounds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bounds.json")
	err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0",
		"-model", "twoserver",
		"-top", "10",
		"-bootstrap", "3",
		"-bootstrap-depth", "1",
		"-bounds", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("bounds not saved: %v", err)
	}
	var set bounds.Set
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}
	if set.NumStates() != 4 || set.Size() < 1 {
		t.Errorf("saved set: %d states, %d planes", set.NumStates(), set.Size())
	}

	// Second run loads the saved set instead of bootstrapping.
	if err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10",
		"-bootstrap", "0", "-bounds", path,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(cancelledCtx(), []string{"-bogus-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(cancelledCtx(), []string{"-model", "/no/such.json"}); err == nil {
		t.Error("missing model accepted")
	}
	if err := run(cancelledCtx(), []string{"-model", "twoserver", "-top", "-5"}); err == nil {
		t.Error("negative t_op accepted")
	}
}

func TestRunRejectsMismatchedBounds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bounds.json")
	if err := os.WriteFile(path, []byte(`{"states":2,"planes":[[0,0]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10", "-bounds", path,
	})
	if err == nil {
		t.Error("mismatched bound dimensions accepted")
	}
}

// TestRunRefusesMismatchedFSC: an FSC artifact compiled at depth 1 serves
// at -depth 1, and startup fails with an error naming the depths at
// -depth 2, instead of serving depth-1 compiled decisions beside depth-2
// tree decisions.
func TestRunRefusesMismatchedFSC(t *testing.T) {
	rm, err := modelload.Load("twoserver")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "twoserver.fsc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsc.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	args := []string{"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10", "-bootstrap", "0", "-fsc", path}
	if err := run(cancelledCtx(), append(args, "-depth", "1")); err != nil {
		t.Fatalf("matching depth: %v", err)
	}
	err = run(cancelledCtx(), append(args, "-depth", "2"))
	if err == nil || !strings.Contains(err.Error(), "fsc decides at depth 1, controller at depth 2") {
		t.Errorf("depth-1 artifact at -depth 2: error %v, want one naming both depths", err)
	}
}

func TestRunWithCheckpointDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-model", "twoserver",
		"-top", "10",
		"-bootstrap", "3",
		"-bootstrap-depth", "1",
		"-checkpoint-dir", dir,
		"-episode-ttl", "1m",
		"-read-header-timeout", "1s",
		"-read-timeout", "2s",
		"-write-timeout", "2s",
		"-idle-timeout", "5s",
		"-max-body-bytes", "4096",
	}
	if err := run(cancelledCtx(), args); err != nil {
		t.Fatal(err)
	}
	// The checkpointer creates the directory eagerly so a bad path fails at
	// startup, not at the first snapshot.
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("checkpoint dir not created: %v", err)
	}
	// A second run over the same (empty) directory restores cleanly.
	if err := run(cancelledCtx(), args); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10",
		"-bootstrap", "3", "-bootstrap-depth", "1",
		"-checkpoint-dir", filepath.Join(blocker, "not-a-dir"),
	}); err == nil {
		t.Error("unusable checkpoint dir accepted")
	}
}

// TestRunRefusesLogStoreCheckpointDir: a checkpoint directory left by the
// removed append-only log store holds its episodes and tombstones in
// checkpoint.log, which the directory store cannot read. Startup must fail
// and name the file rather than serve from an empty store, in single-node
// mode and for a fleet member's own directory.
func TestRunRefusesLogStoreCheckpointDir(t *testing.T) {
	root := filepath.Join(t.TempDir(), "ckpt")
	base := []string{"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10",
		"-bootstrap", "0", "-checkpoint-dir", root}
	for name, c := range map[string]struct {
		logDir string
		args   []string
	}{
		"single": {root, base},
		"fleet": {filepath.Join(root, "n1"), append(base[:len(base):len(base)],
			"-fleet-self", "n1", "-fleet-peers", "n1=127.0.0.1:7947,n2=127.0.0.1:7948")},
	} {
		if err := os.MkdirAll(c.logDir, 0o755); err != nil {
			t.Fatal(err)
		}
		logFile := filepath.Join(c.logDir, "checkpoint.log")
		if err := os.WriteFile(logFile, []byte{0x10, 0, 0, 0}, 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(cancelledCtx(), c.args)
		if err == nil || !strings.Contains(err.Error(), "checkpoint.log") {
			t.Errorf("%s: run over a log-store dir: err = %v, want one naming checkpoint.log", name, err)
		}
		if err := os.Remove(logFile); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunFleetFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-model", "twoserver",
		"-top", "10",
		"-bootstrap", "2",
		"-bootstrap-depth", "1",
		"-checkpoint-dir", dir,
		"-fleet-self", "n1",
		"-fleet-peers", "n1=127.0.0.1:7947,n2=127.0.0.1:7948",
	}
	if err := run(cancelledCtx(), args); err != nil {
		t.Fatal(err)
	}
	// Fleet mode nests this member's store under the shared root.
	if fi, err := os.Stat(filepath.Join(dir, "n1")); err != nil || !fi.IsDir() {
		t.Errorf("per-member store dir not created: %v", err)
	}

	base := []string{"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10", "-bootstrap", "0"}
	if err := run(cancelledCtx(), append(base,
		"-checkpoint-dir", dir, "-fleet-self", "n1")); err == nil {
		t.Error("-fleet-self without -fleet-peers accepted")
	}
	if err := run(cancelledCtx(), append(base,
		"-checkpoint-dir", dir, "-fleet-peers", "n1=x,n2=y")); err == nil {
		t.Error("-fleet-peers without -fleet-self accepted")
	}
	if err := run(cancelledCtx(), append(base,
		"-fleet-self", "n1", "-fleet-peers", "n1=x,n2=y")); err == nil {
		t.Error("fleet mode without -checkpoint-dir accepted")
	}
	if err := run(cancelledCtx(), append(base,
		"-checkpoint-dir", dir, "-fleet-self", "ghost", "-fleet-peers", "n1=x,n2=y")); err == nil {
		t.Error("self outside the peer list accepted")
	}
	if err := run(cancelledCtx(), append(base,
		"-checkpoint-dir", dir, "-fleet-self", "n1", "-fleet-peers", "n1=x,n1=y")); err == nil {
		t.Error("duplicate peer ids accepted")
	}
}

func TestRunObservabilityFlags(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "node.spans")
	if err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0",
		"-model", "twoserver",
		"-top", "10",
		"-bootstrap", "2",
		"-bootstrap-depth", "1",
		"-pprof", "127.0.0.1:0",
		"-expvar",
		"-log-requests",
		"-span-trace", spans,
	}); err != nil {
		t.Fatal(err)
	}
	// The span trace file is created eagerly so a bad path fails at startup.
	if _, err := os.Stat(spans); err != nil {
		t.Errorf("span trace file not created: %v", err)
	}

	// expvar is served on the pprof/metrics listeners; without either it is
	// an error.
	if err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10",
		"-bootstrap", "0", "-expvar",
	}); err == nil {
		t.Error("-expvar without -pprof accepted")
	}
	// ... but a -metrics-addr listener alone satisfies it.
	if err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10",
		"-bootstrap", "0", "-expvar", "-metrics-addr", "127.0.0.1:0",
	}); err != nil {
		t.Errorf("-expvar with -metrics-addr rejected: %v", err)
	}

	// An unwritable span trace path fails at startup, not at the first
	// decision.
	if err := run(cancelledCtx(), []string{
		"-addr", "127.0.0.1:0", "-model", "twoserver", "-top", "10",
		"-bootstrap", "0", "-span-trace", filepath.Join(spans, "not-a-dir", "s.jsonl"),
	}); err == nil {
		t.Error("unwritable span trace path accepted")
	}
}

// TestRunRejectsShortTombstoneTTL: a tombstone TTL below the advertised
// client retry budget would let a terminal decision expire while its client
// is still retrying — the daemon must refuse to start that way.
func TestRunRejectsShortTombstoneTTL(t *testing.T) {
	err := run(cancelledCtx(), []string{
		"-model", "twoserver",
		"-tombstone-ttl", "5s", "-client-retry-budget", "30s",
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("tombstone TTL below retry budget accepted (err=%v)", err)
	}
	// The -episode-ttl fallback (when -tombstone-ttl is zeroed) is held to
	// the same floor.
	err = run(cancelledCtx(), []string{
		"-model", "twoserver",
		"-tombstone-ttl", "0", "-episode-ttl", "5s", "-client-retry-budget", "30s",
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("fallback TTL below retry budget accepted (err=%v)", err)
	}
	// Matching them is fine.
	if err := run(cancelledCtx(), []string{
		"-model", "twoserver",
		"-tombstone-ttl", "30s", "-client-retry-budget", "30s",
	}); err != nil {
		t.Errorf("TTL == budget rejected: %v", err)
	}
}
