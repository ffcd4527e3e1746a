package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bpomdp/internal/pomdp"
)

func openStore(t *testing.T, dir string) *DirCheckpointer {
	t.Helper()
	cp, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// onDirStore runs a store conformance body as a subtest named after the
// store kind it exercises, so each result says which store it covered.
func onDirStore(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	t.Run("dir", body)
}

func TestOpenCheckpointStore(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"", "dir"} {
		cp, err := OpenCheckpointStore(kind, filepath.Join(dir, "a"))
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if _, ok := cp.(*DirCheckpointer); !ok {
			t.Errorf("kind %q opened %T", kind, cp)
		}
	}
	for _, kind := range []string{"log", "zebra"} {
		if _, err := OpenCheckpointStore(kind, dir); err == nil {
			t.Errorf("unknown store kind %q accepted", kind)
		}
	}
	if _, err := OpenCheckpointStore("dir", ""); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestDirCheckpointerRefusesLogStoreDir: a directory the removed log store
// wrote keeps its episodes and tombstones in checkpoint.log, which this
// store cannot read. Opening it must fail loudly, naming the file, instead
// of starting empty and dropping them.
func TestDirCheckpointerRefusesLogStoreDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.log"), []byte{0x10, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewDirCheckpointer(dir)
	if err == nil || !strings.Contains(err.Error(), "checkpoint.log") {
		t.Fatalf("NewDirCheckpointer over a log-store dir: err = %v, want one naming checkpoint.log", err)
	}
	if _, err := OpenCheckpointStore("", dir); err == nil {
		t.Error("OpenCheckpointStore accepted a log-store dir")
	}
}

var errSync = errors.New("injected fsync failure")

// TestDirCheckpointerSyncs pins the durability contract: a write fsyncs its
// temp file and then the directory, a delete that removed a file fsyncs the
// directory, and every fsync failure is returned to the caller.
func TestDirCheckpointerSyncs(t *testing.T) {
	dir := t.TempDir()
	cp := openStore(t, dir)
	var (
		synced []string
		fail   string // which fsync fails: "file", "dir" or none
	)
	cp.sync = func(f *os.File) error {
		kind := "file"
		if f.Name() == dir {
			kind = "dir"
		}
		synced = append(synced, kind)
		if kind == fail {
			return errSync
		}
		return nil
	}
	final := DecisionResponse{Action: -1, Terminate: true, Value: 1}
	save := func() error { return cp.Save(EpisodeState{EpisodeID: 1, Belief: []float64{1}}) }
	saveTomb := func() error { return cp.SaveTombstone(TombstoneState{EpisodeID: 1, Final: final}) }
	del := func() error { return cp.Delete(1) }
	delTomb := func() error { return cp.DeleteTombstone(1) }

	for _, op := range []struct {
		name string
		run  func() error
		want []string
	}{
		{"save", save, []string{"file", "dir"}},
		{"save tombstone", saveTomb, []string{"file", "dir"}},
		{"delete", del, []string{"dir"}},
		{"delete tombstone", delTomb, []string{"dir"}},
		{"delete missing", del, nil},
		{"delete missing tombstone", delTomb, nil},
	} {
		synced = nil
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if !reflect.DeepEqual(synced, op.want) {
			t.Errorf("%s fsynced %v, want %v", op.name, synced, op.want)
		}
	}

	// A failed temp-file fsync fails the write and leaves no record or temp
	// file behind.
	fail = "file"
	for name, op := range map[string]func() error{"save": save, "save tombstone": saveTomb} {
		if err := op(); !errors.Is(err, errSync) {
			t.Errorf("%s with failing file fsync: err = %v", name, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("failed writes left %v (err %v)", entries, err)
	}

	// A failed directory fsync fails every write and every delete.
	fail = "dir"
	for _, op := range []struct {
		name string
		run  func() error
	}{{"save", save}, {"save tombstone", saveTomb}, {"delete", del}, {"delete tombstone", delTomb}} {
		// In order: each delete must find the record its save left behind.
		if err := op.run(); !errors.Is(err, errSync) {
			t.Errorf("%s with failing dir fsync: err = %v", op.name, err)
		}
	}
}

func TestCheckpointStoreRoundTrip(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		cp := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
		a := EpisodeState{EpisodeID: 2, Controller: "bounded(depth=1)", Steps: 1,
			Belief: []float64{0.5, 0.5}, History: []Step{{Action: 2, Observation: 1}}}
		b := EpisodeState{EpisodeID: 1, ClientKey: "k", Steps: 0, Belief: []float64{1, 0}}
		for _, st := range []EpisodeState{a, b} {
			if err := cp.Save(st); err != nil {
				t.Fatal(err)
			}
		}
		got, corrupt, err := cp.LoadAll()
		if err != nil || len(corrupt) != 0 {
			t.Fatalf("LoadAll err=%v corrupt=%+v", err, corrupt)
		}
		if len(got) != 2 || got[0].EpisodeID != 1 || got[1].EpisodeID != 2 {
			t.Fatalf("LoadAll = %+v", got)
		}
		if !reflect.DeepEqual(got[1], a) {
			t.Errorf("round-trip mismatch: %+v vs %+v", got[1], a)
		}
		// Overwrite is atomic and idempotent.
		a.Steps = 2
		a.History = append(a.History, Step{Action: 0, Observation: 0})
		if err := cp.Save(a); err != nil {
			t.Fatal(err)
		}
		got, _, err = cp.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[1].Steps != 2 {
			t.Fatalf("after overwrite: %+v", got)
		}
		if err := cp.Delete(2); err != nil {
			t.Fatal(err)
		}
		if err := cp.Delete(2); err != nil {
			t.Errorf("double delete: %v", err)
		}
		got, _, err = cp.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].EpisodeID != 1 {
			t.Fatalf("after delete: %+v", got)
		}
	})
}

// TestCheckpointStoreReopen: a second store over the same directory (a
// restart) sees exactly what the first persisted.
func TestCheckpointStoreReopen(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		dir := t.TempDir()
		cp := openStore(t, dir)
		for id := uint64(1); id <= 3; id++ {
			if err := cp.Save(EpisodeState{EpisodeID: id, Belief: []float64{1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cp.Delete(2); err != nil {
			t.Fatal(err)
		}
		got, corrupt, err := openStore(t, dir).LoadAll()
		if err != nil || len(corrupt) != 0 {
			t.Fatalf("reopen LoadAll err=%v corrupt=%+v", err, corrupt)
		}
		if len(got) != 2 || got[0].EpisodeID != 1 || got[1].EpisodeID != 3 {
			t.Fatalf("reopen state %+v", got)
		}
	})
}

// TestDirCheckpointerQuarantinesCorrupt is the truncated-JSON regression
// test: one bad file must not block the others, must be renamed to .corrupt
// (never silently rewritten), and must be reported in the corrupt list.
func TestDirCheckpointerQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	cp, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(EpisodeState{EpisodeID: 7, Belief: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	// A write torn mid-JSON (truncated) and a decodable-but-invalid snapshot.
	if err := os.WriteFile(filepath.Join(dir, "episode-8.json"), []byte(`{"episodeId":8,"steps":1,"hist`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "episode-9.json"), []byte(`{"episodeId":9,"steps":3,"history":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, corrupt, err := cp.LoadAll()
	if err != nil {
		t.Fatalf("store-level error for per-file corruption: %v", err)
	}
	if len(got) != 1 || got[0].EpisodeID != 7 {
		t.Errorf("good checkpoint lost: %+v", got)
	}
	if len(corrupt) != 2 {
		t.Fatalf("corrupt = %+v", corrupt)
	}
	ids := map[uint64]bool{}
	for _, c := range corrupt {
		ids[c.EpisodeID] = true
		if c.Err == nil || c.Name == "" {
			t.Errorf("corrupt entry missing detail: %+v", c)
		}
	}
	if !ids[8] || !ids[9] {
		t.Errorf("corrupt episodes %v", ids)
	}
	for _, id := range []int{8, 9} {
		name := fmt.Sprintf("episode-%d.json", id)
		if _, err := os.Stat(filepath.Join(dir, name+".corrupt")); err != nil {
			t.Errorf("quarantine file for %d: %v", id, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("original %s still present (err %v)", name, err)
		}
	}
	// Quarantined files no longer appear on the next load, and a fresh save
	// of the same episode does not disturb the preserved evidence.
	if err := cp.Save(EpisodeState{EpisodeID: 8, Belief: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, corrupt, err = cp.LoadAll()
	if err != nil || len(corrupt) != 0 {
		t.Fatalf("second LoadAll err=%v corrupt=%+v", err, corrupt)
	}
	if len(got) != 2 {
		t.Errorf("after requarantine: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "episode-8.json.corrupt")); err != nil {
		t.Errorf("quarantined evidence gone: %v", err)
	}
}

// TestCrashRestartResume kills a server mid-episode and verifies a new
// server over the same checkpoint store resumes the episode with the same
// step count and belief.
func TestCrashRestartResume(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		prep := testPrepared(t)
		dir := t.TempDir()
		cp := openStore(t, dir)
		cfg := Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: cp}
		srv1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs1 := httptest.NewServer(srv1)

		resp, err := http.Post(hs1.URL+"/v1/episodes", "application/json", strings.NewReader(`{"clientKey":"ck-1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		// One decision + observation so the checkpoint has history.
		resp, err = http.Get(hs1.URL + "/v1/episodes/1/decision")
		if err != nil {
			t.Fatal(err)
		}
		var d DecisionResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d.Terminate {
			t.Fatal("terminated on the first decision")
		}
		sc := pomdp.NewScratch(prep.Model)
		succs := prep.Model.Successors(sc, pomdp.PointBelief(prep.Model.NumStates(), 0), d.Action)
		body := fmt.Sprintf(`{"action":%d,"observation":%d,"stepIndex":0}`, d.Action, succs[0].Obs)
		or, err := http.Post(hs1.URL+"/v1/episodes/1/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		or.Body.Close()
		if or.StatusCode != http.StatusOK {
			t.Fatalf("observation status %d", or.StatusCode)
		}
		var beforeBelief BeliefResponse
		resp, err = http.Get(hs1.URL + "/v1/episodes/1/belief")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&beforeBelief); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		// "Crash": the first server vanishes without Close (no final
		// snapshot needed — every observation already checkpointed
		// write-ahead). The store handle is deliberately left unclosed.
		hs1.Close()

		cfg.Checkpointer = openStore(t, dir)
		srv2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := srv2.Restored()
		if rep.Resumed != 1 || len(rep.Failed) != 0 || rep.LoadErr != nil {
			t.Fatalf("restore report %+v", rep)
		}
		hs2 := httptest.NewServer(srv2)
		defer hs2.Close()

		// Same id, same step count, same belief, and the idempotency key
		// still deduplicates.
		resp, err = http.Get(hs2.URL + "/v1/episodes/1")
		if err != nil {
			t.Fatal(err)
		}
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !st.Open || st.Steps != 1 {
			t.Errorf("resumed status %+v", st)
		}
		var afterBelief BeliefResponse
		resp, err = http.Get(hs2.URL + "/v1/episodes/1/belief")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&afterBelief); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !reflect.DeepEqual(beforeBelief, afterBelief) {
			t.Errorf("belief changed across restart: %v vs %v", beforeBelief, afterBelief)
		}
		resp, err = http.Post(hs2.URL+"/v1/episodes", "application/json", strings.NewReader(`{"clientKey":"ck-1"}`))
		if err != nil {
			t.Fatal(err)
		}
		var again StartResponse
		if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || again.EpisodeID != 1 {
			t.Errorf("clientKey lost across restart: status %d id %d", resp.StatusCode, again.EpisodeID)
		}
	})
}

// TestReplayDeterminism: the same history replayed through a fresh
// controller yields the same belief and a byte-identical decision — the
// property the restore path depends on.
func TestReplayDeterminism(t *testing.T) {
	prep := testPrepared(t)
	// Histories are generated from action sequences (restart-a=0,
	// restart-b=1, observe=2); the observation at each step is the first
	// possible successor under the current belief, so every history is
	// legal by construction.
	cases := []struct {
		name    string
		actions []int
	}{
		{"empty", nil},
		{"one-observe", []int{2}},
		{"observe-then-restart", []int{2, 0}},
		{"longer", []int{2, 0, 2, 1}},
	}
	buildHistory := func(actions []int) []Step {
		t.Helper()
		ctrl, initial, err := boundedFactory(prep)()
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Reset(initial); err != nil {
			t.Fatal(err)
		}
		sc := pomdp.NewScratch(prep.Model)
		var hist []Step
		for _, a := range actions {
			succs := prep.Model.Successors(sc, ctrl.Belief(), a)
			if len(succs) == 0 {
				t.Fatalf("no successors for action %d", a)
			}
			obs := succs[0].Obs
			if err := ctrl.Observe(a, obs); err != nil {
				t.Fatal(err)
			}
			hist = append(hist, Step{Action: a, Observation: obs})
		}
		return hist
	}
	run := func(history []Step) (pomdp.Belief, []byte) {
		t.Helper()
		ctrl, initial, err := boundedFactory(prep)()
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Reset(initial); err != nil {
			t.Fatal(err)
		}
		for i, step := range history {
			if err := ctrl.Observe(step.Action, step.Observation); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		d, err := ctrl.Decide()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(DecisionResponse{Action: d.Action, Terminate: d.Terminate, Value: d.Value})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl.Belief(), data
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			history := buildHistory(tc.actions)
			b1, d1 := run(history)
			b2, d2 := run(history)
			if !reflect.DeepEqual(b1, b2) {
				t.Errorf("beliefs diverge: %v vs %v", b1, b2)
			}
			if string(d1) != string(d2) {
				t.Errorf("decisions diverge: %s vs %s", d1, d2)
			}
		})
	}
}

func TestRestoreSkipsBadCheckpoints(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		prep := testPrepared(t)
		cp := openStore(t, t.TempDir())
		// A checkpoint whose history is impossible under the model: replay
		// must fail, the episode must be reported, and the server must
		// still come up.
		bad := EpisodeState{EpisodeID: 5, Steps: 1, History: []Step{{Action: 2, Observation: 40}}}
		if err := cp.Save(bad); err != nil {
			t.Fatal(err)
		}
		good := EpisodeState{EpisodeID: 9, Steps: 0}
		if err := cp.Save(good); err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), Checkpointer: cp})
		if err != nil {
			t.Fatal(err)
		}
		rep := srv.Restored()
		if rep.Resumed != 1 {
			t.Errorf("resumed %d, want 1", rep.Resumed)
		}
		if len(rep.Failed) != 1 || rep.Failed[0].EpisodeID != 5 {
			t.Errorf("failed %+v", rep.Failed)
		}
		if srv.OpenEpisodes() != 1 {
			t.Errorf("open episodes = %d", srv.OpenEpisodes())
		}
		// New episodes must not collide with restored ids.
		hs := httptest.NewServer(srv)
		defer hs.Close()
		resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var out StartResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.EpisodeID <= 9 {
			t.Errorf("new episode id %d collides with restored range", out.EpisodeID)
		}
	})
}

// TestCheckpointStoreTombstoneRoundTrip is the tombstone conformance suite:
// the store must round-trip tombstone records, keep the episode and
// tombstone namespaces independent, tolerate double deletes, and surface
// the same set after a reopen.
func TestCheckpointStoreTombstoneRoundTrip(t *testing.T) {
	onDirStore(t, func(t *testing.T) {
		final := DecisionResponse{Action: -1, Terminate: true, Value: 3.25}
		dir := filepath.Join(t.TempDir(), "ckpt")
		cp := openStore(t, dir)
		a := TombstoneState{EpisodeID: 2, ClientKey: "ka", Steps: 4, Final: final, TerminatedAtUnixNano: 100}
		b := TombstoneState{EpisodeID: 1, ClientKey: "kb", Steps: 0, Final: final, TerminatedAtUnixNano: 200}
		for _, ts := range []TombstoneState{a, b} {
			if err := cp.SaveTombstone(ts); err != nil {
				t.Fatal(err)
			}
		}
		// An invalid tombstone (non-terminal final) must be refused.
		if err := cp.SaveTombstone(TombstoneState{EpisodeID: 9, Final: DecisionResponse{Action: 1}}); err == nil {
			t.Error("non-terminal tombstone accepted")
		}
		got, corrupt, err := cp.LoadTombstones()
		if err != nil || len(corrupt) != 0 {
			t.Fatalf("LoadTombstones err=%v corrupt=%+v", err, corrupt)
		}
		if len(got) != 2 || got[0].EpisodeID != 1 || got[1].EpisodeID != 2 {
			t.Fatalf("LoadTombstones = %+v", got)
		}
		if !reflect.DeepEqual(got[1], a) {
			t.Errorf("round-trip mismatch: %+v vs %+v", got[1], a)
		}

		// Episodes and tombstones are independent namespaces: the same id
		// may be live in both, and deleting in one never touches the other.
		if err := cp.Save(EpisodeState{EpisodeID: 2, ClientKey: "ka", Belief: []float64{1}}); err != nil {
			t.Fatal(err)
		}
		if err := cp.Delete(2); err != nil {
			t.Fatal(err)
		}
		if got, _, _ = cp.LoadTombstones(); len(got) != 2 {
			t.Fatalf("episode delete removed a tombstone: %+v", got)
		}
		if err := cp.Save(EpisodeState{EpisodeID: 1, Belief: []float64{1}}); err != nil {
			t.Fatal(err)
		}
		if err := cp.DeleteTombstone(1); err != nil {
			t.Fatal(err)
		}
		if err := cp.DeleteTombstone(1); err != nil {
			t.Errorf("double tombstone delete: %v", err)
		}
		if states, _, _ := cp.LoadAll(); len(states) != 1 || states[0].EpisodeID != 1 {
			t.Fatalf("tombstone delete removed an episode: %+v", states)
		}
		if got, _, _ = cp.LoadTombstones(); len(got) != 1 || got[0].EpisodeID != 2 {
			t.Fatalf("after tombstone delete: %+v", got)
		}

		// A reopen (restart) sees exactly what was persisted.
		got, corrupt, err = openStore(t, dir).LoadTombstones()
		if err != nil || len(corrupt) != 0 {
			t.Fatalf("reopen LoadTombstones err=%v corrupt=%+v", err, corrupt)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], a) {
			t.Fatalf("reopen tombstones %+v, want [%+v]", got, a)
		}
	})
}
