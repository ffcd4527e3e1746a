package server

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Step is one applied (action, observation) pair of an episode's history.
type Step struct {
	Action      int `json:"action"`
	Observation int `json:"observation"`
}

// EpisodeState is the serializable snapshot of one open episode: everything
// a restarted daemon needs to rebuild the episode's controller by replaying
// its history through a fresh controller from the configured factory.
type EpisodeState struct {
	// EpisodeID is the server-assigned episode id.
	EpisodeID uint64 `json:"episodeId"`
	// Controller is the controller's Name() at snapshot time (informational;
	// restore always uses the configured factory).
	Controller string `json:"controller"`
	// ClientKey is the client-generated idempotency key the episode was
	// started with, if any, so duplicate start requests keep deduplicating
	// across a restart. In fleet mode it doubles as the episode's routing
	// key: survivors claim a dead member's episodes by hashing this key.
	ClientKey string `json:"clientKey,omitempty"`
	// Steps is the number of observations applied so far.
	Steps int `json:"steps"`
	// Belief is the controller's belief after the recorded history; restore
	// verifies the replayed belief against it to detect model drift between
	// the checkpoint and the restarted daemon.
	Belief []float64 `json:"belief"`
	// History is the full (action, observation) sequence applied since Reset.
	History []Step `json:"history"`
}

// DecodeEpisodeState decodes and validates one stored snapshot. It is the
// trust boundary for everything read back from a checkpoint store: a
// snapshot that decodes but violates the episode invariants (id zero, step
// count disagreeing with the history, non-finite or negative belief mass,
// negative action/observation indices) is rejected here rather than fed to
// a controller replay.
func DecodeEpisodeState(data []byte) (EpisodeState, error) {
	var st EpisodeState
	if err := json.Unmarshal(data, &st); err != nil {
		return EpisodeState{}, err
	}
	if err := st.validate(); err != nil {
		return EpisodeState{}, err
	}
	return st, nil
}

func (st *EpisodeState) validate() error {
	if st.EpisodeID == 0 {
		return fmt.Errorf("episode id 0")
	}
	if st.Steps < 0 {
		return fmt.Errorf("negative step count %d", st.Steps)
	}
	if st.Steps != len(st.History) {
		return fmt.Errorf("step count %d disagrees with history length %d", st.Steps, len(st.History))
	}
	for i, p := range st.Belief {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("belief[%d] = %v", i, p)
		}
	}
	for i, s := range st.History {
		if s.Action < 0 || s.Observation < 0 {
			return fmt.Errorf("history[%d] = (%d, %d)", i, s.Action, s.Observation)
		}
	}
	return nil
}

// TombstoneState is the durable record of a terminated episode's final
// decision: everything needed to replay the terminal response to a client
// that lost it in transit, even after the owning process (or the whole
// member) is gone. It is written to the checkpoint store *before* the
// episode's own record is deleted, and replicated to the episode key's ring
// successor, so no single crash window can lose an already-earned terminal
// decision.
type TombstoneState struct {
	// EpisodeID is the terminated episode's id.
	EpisodeID uint64 `json:"episodeId"`
	// ClientKey is the episode's routing/idempotency key, if any; a retried
	// start with this key must return EpisodeID, not a fresh episode.
	ClientKey string `json:"clientKey,omitempty"`
	// Steps is the episode's observation count at termination (the client's
	// dedupe cursor when it retries the final exchange).
	Steps int `json:"steps"`
	// Final is the terminal decision, replayed byte-identically.
	Final DecisionResponse `json:"final"`
	// TerminatedAtUnixNano is the owner's clock at termination; TTL eviction
	// counts from here so retention survives restarts and adoption.
	TerminatedAtUnixNano int64 `json:"terminatedAtUnixNano"`
}

// DecodeTombstoneState decodes and validates one stored tombstone — the
// trust boundary for tombstones read back from a store or received over the
// fleet replication endpoint.
func DecodeTombstoneState(data []byte) (TombstoneState, error) {
	var ts TombstoneState
	if err := json.Unmarshal(data, &ts); err != nil {
		return TombstoneState{}, err
	}
	if err := ts.validate(); err != nil {
		return TombstoneState{}, err
	}
	return ts, nil
}

func (ts *TombstoneState) validate() error {
	if ts.EpisodeID == 0 {
		return fmt.Errorf("tombstone episode id 0")
	}
	if ts.Steps < 0 {
		return fmt.Errorf("tombstone negative step count %d", ts.Steps)
	}
	if !ts.Final.Terminate {
		return fmt.Errorf("tombstone for a non-terminal decision")
	}
	if math.IsNaN(ts.Final.Value) || math.IsInf(ts.Final.Value, 0) {
		return fmt.Errorf("tombstone value %v", ts.Final.Value)
	}
	if ts.TerminatedAtUnixNano < 0 {
		return fmt.Errorf("tombstone terminated-at %d", ts.TerminatedAtUnixNano)
	}
	return nil
}

// CorruptCheckpoint describes one stored snapshot that could not be decoded.
// The store quarantines such entries (renames the file aside) so one bad
// snapshot never blocks the rest and is never silently rewritten.
type CorruptCheckpoint struct {
	// Name is the bad entry's file name.
	Name string
	// EpisodeID is the episode the entry claimed to belong to, 0 when even
	// that could not be determined.
	EpisodeID uint64
	// Err is the decode or validation failure.
	Err error
}

// Checkpointer persists episode snapshots across daemon restarts. Save is
// called after every state-changing request (write-ahead with respect to the
// response), Delete when an episode terminates or is abandoned, and LoadAll
// once at startup. LoadAll returns the good snapshots sorted by episode id
// alongside any corrupt entries it quarantined; the error is reserved for
// store-level failures (an unreadable directory), never for individual bad
// snapshots.
//
// Tombstones live in a separate namespace from episode snapshots:
// SaveTombstone is called on termination before Delete (write-ahead, so a
// crash between the two leaves the final decision recoverable),
// DeleteTombstone when the tombstone's TTL expires, and LoadTombstones at
// startup, on adoption, and on rare cache misses. Deleting an episode never
// touches its tombstone and vice versa.
//
// Implementations must tolerate concurrent Save/Delete calls for *different*
// episodes; calls for the same episode are serialized by the server.
type Checkpointer interface {
	Save(st EpisodeState) error
	Delete(id uint64) error
	LoadAll() ([]EpisodeState, []CorruptCheckpoint, error)
	SaveTombstone(ts TombstoneState) error
	DeleteTombstone(id uint64) error
	LoadTombstones() ([]TombstoneState, []CorruptCheckpoint, error)
}

// OpenCheckpointStore opens the checkpoint store over dir. The directory
// store is the only kind: kind must be "" or "dir", and anything else is an
// error.
func OpenCheckpointStore(kind, dir string) (Checkpointer, error) {
	if kind != "" && kind != "dir" {
		return nil, fmt.Errorf("server: unknown checkpoint store %q (want dir)", kind)
	}
	return NewDirCheckpointer(dir)
}

// legacyLogFile is the single file the append-only log store, since
// removed, kept its records in.
const legacyLogFile = "checkpoint.log"

// DirCheckpointer stores one JSON file per episode in a directory
// (episode-<id>.json), plus one sibling file per terminal tombstone
// (tombstone-<id>.json). Each write goes to a temp file that is fsynced,
// renamed over the record, and made durable by an fsync of the directory;
// each delete fsyncs the directory too. So a crash or power loss mid-write
// never corrupts an existing checkpoint, and an acknowledged write survives
// both. One file per record also lets several processes share the
// directory: every LoadAll and LoadTombstones reads the files afresh, so a
// member sees the deletes an adopting survivor made through its own handle.
type DirCheckpointer struct {
	dir  string
	sync func(*os.File) error // (*os.File).Sync; replaced in tests
}

var _ Checkpointer = (*DirCheckpointer)(nil)

// NewDirCheckpointer creates dir if needed and returns a checkpointer over
// it. It refuses a directory holding a checkpoint.log: that file's episodes
// and tombstones are invisible to this store, so opening it would silently
// start empty and drop them.
func NewDirCheckpointer(dir string) (*DirCheckpointer, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: checkpoint dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyLogFile)); err == nil {
		return nil, fmt.Errorf("server: checkpoint dir %s holds %s from the removed log store; "+
			"its open episodes and tombstones would be lost, so drain it with the release that wrote it or move it aside", dir, legacyLogFile)
	}
	return &DirCheckpointer{dir: dir, sync: (*os.File).Sync}, nil
}

func (c *DirCheckpointer) path(id uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("episode-%d.json", id))
}

func (c *DirCheckpointer) tombPath(id uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("tombstone-%d.json", id))
}

// writeAtomic writes data to dst via a temp file + rename. The temp file is
// fsynced before the rename and the directory after it, so once writeAtomic
// returns nil the new content is durable.
func (c *DirCheckpointer) writeAtomic(dst string, tmpPattern string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, tmpPattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = c.sync(tmp)
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, dst)
	}
	if werr != nil {
		_ = os.Remove(tmpName)
		return werr
	}
	return c.syncDir()
}

// remove deletes one record file and fsyncs the directory so the removal is
// durable. A file that does not exist is not an error.
func (c *DirCheckpointer) remove(path string) error {
	if err := os.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	return c.syncDir()
}

// syncDir fsyncs the checkpoint directory, making the renames and removals
// in it durable.
func (c *DirCheckpointer) syncDir() error {
	d, err := os.Open(c.dir)
	if err != nil {
		return err
	}
	err = c.sync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Save implements Checkpointer.
func (c *DirCheckpointer) Save(st EpisodeState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("server: encode checkpoint %d: %w", st.EpisodeID, err)
	}
	if err := c.writeAtomic(c.path(st.EpisodeID), fmt.Sprintf(".episode-%d-*.tmp", st.EpisodeID), data); err != nil {
		return fmt.Errorf("server: checkpoint %d: %w", st.EpisodeID, err)
	}
	return nil
}

// Delete implements Checkpointer. Deleting a checkpoint that does not exist
// is not an error.
func (c *DirCheckpointer) Delete(id uint64) error {
	if err := c.remove(c.path(id)); err != nil {
		return fmt.Errorf("server: delete checkpoint %d: %w", id, err)
	}
	return nil
}

// LoadAll implements Checkpointer, returning snapshots sorted by episode id.
func (c *DirCheckpointer) LoadAll() ([]EpisodeState, []CorruptCheckpoint, error) {
	return loadRecords(c, "episode-", DecodeEpisodeState, func(st EpisodeState) uint64 { return st.EpisodeID })
}

// loadRecords reads every <prefix><id>.json record in the directory,
// sorted by id. A file that cannot be decoded is quarantined: renamed to
// <name>.corrupt (so a later write of the same id can never silently
// overwrite the evidence, and a later load is not blocked by it) and
// reported as a CorruptCheckpoint.
func loadRecords[T any](c *DirCheckpointer, prefix string, decode func([]byte) (T, error), idOf func(T) uint64) ([]T, []CorruptCheckpoint, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("server: read checkpoint dir: %w", err)
	}
	var (
		out     []T
		corrupt []CorruptCheckpoint
	)
	quarantine := func(name string, id uint64, err error) {
		if rerr := os.Rename(filepath.Join(c.dir, name), filepath.Join(c.dir, name+".corrupt")); rerr != nil {
			err = fmt.Errorf("%w (quarantine failed: %v)", err, rerr)
		}
		corrupt = append(corrupt, CorruptCheckpoint{Name: name, EpisodeID: id, Err: err})
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		idText := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".json")
		id, err := strconv.ParseUint(idText, 10, 64)
		if err != nil {
			quarantine(name, 0, fmt.Errorf("bad id in file name"))
			continue
		}
		data, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			// Unreadable, not undecodable: leave the file alone and report it.
			corrupt = append(corrupt, CorruptCheckpoint{Name: name, EpisodeID: id, Err: err})
			continue
		}
		rec, err := decode(data)
		if err != nil {
			quarantine(name, id, err)
			continue
		}
		if got := idOf(rec); got != id {
			quarantine(name, id, fmt.Errorf("id %d inside file", got))
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return idOf(out[i]) < idOf(out[j]) })
	return out, corrupt, nil
}

// SaveTombstone implements Checkpointer: tombstone-<id>.json alongside the
// episode files, written atomically.
func (c *DirCheckpointer) SaveTombstone(ts TombstoneState) error {
	if err := ts.validate(); err != nil {
		return fmt.Errorf("server: refusing to store invalid tombstone: %w", err)
	}
	data, err := json.Marshal(ts)
	if err != nil {
		return fmt.Errorf("server: encode tombstone %d: %w", ts.EpisodeID, err)
	}
	if err := c.writeAtomic(c.tombPath(ts.EpisodeID), fmt.Sprintf(".tombstone-%d-*.tmp", ts.EpisodeID), data); err != nil {
		return fmt.Errorf("server: tombstone %d: %w", ts.EpisodeID, err)
	}
	return nil
}

// DeleteTombstone implements Checkpointer. Deleting a tombstone that does
// not exist is not an error.
func (c *DirCheckpointer) DeleteTombstone(id uint64) error {
	if err := c.remove(c.tombPath(id)); err != nil {
		return fmt.Errorf("server: delete tombstone %d: %w", id, err)
	}
	return nil
}

// LoadTombstones implements Checkpointer, returning stored tombstones sorted
// by episode id. Undecodable files are quarantined exactly like episode
// checkpoints.
func (c *DirCheckpointer) LoadTombstones() ([]TombstoneState, []CorruptCheckpoint, error) {
	return loadRecords(c, "tombstone-", DecodeTombstoneState, func(ts TombstoneState) uint64 { return ts.EpisodeID })
}
