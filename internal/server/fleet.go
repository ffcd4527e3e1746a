package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"bpomdp/internal/fleet"
	"bpomdp/internal/obs"
)

// Fleet request headers.
const (
	// HeaderOwner names the member a redirected request belongs to, so a
	// client can repair its membership view from the redirect alone.
	HeaderOwner = "X-Bpomdp-Owner"
	// HeaderEpisodeKey carries the episode's routing key (its clientKey) on
	// episode-scoped requests. Episode ids alone don't identify an owner —
	// only the key hashes onto the ring — so fleet-aware clients send it on
	// every request to let a non-owner redirect instead of 404ing.
	HeaderEpisodeKey = "X-Bpomdp-Episode-Key"
)

// FleetConfig turns a Server into one member of a recovery fleet. Episode
// ownership is decided by the shared hash ring; requests for keys this
// member does not own are redirected (307 + X-Bpomdp-Owner) to the owner,
// and when a member is marked down this member adopts the episodes it now
// owns out of the dead member's checkpoint store via the ordinary
// crash-restart replay path.
type FleetConfig struct {
	// Self is this member's id; must appear in Membership.
	Self string
	// Membership is this node's view of the fleet. It may be shared with
	// other components (health probes, admin tooling) — the server only
	// flips it through MarkMemberDown/MarkMemberUp.
	Membership *fleet.Membership
	// StoreFor opens (read-write) the checkpoint store of another member,
	// used to claim a down member's episodes. Required for handoff; when nil
	// this member redirects but never adopts.
	StoreFor func(memberID string) (Checkpointer, error)
}

// episodeIDRangeBits is how far member indices are shifted to form
// EpisodeIDBase: each member allocates ids in its own disjoint 48-bit range,
// so an adopted episode keeps its original id without ever colliding with
// the adopter's allocator.
const episodeIDRangeBits = 48

// EpisodeIDBaseFor returns the id-range base for the fleet member at the
// given sorted-membership index.
func EpisodeIDBaseFor(memberIndex int) uint64 {
	return uint64(memberIndex) << episodeIDRangeBits
}

// sameIDRange reports whether id was allocated from the range starting at
// base.
func sameIDRange(id, base uint64) bool {
	return id>>episodeIDRangeBits == base>>episodeIDRangeBits
}

// validateFleet checks the fleet configuration and derives EpisodeIDBase.
// Called by New.
func validateFleet(cfg *Config) error {
	f := cfg.Fleet
	if f == nil {
		return nil
	}
	if f.Membership == nil {
		return fmt.Errorf("server: fleet config without membership")
	}
	idx, ok := f.Membership.Index(f.Self)
	if !ok {
		return fmt.Errorf("server: fleet self %q is not a member", f.Self)
	}
	cfg.EpisodeIDBase = EpisodeIDBaseFor(idx)
	return nil
}

func (s *Server) fleetEnabled() bool { return s.cfg.Fleet != nil }

// redirectToOwner answers a request for a key this member does not own with
// a 307 to the same URI on the owner. Go's http.Client re-sends the method
// and body on a 307, so both idempotent GETs and keyed POSTs survive the
// hop.
func (s *Server) redirectToOwner(w http.ResponseWriter, r *http.Request, owner fleet.Member) {
	s.m.redirects.Inc()
	w.Header().Set(HeaderOwner, owner.ID)
	w.Header().Set("Location", strings.TrimSuffix(owner.Addr, "/")+r.URL.RequestURI())
	w.WriteHeader(http.StatusTemporaryRedirect)
}

// fleetStart routes an episode start by its clientKey. It returns true when
// it wrote the response (redirect or routing error); false means this member
// owns the key and the ordinary start path should proceed — after a lazy
// adoption attempt, so a key started on a now-dead member dedupes into the
// adopted episode instead of spawning a duplicate.
func (s *Server) fleetStart(w http.ResponseWriter, r *http.Request, key string) bool {
	owner, ok := s.cfg.Fleet.Membership.Owner(key)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no live fleet members in this view"))
		return true
	}
	if owner.ID != s.cfg.Fleet.Self {
		s.redirectToOwner(w, r, owner)
		return true
	}
	s.mu.Lock()
	_, known := s.byKey[key]
	if !known {
		// A tombstoned key is known too: handleStart's dedupe will answer
		// with the original terminated episode's id.
		_, known = s.tombByKey[key]
	}
	s.mu.Unlock()
	if !known {
		s.adoptKey(key)
	}
	return false
}

// fleetEpisodeMiss handles an episode-id lookup miss. handled means a
// response was written (redirect); retry means an adoption may have brought
// the episode in and the caller should re-run its lookup. Both false: plain
// 404 territory.
func (s *Server) fleetEpisodeMiss(w http.ResponseWriter, r *http.Request) (retry, handled bool) {
	if !s.fleetEnabled() {
		return false, false
	}
	key := r.Header.Get(HeaderEpisodeKey)
	if key == "" {
		return false, false
	}
	owner, ok := s.cfg.Fleet.Membership.Owner(key)
	if !ok {
		return false, false
	}
	if owner.ID != s.cfg.Fleet.Self {
		s.redirectToOwner(w, r, owner)
		return false, true
	}
	return s.adoptKey(key) > 0, false
}

// adoptKey scans the checkpoint stores of down members for episodes (and
// terminal tombstones) with the given clientKey and adopts any this member
// now owns. Returns the number of episodes adopted.
func (s *Server) adoptKey(key string) int {
	return s.adoptFromDown(func(k string) bool { return k == key })
}

// adoptFromDown runs adoption against every down member's store. want
// filters by episode key.
func (s *Server) adoptFromDown(want func(key string) bool) int {
	f := s.cfg.Fleet
	if f.StoreFor == nil {
		return 0
	}
	total := 0
	for _, down := range f.Membership.DownMembers() {
		n, err := s.adoptFromMember(down.ID, want)
		if err != nil {
			s.m.adoptErrors.Inc()
		}
		total += n
	}
	return total
}

// adoptFromMember claims matching episodes out of one (presumed down)
// member's checkpoint store: replay through a fresh controller, register
// under the original id, persist into our own store, and delete from the
// source so the member cannot resume them if it comes back — at-most-one
// serving member per episode.
//
// Tombstones are adopted before episodes: a terminal decision is the
// episode's durable last word, and a crash on the source between
// tombstone-write and record-delete can leave both in its store. Processing
// tombstones first makes the tombstone win — the stale episode record is
// deleted, never replayed into a live (re-decidable) episode.
func (s *Server) adoptFromMember(memberID string, want func(key string) bool) (int, error) {
	f := s.cfg.Fleet
	if f.StoreFor == nil {
		return 0, nil
	}
	store, err := f.StoreFor(memberID)
	if err != nil {
		return 0, fmt.Errorf("open store of %q: %w", memberID, err)
	}
	defer func() {
		if c, ok := store.(io.Closer); ok {
			_ = c.Close()
		}
	}()
	states, _, err := store.LoadAll()
	if err != nil {
		return 0, fmt.Errorf("load store of %q: %w", memberID, err)
	}
	tombs, _, err := store.LoadTombstones()
	if err != nil {
		// Without the tombstone view, adopting episodes could resurrect an
		// already-terminated one. Refuse the whole store.
		return 0, fmt.Errorf("load tombstones of %q: %w", memberID, err)
	}
	stale := make(map[uint64]bool, len(states))
	for _, st := range states {
		stale[st.EpisodeID] = true
	}
	var firstErr error
	tombed := make(map[uint64]bool)
	for _, ts := range tombs {
		if ts.ClientKey == "" || !want(ts.ClientKey) {
			continue
		}
		// Only claim keys this member owns in the current view; other
		// survivors claim their own ranges.
		if owner, ok := f.Membership.Owner(ts.ClientKey); !ok || owner.ID != f.Self {
			continue
		}
		tombed[ts.EpisodeID] = true
		at0 := s.spanStart()
		claimed := s.adoptTombstone(ts)
		if err := store.DeleteTombstone(ts.EpisodeID); err != nil && firstErr == nil {
			firstErr = err
		}
		if stale[ts.EpisodeID] {
			// The source crashed between tombstone-write and record-delete;
			// finish its deletion so the record cannot be adopted or resumed.
			if err := store.Delete(ts.EpisodeID); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if claimed && !at0.IsZero() {
			s.emitSpan(&obs.SpanRecord{TraceID: ts.ClientKey, Kind: obs.SpanServerAdopt,
				Op: obs.SpanOpTombstone, Episode: ts.EpisodeID, Source: memberID,
				Start: at0.UnixNano(), Duration: time.Since(at0).Nanoseconds()})
		}
	}
	adopted := 0
	for _, st := range states {
		if tombed[st.EpisodeID] {
			continue
		}
		if st.ClientKey == "" {
			// Keyless episodes cannot be routed (no key, no ring position),
			// so no member can claim them without two members claiming the
			// same episode. Left for the original member's restart.
			continue
		}
		if !want(st.ClientKey) {
			continue
		}
		if owner, ok := f.Membership.Owner(st.ClientKey); !ok || owner.ID != f.Self {
			continue
		}
		at0 := s.spanStart()
		if !s.adoptOne(st) {
			continue
		}
		adopted++
		// Persist into our own store before removing the source record so a
		// crash between the two leaves the episode recoverable (twice is
		// fine — replay is deterministic and the duplicate loses the byKey
		// race), never zero places.
		s.checkpointState(st)
		if err := store.Delete(st.EpisodeID); err != nil && firstErr == nil {
			firstErr = err
		}
		if !at0.IsZero() {
			s.emitSpan(&obs.SpanRecord{TraceID: st.ClientKey, Kind: obs.SpanServerAdopt,
				Op: obs.SpanOpEpisode, Episode: st.EpisodeID, Source: memberID,
				Start: at0.UnixNano(), Duration: time.Since(at0).Nanoseconds()})
		}
	}
	return adopted, firstErr
}

// adoptTombstone claims one foreign terminal tombstone: persist it into our
// own store, then cache it. False when this id is already tombstoned here
// (e.g. it arrived earlier via replication).
func (s *Server) adoptTombstone(ts TombstoneState) bool {
	s.mu.Lock()
	_, have := s.tombstones[ts.EpisodeID]
	s.mu.Unlock()
	if have {
		return false
	}
	if s.cfg.Checkpointer != nil {
		if err := s.cfg.Checkpointer.SaveTombstone(ts); err != nil {
			s.m.checkpointErrors.Inc()
		}
	}
	s.mu.Lock()
	s.insertTombstoneLocked(ts)
	// The terminal decision supersedes any live copy of the same episode.
	if ep, ok := s.episodes[ts.EpisodeID]; ok {
		delete(s.episodes, ts.EpisodeID)
		if ep.clientKey != "" {
			delete(s.byKey, ep.clientKey)
		}
	}
	s.mu.Unlock()
	s.m.tombstonesAdopted.Inc()
	return true
}

// adoptOne replays one foreign snapshot and registers it locally. False when
// the episode is already present (or its key is taken) or replay fails.
func (s *Server) adoptOne(st EpisodeState) bool {
	s.mu.Lock()
	_, haveID := s.episodes[st.EpisodeID]
	_, haveTomb := s.tombstones[st.EpisodeID]
	_, haveKey := s.byKey[st.ClientKey]
	_, haveTombKey := s.tombByKey[st.ClientKey]
	s.mu.Unlock()
	if haveID || haveTomb || haveKey || haveTombKey {
		return false
	}
	ep, err := s.replay(st)
	if err != nil {
		s.m.adoptErrors.Inc()
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: a concurrent adoption or start may have won.
	if _, ok := s.episodes[st.EpisodeID]; ok {
		return false
	}
	if _, ok := s.byKey[st.ClientKey]; ok {
		return false
	}
	if _, ok := s.tombByKey[st.ClientKey]; ok {
		return false
	}
	s.episodes[st.EpisodeID] = ep
	s.byKey[st.ClientKey] = st.EpisodeID
	if sameIDRange(st.EpisodeID, s.cfg.EpisodeIDBase) && st.EpisodeID > s.nextID {
		s.nextID = st.EpisodeID
	}
	s.m.adopted.Inc()
	return true
}

// MarkMemberDown flips a member down in this node's view and eagerly adopts
// every episode of its that now hashes to this member. It returns how many
// episodes were adopted. Safe to call repeatedly (health probe + admin
// endpoint may race); adoption is idempotent.
func (s *Server) MarkMemberDown(id string) (int, error) {
	f := s.cfg.Fleet
	if f == nil {
		return 0, fmt.Errorf("server: not in fleet mode")
	}
	if id == f.Self {
		return 0, fmt.Errorf("server: refusing to mark self down")
	}
	if _, err := f.Membership.MarkDown(id); err != nil {
		return 0, err
	}
	n, err := s.adoptFromMember(id, func(string) bool { return true })
	if err != nil {
		s.m.adoptErrors.Inc()
	}
	return n, nil
}

// MarkMemberUp flips a member back up in this node's view. Episodes already
// adopted stay adopted (their source records were deleted); only keys that
// never moved flow back to the returning member.
//
// When the member being marked up is this node itself — the "dead member
// returns" path — the node first reconciles its in-memory state against its
// own checkpoint store. While it was presumed dead, survivors adopted its
// episodes and tombstones by copying them and deleting the source records;
// anything still in memory here whose record is gone now belongs to someone
// else, and serving it would mean two members owning one episode. Those
// entries are dropped; the count is returned.
func (s *Server) MarkMemberUp(id string) (int, error) {
	f := s.cfg.Fleet
	if f == nil {
		return 0, fmt.Errorf("server: not in fleet mode")
	}
	if _, err := f.Membership.MarkUp(id); err != nil {
		return 0, err
	}
	if id != f.Self {
		return 0, nil
	}
	return s.reconcileOwnership(), nil
}

// reconcileOwnership drops in-memory episodes and tombstones whose durable
// records are absent from this member's own checkpoint store — the signature
// of having been adopted away. On any store read error it drops nothing:
// serving a possibly-stale episode is recoverable (the adopter's copy wins
// the redirect), while dropping a live one is not.
func (s *Server) reconcileOwnership() int {
	if s.cfg.Checkpointer == nil {
		return 0
	}
	states, _, err := s.cfg.Checkpointer.LoadAll()
	if err != nil {
		return 0
	}
	tombs, _, err := s.cfg.Checkpointer.LoadTombstones()
	if err != nil {
		return 0
	}
	haveState := make(map[uint64]bool, len(states))
	for _, st := range states {
		haveState[st.EpisodeID] = true
	}
	haveTomb := make(map[uint64]bool, len(tombs))
	for _, ts := range tombs {
		haveTomb[ts.EpisodeID] = true
	}
	dropped := 0
	s.mu.Lock()
	for id, ep := range s.episodes {
		if haveState[id] {
			continue
		}
		delete(s.episodes, id)
		if ep.clientKey != "" {
			delete(s.byKey, ep.clientKey)
		}
		dropped++
	}
	for id, tb := range s.tombstones {
		if haveTomb[id] {
			continue
		}
		delete(s.tombstones, id)
		if tb.key != "" {
			delete(s.tombByKey, tb.key)
		}
		dropped++
	}
	s.mu.Unlock()
	s.m.staleDropped.Add(uint64(dropped))
	return dropped
}

// FleetView is returned by GET /v1/fleet.
type FleetView struct {
	Self    string               `json:"self"`
	Version uint64               `json:"version"`
	Members []fleet.MemberStatus `json:"members"`
}

// fleetAdminResponse is returned by the member up/down admin endpoints.
type fleetAdminResponse struct {
	Member  string `json:"member"`
	Down    bool   `json:"down"`
	Adopted int    `json:"adopted"`
	// Dropped counts stale in-memory episodes/tombstones discarded when a
	// returning member reconciles against its own store (self mark-up only).
	Dropped int `json:"dropped,omitempty"`
}

func (s *Server) handleFleetView(w http.ResponseWriter, _ *http.Request) {
	f := s.cfg.Fleet
	writeJSON(w, http.StatusOK, FleetView{
		Self:    f.Self,
		Version: f.Membership.Version(),
		Members: f.Membership.Snapshot(),
	})
}

func (s *Server) handleFleetDown(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	adopted, err := s.MarkMemberDown(id)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := s.cfg.Fleet.Membership.Member(id); !ok {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, fleetAdminResponse{Member: id, Down: true, Adopted: adopted})
}

func (s *Server) handleFleetUp(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dropped, err := s.MarkMemberUp(id)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := s.cfg.Fleet.Membership.Member(id); !ok {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, fleetAdminResponse{Member: id, Down: false, Dropped: dropped})
}

// tombstoneReplicaPath is the fleet-internal endpoint terminal tombstones
// are replicated to (POST, body: one TombstoneState as JSON).
const tombstoneReplicaPath = "/v1/fleet/tombstones"

// tombstoneReplicateBackoff is the per-attempt delay schedule for tombstone
// replication. Short and bounded: replication is best-effort narrowing of
// the owner-death window, not a durability requirement — the owner's own
// store already holds the record, and adoption recovers it from there.
var tombstoneReplicateBackoff = []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond}

// fleetHTTPClient is the shared client for fleet-internal calls. The tight
// timeout keeps a wedged peer from pinning replication goroutines.
var fleetHTTPClient = &http.Client{Timeout: 2 * time.Second}

// replicateTombstone asynchronously copies a terminal tombstone to the ring
// successor of its key. The successor is exactly the member that will own
// the key if this member dies — so when a still-retrying client fails over,
// its final request lands on a node already holding the decision, no adoption
// round-trip needed. Fire-and-forget with bounded retries; Close aborts
// in-flight backoff sleeps.
func (s *Server) replicateTombstone(ts TombstoneState) {
	f := s.cfg.Fleet
	if f == nil || ts.ClientKey == "" {
		return
	}
	succ, ok := f.Membership.Successor(ts.ClientKey)
	if !ok || succ.ID == f.Self {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.repWG.Add(1)
	s.repInFlight.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.repWG.Done()
		defer s.repInFlight.Add(-1)
		t0 := s.spanStart()
		var events []obs.SpanEvent
		finish := func(errMsg string) {
			if t0.IsZero() {
				return
			}
			s.emitSpan(&obs.SpanRecord{TraceID: ts.ClientKey, Kind: obs.SpanServerReplicate,
				Episode: ts.EpisodeID, Target: succ.ID,
				Start: t0.UnixNano(), Duration: time.Since(t0).Nanoseconds(),
				Err: errMsg, Events: events})
		}
		for i, d := range tombstoneReplicateBackoff {
			if d > 0 {
				select {
				case <-time.After(d):
				case <-s.repStop:
					finish("aborted by shutdown")
					return
				}
			}
			err := s.postTombstone(succ, ts)
			if !t0.IsZero() {
				detail := fmt.Sprintf("attempt=%d ok", i+1)
				if err != nil {
					detail = fmt.Sprintf("attempt=%d %s", i+1, err)
				}
				events = append(events, obs.SpanEvent{Name: "attempt", At: time.Now().UnixNano(), Detail: detail})
			}
			if err == nil {
				s.m.tombstonesReplicated.Inc()
				finish("")
				return
			}
		}
		s.m.tombstoneRepErrors.Inc()
		finish("replication retries exhausted")
	}()
}

// postTombstone sends one tombstone to a peer's replica endpoint.
func (s *Server) postTombstone(to fleet.Member, ts TombstoneState) error {
	body, err := json.Marshal(ts)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimSuffix(to.Addr, "/")+tombstoneReplicaPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if ts.ClientKey != "" {
		// The replica write joins the episode's distributed trace: the
		// receiver's accept handler emits a span under the same id.
		req.Header.Set(HeaderTrace, ts.ClientKey)
	}
	resp, err := fleetHTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("tombstone replica to %q: status %d", to.ID, resp.StatusCode)
	}
	return nil
}

// handleTombstoneReplica accepts a tombstone replicated by a fleet peer.
// DecodeTombstoneState is the trust boundary: a malformed or non-terminal
// record is rejected before it can shadow a live episode.
func (s *Server) handleTombstoneReplica(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read tombstone body: %w", err))
		return
	}
	ts, err := DecodeTombstoneState(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.acceptTombstone(ts); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// acceptTombstone durably stores a replicated tombstone and caches it. The
// store write comes first: the point of the replica is surviving this
// member's own crash.
func (s *Server) acceptTombstone(ts TombstoneState) error {
	var saveErr error
	if s.cfg.Checkpointer != nil {
		if saveErr = s.cfg.Checkpointer.SaveTombstone(ts); saveErr != nil {
			s.m.checkpointErrors.Inc()
		}
	}
	s.mu.Lock()
	s.insertTombstoneLocked(ts)
	s.mu.Unlock()
	s.m.tombstonesReceived.Inc()
	return saveErr
}
