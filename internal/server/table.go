package server

import "time"

// episodeTable is the episode lifecycle's bookkeeping: live episodes, the
// tombstone cache, the clientKey index of each, the cache's eviction queue
// and the id allocator. The rules that keep a terminate decision an
// episode's last word live in its transitions and nowhere else. It does no
// I/O, starts no goroutines and takes no locks; the Server holds it under
// s.mu.
type episodeTable struct {
	episodes   map[uint64]*episode
	byKey      map[string]uint64 // clientKey -> live episode id
	tombstones map[uint64]*tombstone
	tombByKey  map[string]uint64 // clientKey -> tombstoned episode id
	// tombOrder is the cache's eviction queue, oldest first. A reference is
	// live while its tombstone still carries the reference's seq; forgotten
	// and re-retired tombstones leave dead references that eviction skips.
	tombOrder []tombRef
	tombSeq   uint64
	// tombOverflow records a cap eviction: the store may hold tombstones
	// the cache no longer sees.
	tombOverflow bool
	// nextID is the highest id of this member's range (the one starting at
	// base) allocated, admitted or retired.
	base, nextID uint64
}

// tombRef is one tombOrder entry: tombstone id as retired with seq.
type tombRef struct{ id, seq uint64 }

// maxTombstones caps the tombstone cache. Eviction is memory-only: the
// store record stays until its TTL and a lookup that misses the cache falls
// back to it, so evicting in insertion order loses nothing.
const maxTombstones = 4096

func newEpisodeTable(base uint64) episodeTable {
	return episodeTable{
		episodes:   make(map[uint64]*episode),
		byKey:      make(map[string]uint64),
		tombstones: make(map[uint64]*tombstone),
		tombByKey:  make(map[string]uint64),
		base:       base,
		nextID:     base,
	}
}

// keyed returns the live or, failing that, tombstoned id that holds key.
// The empty key is never held.
func (t *episodeTable) keyed(key string) (uint64, bool) {
	if id, ok := t.byKey[key]; ok {
		return id, true
	}
	id, ok := t.tombByKey[key]
	return id, ok
}

// allocate returns a fresh id from this member's range.
func (t *episodeTable) allocate() uint64 {
	t.nextID++
	return t.nextID
}

// reserve keeps allocate from ever returning id.
func (t *episodeTable) reserve(id uint64) {
	if sameIDRange(id, t.base) && id > t.nextID {
		t.nextID = id
	}
}

// admit registers ep as live. It refuses an id or a key already taken, live
// or tombstoned: a terminated episode is never resurrected, and one key
// never names two episodes.
func (t *episodeTable) admit(ep *episode) bool {
	if t.episodes[ep.id] != nil || t.tombstones[ep.id] != nil {
		return false
	}
	if ep.clientKey != "" {
		if _, taken := t.keyed(ep.clientKey); taken {
			return false
		}
		t.byKey[ep.clientKey] = ep.id
	}
	t.episodes[ep.id] = ep
	t.reserve(ep.id)
	return true
}

// retire makes ts its episode's last word: the newest cache entry, with any
// live copy of the episode dropped, whether the decision was made here or
// by a peer. The returned tombstone stays valid even if the cap evicts it.
func (t *episodeTable) retire(ts TombstoneState, now time.Time) *tombstone {
	id := ts.EpisodeID
	t.drop(id)
	t.forget(id)
	if ts.TerminatedAtUnixNano <= 0 {
		ts.TerminatedAtUnixNano = now.UnixNano()
	}
	t.tombSeq++
	tb := &tombstone{TombstoneState: ts, seq: t.tombSeq}
	t.tombstones[id] = tb
	t.tombOrder = append(t.tombOrder, tombRef{id: id, seq: tb.seq})
	if ts.ClientKey != "" {
		t.tombByKey[ts.ClientKey] = id
	}
	t.reserve(id)
	for len(t.tombstones) > maxTombstones {
		ref := t.tombOrder[0]
		t.tombOrder = t.tombOrder[1:]
		if old := t.tombstones[ref.id]; old != nil && old.seq == ref.seq {
			t.forget(ref.id)
			t.tombOverflow = true
		}
	}
	t.compact()
	return tb
}

// drop removes the live episode id, if any, and returns it.
func (t *episodeTable) drop(id uint64) *episode {
	ep := t.episodes[id]
	if ep == nil {
		return nil
	}
	delete(t.episodes, id)
	if ep.clientKey != "" && t.byKey[ep.clientKey] == id {
		delete(t.byKey, ep.clientKey)
	}
	return ep
}

// forget removes the cached tombstone id, if any. Its key is unmapped only
// while it still points at id.
func (t *episodeTable) forget(id uint64) {
	tb := t.tombstones[id]
	if tb == nil {
		return
	}
	delete(t.tombstones, id)
	if tb.ClientKey != "" && t.tombByKey[tb.ClientKey] == id {
		delete(t.tombByKey, tb.ClientKey)
	}
	t.compact()
}

// compact rebuilds tombOrder from its live references once the dead ones
// outnumber them: one live reference per cached tombstone keeps the queue
// within twice the cache at O(1) amortized cost per transition.
func (t *episodeTable) compact() {
	live := len(t.tombstones)
	if len(t.tombOrder)-live <= live {
		return
	}
	kept := make([]tombRef, 0, 2*live)
	for _, ref := range t.tombOrder {
		if tb := t.tombstones[ref.id]; tb != nil && tb.seq == ref.seq {
			kept = append(kept, ref)
		}
	}
	t.tombOrder = kept
}

// find returns the live episode id, else its cached tombstone.
func (t *episodeTable) find(id uint64) (*episode, *tombstone) {
	if ep := t.episodes[id]; ep != nil {
		return ep, nil
	}
	return nil, t.tombstones[id]
}

// dropWhere drops the live episodes match reports true for and returns them.
func (t *episodeTable) dropWhere(match func(*episode) bool) []*episode {
	var dropped []*episode
	for id, ep := range t.episodes {
		if match(ep) {
			dropped = append(dropped, t.drop(id))
		}
	}
	return dropped
}

// forgetWhere forgets the cached tombstones match reports true for and
// returns their ids.
func (t *episodeTable) forgetWhere(match func(id uint64, tb *tombstone) bool) []uint64 {
	var ids []uint64
	for id, tb := range t.tombstones {
		if match(id, tb) {
			t.forget(id)
			ids = append(ids, id)
		}
	}
	return ids
}

// live returns the live episodes in no particular order.
func (t *episodeTable) live() []*episode {
	eps := make([]*episode, 0, len(t.episodes))
	for _, ep := range t.episodes {
		eps = append(eps, ep)
	}
	return eps
}

// size reports the live episodes and cached tombstones.
func (t *episodeTable) size() (open, tombs int) {
	return len(t.episodes), len(t.tombstones)
}

// overflowed reports a cap eviction since the last call; it stays set
// while the cache is still full.
func (t *episodeTable) overflowed() bool {
	was := t.tombOverflow
	t.tombOverflow = was && len(t.tombstones) >= maxTombstones
	return was
}
