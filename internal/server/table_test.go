package server

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// tableModel is the reference the episode table is checked against: plain
// maps for the live and tombstoned ids with their keys, and the cached
// tombstones as a list in eviction order.
type tableModel struct {
	live, tombs      map[uint64]string // id -> clientKey
	byKey, tombByKey map[string]uint64
	order            []uint64 // cached tombstone ids, oldest retirement first
	used             map[uint64]bool
}

func newTableModel() *tableModel {
	return &tableModel{live: map[uint64]string{}, tombs: map[uint64]string{},
		byKey: map[string]uint64{}, tombByKey: map[string]uint64{}, used: map[uint64]bool{}}
}

func (m *tableModel) admit(id uint64, key string) bool {
	_, isLive := m.live[id]
	_, isTomb := m.tombs[id]
	_, keyLive := m.byKey[key]
	_, keyTomb := m.tombByKey[key]
	if isLive || isTomb || (key != "" && (keyLive || keyTomb)) {
		return false
	}
	m.live[id] = key
	if key != "" {
		m.byKey[key] = id
	}
	m.used[id] = true
	return true
}

func (m *tableModel) drop(id uint64) {
	key, ok := m.live[id]
	if !ok {
		return
	}
	delete(m.live, id)
	if key != "" && m.byKey[key] == id {
		delete(m.byKey, key)
	}
}

func (m *tableModel) forget(id uint64) {
	key, ok := m.tombs[id]
	if !ok {
		return
	}
	delete(m.tombs, id)
	if key != "" && m.tombByKey[key] == id {
		delete(m.tombByKey, key)
	}
	i := slices.Index(m.order, id)
	m.order = slices.Delete(m.order, i, i+1)
}

func (m *tableModel) retire(id uint64, key string) {
	m.drop(id)
	m.forget(id)
	m.tombs[id] = key
	m.order = append(m.order, id)
	if key != "" {
		m.tombByKey[key] = id
	}
	m.used[id] = true
	for len(m.tombs) > maxTombstones {
		m.forget(m.order[0])
	}
}

// checkTable asserts the table's own invariants and its agreement with the
// reference model.
func checkTable(t *testing.T, step int, tab *episodeTable, m *tableModel) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: "+format, append([]any{step}, args...)...)
	}
	for id, ep := range tab.episodes {
		if tab.tombstones[id] != nil {
			fail("id %d is both live and tombstoned", id)
		}
		if key, ok := m.live[id]; !ok || ep.id != id || ep.clientKey != key {
			fail("live %d (key %q) not in the model (%q, %v)", id, ep.clientKey, key, ok)
		}
	}
	for key, id := range tab.byKey {
		if ep := tab.episodes[id]; ep == nil || ep.clientKey != key {
			fail("live key %q maps to %d, which is not live under it", key, id)
		}
	}
	for key, id := range tab.tombByKey {
		if tb := tab.tombstones[id]; tb == nil || tb.ClientKey != key {
			fail("tombstone key %q maps to %d, which is not tombstoned under it", key, id)
		}
	}
	if len(tab.episodes) != len(m.live) || len(tab.tombstones) != len(m.tombs) {
		fail("table holds %d live, %d tombstones; model %d, %d",
			len(tab.episodes), len(tab.tombstones), len(m.live), len(m.tombs))
	}
	if !maps.Equal(tab.byKey, m.byKey) || !maps.Equal(tab.tombByKey, m.tombByKey) {
		fail("key maps diverge from the model")
	}
	if n := len(tab.tombstones); n > maxTombstones {
		fail("cache holds %d tombstones, cap %d", n, maxTombstones)
	}
	if n := len(tab.tombOrder); n > 2*len(tab.tombstones)+1 {
		fail("queue holds %d references for %d tombstones", n, len(tab.tombstones))
	}
	// The live references, oldest first, must be the model's cached
	// tombstones in its eviction order, under the model's keys.
	i := 0
	for _, ref := range tab.tombOrder {
		tb := tab.tombstones[ref.id]
		if tb == nil || tb.seq != ref.seq {
			continue
		}
		if i >= len(m.order) || m.order[i] != ref.id || tb.ClientKey != m.tombs[ref.id] {
			fail("eviction queue position %d holds %d (key %q), model disagrees", i, ref.id, tb.ClientKey)
		}
		i++
	}
	if i != len(m.order) {
		fail("eviction queue holds %d live references, model %d", i, len(m.order))
	}
}

// TestEpisodeTableInvariants drives the episode table through seeded random
// transitions — fresh starts, admissions and retirements over a few ids and
// keys in two id ranges, drops, forgets — and checks it after every step
// against a plain-map reference: no id both live and tombstoned, every key
// mapped to an id held under it, no allocated id ever admitted or retired
// before, the cache within its cap and the eviction queue within twice the
// cache. Fresh retirements overflow the cap, so eviction is exercised too.
func TestEpisodeTableInvariants(t *testing.T) {
	own, foreign := EpisodeIDBaseFor(1), EpisodeIDBaseFor(2)
	keys := []string{"", "k0", "k1", "k2"}
	now := time.Unix(1_700_000_000, 0)
	r := rand.New(rand.NewPCG(1, 19))
	tab, m := newEpisodeTable(own), newTableModel()
	poolID := func() uint64 {
		base := own
		if r.IntN(2) == 1 {
			base = foreign
		}
		return base + 1 + r.Uint64N(6)
	}
	key := func() string { return keys[r.IntN(len(keys))] }
	fresh := func() uint64 {
		id := tab.allocate()
		if m.used[id] || !sameIDRange(id, own) {
			t.Fatalf("allocate returned %d, already used or outside the range", id)
		}
		return id
	}
	for step := 0; step < 10000; step++ {
		switch op := r.IntN(100); {
		case op < 10:
			id, k := fresh(), key()
			if got, want := tab.admit(&episode{id: id, clientKey: k}), m.admit(id, k); got != want {
				t.Fatalf("step %d: admit fresh %d %q = %v, want %v", step, id, k, got, want)
			}
		case op < 20:
			id, k := poolID(), key()
			if got, want := tab.admit(&episode{id: id, clientKey: k}), m.admit(id, k); got != want {
				t.Fatalf("step %d: admit %d %q = %v, want %v", step, id, k, got, want)
			}
		case op < 30:
			id, k := poolID(), key()
			tab.retire(TombstoneState{EpisodeID: id, ClientKey: k}, now)
			m.retire(id, k)
		case op < 80:
			// A fresh id terminated elsewhere and retired here, some under
			// a key of their own: these fill the cache past its cap.
			id, k := fresh(), ""
			if r.IntN(8) == 0 {
				k = fmt.Sprintf("f%d", id)
			}
			tab.retire(TombstoneState{EpisodeID: id, ClientKey: k}, now)
			m.retire(id, k)
		case op < 88:
			id := poolID()
			tab.drop(id)
			m.drop(id)
		case op < 96:
			id := poolID()
			if len(m.order) > 0 && r.IntN(2) == 0 {
				id = m.order[r.IntN(len(m.order))]
			}
			tab.forget(id)
			m.forget(id)
		default:
			id, k := poolID(), key()
			ep, tb := tab.find(id)
			_, isLive := m.live[id]
			_, isTomb := m.tombs[id]
			if (ep != nil) != isLive || (tb != nil) != (isTomb && !isLive) {
				t.Fatalf("step %d: find(%d) = %v, %v; model live %v tombstoned %v", step, id, ep, tb, isLive, isTomb)
			}
			got, gotOK := tab.keyed(k)
			want, wantOK := m.byKey[k]
			if !wantOK {
				want, wantOK = m.tombByKey[k]
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: keyed(%q) = %d, %v; want %d, %v", step, k, got, gotOK, want, wantOK)
			}
		}
		checkTable(t, step, &tab, m)
	}
	if !tab.overflowed() {
		t.Error("the cache never overflowed its cap")
	}
}
