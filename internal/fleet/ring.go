// Package fleet provides the coordination-free building blocks for running
// several recoverd instances as one recovery fleet: a consistent-hash ring
// that assigns every episode key a deterministic owner, and a membership
// view that tracks which members are up and rebuilds the ring as members
// are marked down or up.
//
// The design is deliberately coordinator-free: every node (and every
// client) computes ownership locally from the same member list, the same
// virtual-node count, and the same hash function, so two parties with the
// same view of liveness always agree on who owns a key. Stale views are
// corrected by the server's owner redirects (307 + X-Bpomdp-Owner) and by
// clients marking members down when connections are refused.
//
// Durability composes with ownership: an episode's owner checkpoints it
// locally, and when the episode terminates the owner replicates a terminal
// tombstone to the key's ring successor (Ring.SuccessorOf) — the member that
// will own the key if the owner dies — so a client whose final read was cut
// off by the owner's death can retry against the new owner and receive the
// original terminal decision byte-for-byte.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual-node count used when none
// is configured. 64 points per member keeps the largest/smallest key-range
// ratio within a few tens of percent for small fleets while keeping ring
// rebuilds trivially cheap.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over member IDs. Build one with
// NewRing; ownership queries are read-only and safe for concurrent use.
type Ring struct {
	points []ringPoint
}

// ringPoint is one virtual node: the hash of "memberID#vnodeIndex" and the
// member it maps back to.
type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over the given member IDs with vnodes virtual nodes
// per member (0 means DefaultVirtualNodes). The ring is deterministic in
// the member *set* — input order does not matter — so every party that
// knows the same members builds the identical ring.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes == 0 {
		vnodes = DefaultVirtualNodes
	}
	if vnodes < 0 {
		return nil, fmt.Errorf("fleet: negative virtual-node count %d", vnodes)
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("fleet: empty member id")
		}
		if seen[m] {
			return nil, fmt.Errorf("fleet: duplicate member id %q", m)
		}
		seen[m] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(m + "#" + strconv.Itoa(v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash collisions between virtual nodes are broken by member id so
		// the ring stays deterministic in the member set.
		return a.member < b.member
	})
	return r, nil
}

// OwnerOf returns the member owning key: the first virtual node at or after
// the key's hash, wrapping around the ring. ok is false on an empty ring.
func (r *Ring) OwnerOf(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}

// SuccessorOf returns the key's owner and the first *distinct* member whose
// virtual node follows the owning one, wrapping around the ring. The
// successor is exactly the member that would own the key if the owner were
// removed from the ring — which makes it the natural replica target for
// per-key state: after the owner dies, the key hashes straight to the member
// already holding the copy. ok is false on an empty or single-member ring.
func (r *Ring) SuccessorOf(key string) (owner, successor string, ok bool) {
	if len(r.points) == 0 {
		return "", "", false
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	owner = r.points[i].member
	for step := 1; step < len(r.points); step++ {
		p := r.points[(i+step)%len(r.points)]
		if p.member != owner {
			return owner, p.member, true
		}
	}
	return owner, "", false
}

// hashKey is the ring's hash function: 64-bit FNV-1a finished with a
// Murmur3-style avalanche. Bare FNV-1a mixes a trailing byte into the low
// bits only, which clusters a member's virtual nodes ("n1#0".."n1#63") on
// one arc of the ring; the finalizer spreads them uniformly. The function
// only needs to be fast, stable across processes, and well-spread; it is
// not a security boundary (episode keys are client-generated random
// tokens).
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
