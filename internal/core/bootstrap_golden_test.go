package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/rng"
)

// TestBootstrapCapacityGolden pins, bit for bit, the Figure 5 series and the
// least-used eviction count of capacity-capped bootstrapping on EMN. With a
// capped set, which hyperplane is evicted depends on how often each plane won
// a leaf evaluation, so the pin fails if the tree's leaf stops advancing the
// use counters once per logical leaf — e.g. when bit-identical frontier
// beliefs are merged and the multiplicities are not passed on to the set.
func TestBootstrapCapacityGolden(t *testing.T) {
	cases := []struct {
		capacity, depth int
		evictions       uint64
		final           float64 // BoundAtUniform after the last episode
		digest          uint64  // seriesDigest of all 30 IterationStats
	}{
		{4, 2, 96, -4067.7916666666656, 0x97e6085709aa3a25},
		{4, 3, 112, -3641.9880952380936, 0x5863b0dc70b32bb1},
		{8, 2, 68, -4057.738839285713, 0x331d33ae96c10004},
		{8, 3, 73, -3641.9880952380936, 0x9eb3deca71e654e4},
	}
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
			OperatorResponseTime: emn.OperatorResponseTime,
			BoundCapacity:        c.capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		series, err := prep.Bootstrap(30, controller.VariantRandom, c.depth, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		final := series[len(series)-1].BoundAtUniform
		if got := prep.Set.Evictions(); got != c.evictions {
			t.Errorf("capacity %d depth %d: %d evictions, want %d", c.capacity, c.depth, got, c.evictions)
		}
		if math.Float64bits(final) != math.Float64bits(c.final) {
			t.Errorf("capacity %d depth %d: final bound %v, want %v", c.capacity, c.depth, final, c.final)
		}
		if got := seriesDigest(series); got != c.digest {
			t.Errorf("capacity %d depth %d: series digest %#x, want %#x", c.capacity, c.depth, got, c.digest)
		}
	}
}

// seriesDigest is FNV-1a over every field of every IterationStats, the
// bound by its float bits.
func seriesDigest(series []controller.IterationStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, st := range series {
		for _, v := range []uint64{uint64(st.Iteration), math.Float64bits(st.BoundAtUniform), uint64(st.Vectors), uint64(st.Steps)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
