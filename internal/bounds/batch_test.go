package bounds

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// randomPlanes draws k random hyperplanes over n states, values in [-10, 0]
// (lower bounds on costs-to-go are non-positive in the recovery models).
func randomPlanes(stream *rng.Stream, k, n int) []linalg.Vector {
	planes := make([]linalg.Vector, k)
	for i := range planes {
		b := make(linalg.Vector, n)
		for s := range b {
			b[s] = -10 * stream.Float64()
		}
		planes[i] = b
	}
	return planes
}

// randomBeliefs draws m random points of the n-simplex.
func randomBeliefs(stream *rng.Stream, m, n int) []pomdp.Belief {
	pis := make([]pomdp.Belief, m)
	for i := range pis {
		pi := make(pomdp.Belief, n)
		sum := 0.0
		for s := range pi {
			pi[s] = stream.Float64()
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		pis[i] = pi
	}
	return pis
}

// buildSet adds the given planes to a fresh set (capacity optional),
// interleaving value queries from the driver so usage counters shape
// eviction exactly as the caller scripts them.
func buildSet(t *testing.T, n, capacity int, planes []linalg.Vector) *Set {
	t.Helper()
	s, err := NewSet(n, planes[0])
	if err != nil {
		t.Fatal(err)
	}
	if capacity > 0 {
		s.SetCapacity(capacity)
	}
	for _, b := range planes[1:] {
		if _, err := s.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// refScan is the row-major reference for Set's evaluation: each plane is
// dotted with π by linalg.DotUnrolled, and the first maximizer under strict
// > wins (-Inf and -1 when there are no planes).
func refScan(planes []linalg.Vector, pi []float64) (float64, int) {
	best, arg := math.Inf(-1), -1
	for i, b := range planes {
		if v := linalg.DotUnrolled(pi, b); v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// scanPlanes draws k planes over n states in which about a quarter of the
// entries are +0 or −0 and about a quarter of the planes duplicate an
// earlier one, so first-maximizer ties occur.
func scanPlanes(stream *rng.Stream, k, n int) []linalg.Vector {
	planes := randomPlanes(stream, k, n)
	for i, b := range planes {
		if i > 0 && stream.IntN(4) == 0 {
			copy(b, planes[stream.IntN(i)])
			continue
		}
		for s := range b {
			if stream.IntN(4) == 0 {
				b[s] = math.Copysign(0, float64(stream.IntN(2))-0.5)
			}
		}
	}
	return planes
}

// scanBelief draws a belief that is either dense or has one to three
// nonzero states, with each zero entry randomly +0 or −0.
func scanBelief(stream *rng.Stream, n int) pomdp.Belief {
	pi := make(pomdp.Belief, n)
	if stream.IntN(2) == 0 {
		for s := range pi {
			pi[s] = stream.Float64()
		}
	} else {
		for c := 1 + stream.IntN(3); c > 0; c-- {
			pi[stream.IntN(n)] = stream.Float64()
		}
	}
	sum := 0.0
	for _, x := range pi {
		sum += x
	}
	for s := range pi {
		switch {
		case pi[s] != 0:
			pi[s] /= sum
		case stream.IntN(2) == 0:
			pi[s] = math.Copysign(0, -1)
		}
	}
	return pi
}

// TestSetMatchesRowMajorReference pins Value, ValueArg, Peek and ValueBatch
// to the row-major reference scan bit for bit (math.Float64bits), with the
// same argmax index and the same usage counters: Value, ValueArg and
// ValueBatch bump the maximizer once per belief, Peek never. The sets may be
// empty and carry zero entries and duplicate planes; the beliefs are dense
// or sparse with +0 and −0 entries; the batches may be empty.
func TestSetMatchesRowMajorReference(t *testing.T) {
	stream := rng.New(2024)
	for trial := 0; trial < 300; trial++ {
		n := 1 + stream.IntN(16)
		k := stream.IntN(14)
		m := stream.IntN(24)
		planes := scanPlanes(stream.SplitN("planes", trial), k, n)
		set, err := NewSet(n, planes...)
		if err != nil {
			t.Fatal(err)
		}
		bs := stream.SplitN("beliefs", trial)
		pis := make([]pomdp.Belief, m)
		for j := range pis {
			pis[j] = scanBelief(bs, n)
		}

		same := func(what string, j int, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d k=%d) belief %d: %s = %v (%#x), reference %v (%#x)",
					trial, n, k, j, what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		wantUses := make([]uint64, k)
		wantVals, wantArgs := make([]float64, m), make([]int, m)
		for j, pi := range pis {
			want, arg := refScan(planes, pi)
			wantVals[j], wantArgs[j] = want, arg
			same("Peek", j, set.Peek(pi), want)
			got, gotArg := set.ValueArg(pi)
			same("ValueArg", j, got, want)
			if gotArg != arg {
				t.Fatalf("trial %d belief %d: ValueArg index %d, reference %d", trial, j, gotArg, arg)
			}
			same("Value", j, set.Value(pi), want)
			if arg >= 0 {
				wantUses[arg] += 2
			}
		}
		for j, got := range set.ValueBatch(pis, nil, nil) {
			same("ValueBatch", j, got, wantVals[j])
			if wantArgs[j] >= 0 {
				wantUses[wantArgs[j]]++
			}
		}
		for i, u := range set.uses {
			if u != wantUses[i] {
				t.Fatalf("trial %d: plane %d uses %d, want %d", trial, i, u, wantUses[i])
			}
		}
	}
}

// TestValueBatchEvictionParity drives two identically-built capacity-capped
// twin sets — one through ValueArg, one through ValueBatch — with the same
// interleaving of queries and Adds. Identical counter bumps must produce
// identical evictions, leaving identical planes.
func TestValueBatchEvictionParity(t *testing.T) {
	stream := rng.New(7)
	const n, capacity = 4, 5
	planes := randomPlanes(stream.SplitN("seed", 0), 2, n)
	ref := buildSet(t, n, capacity, planes)
	bat := buildSet(t, n, capacity, planes)

	out := make([]float64, 0, 16)
	for round := 0; round < 30; round++ {
		pis := randomBeliefs(stream.SplitN("q", round), 1+stream.IntN(8), n)
		for _, pi := range pis {
			ref.ValueArg(pi)
		}
		out = bat.ValueBatch(pis, nil, out)

		b := randomPlanes(stream.SplitN("add", round), 1, n)[0]
		ka, err := ref.Add(b)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := bat.Add(append(linalg.Vector(nil), b...))
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Fatalf("round %d: Add kept=%v on reference, %v on batch twin", round, ka, kb)
		}
	}
	if ref.Size() != bat.Size() {
		t.Fatalf("sizes diverged: %d vs %d", ref.Size(), bat.Size())
	}
	for i := 0; i < ref.Size(); i++ {
		if ref.uses[i] != bat.uses[i] {
			t.Errorf("plane %d uses: %d vs %d", i, ref.uses[i], bat.uses[i])
		}
		for j := 0; j < n; j++ {
			if ref.at(i, j) != bat.at(i, j) {
				t.Errorf("plane %d entry %d: %v vs %v", i, j, ref.at(i, j), bat.at(i, j))
			}
		}
	}
}

// TestValueBatchCountsMatchRepeatedEntries: a batch that carries each belief
// once with a count must return the same values, bit for bit, and leave the
// same usage counters as a batch that repeats each belief count times. Two
// capacity-capped twins driven that way, with the same Adds in between,
// must evict the same planes.
func TestValueBatchCountsMatchRepeatedEntries(t *testing.T) {
	stream := rng.New(41)
	const n, capacity = 5, 6
	planes := randomPlanes(stream.SplitN("seed", 0), 3, n)
	counted := buildSet(t, n, capacity, planes)
	repeated := buildSet(t, n, capacity, planes)

	var out, outRep []float64
	for round := 0; round < 40; round++ {
		pis := randomBeliefs(stream.SplitN("q", round), 1+stream.IntN(6), n)
		counts := make([]uint64, len(pis))
		var rep []pomdp.Belief
		for j, pi := range pis {
			counts[j] = uint64(stream.IntN(5)) // zero counts included
			for c := uint64(0); c < counts[j]; c++ {
				rep = append(rep, pi)
			}
		}
		out = counted.ValueBatch(pis, counts, out)
		outRep = repeated.ValueBatch(rep, nil, outRep)
		k := 0
		for j := range pis {
			for c := uint64(0); c < counts[j]; c++ {
				if math.Float64bits(out[j]) != math.Float64bits(outRep[k]) {
					t.Fatalf("round %d belief %d: counted %v, repeated %v", round, j, out[j], outRep[k])
				}
				k++
			}
		}

		b := randomPlanes(stream.SplitN("add", round), 1, n)[0]
		ka, err := counted.Add(b)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := repeated.Add(append(linalg.Vector(nil), b...))
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Fatalf("round %d: Add kept=%v on the counted set, %v on the repeated one", round, ka, kb)
		}
	}
	if counted.Evictions() == 0 {
		t.Fatal("no evictions: the capacity never bit, so the counters were not exercised")
	}
	if counted.Evictions() != repeated.Evictions() || counted.Size() != repeated.Size() {
		t.Fatalf("twins diverged: %d/%d evictions, %d/%d planes",
			counted.Evictions(), repeated.Evictions(), counted.Size(), repeated.Size())
	}
	for i := 0; i < counted.Size(); i++ {
		if counted.uses[i] != repeated.uses[i] {
			t.Errorf("plane %d uses: %d vs %d", i, counted.uses[i], repeated.uses[i])
		}
		for k := 0; k < n; k++ {
			if counted.at(i, k) != repeated.at(i, k) {
				t.Errorf("plane %d entry %d: %v vs %v", i, k, counted.at(i, k), repeated.at(i, k))
			}
		}
	}
}

// TestValueBatchEmptySetAndEmptyBatch covers the degenerate shapes.
func TestValueBatchEmptySetAndEmptyBatch(t *testing.T) {
	s, err := NewSet(3)
	if err != nil {
		t.Fatal(err)
	}
	got := s.ValueBatch([]pomdp.Belief{{1, 0, 0}}, nil, nil)
	if len(got) != 1 || !math.IsInf(got[0], -1) {
		t.Errorf("empty set ValueBatch = %v, want [-Inf]", got)
	}
	if got := s.ValueBatch(nil, nil, nil); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}
}

// TestValueBatchGrowsOutput: an undersized out slice is replaced, a
// sufficient one is reused in place.
func TestValueBatchGrowsOutput(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-1, -2})
	if err != nil {
		t.Fatal(err)
	}
	pis := []pomdp.Belief{{1, 0}, {0, 1}}
	small := make([]float64, 1)
	got := s.ValueBatch(pis, nil, small)
	if len(got) != 2 || got[0] != -1 || got[1] != -2 {
		t.Errorf("grown ValueBatch = %v, want [-1 -2]", got)
	}
	big := make([]float64, 8)
	got = s.ValueBatch(pis, nil, big)
	if len(got) != 2 || &got[0] != &big[0] {
		t.Error("sufficient out slice was not reused in place")
	}
}

// refSet is the row-major reference for Set's mutations: one row per plane,
// with the same dominance pruning (the base plane spared) and least-used
// eviction.
type refSet struct {
	planes []linalg.Vector
	uses   []uint64
	maxLen int
}

func refDominates(a, b linalg.Vector) bool {
	for s := range a {
		if a[s] < b[s]-1e-12 {
			return false
		}
	}
	return true
}

func (r *refSet) remove(i int) {
	r.planes = append(r.planes[:i], r.planes[i+1:]...)
	r.uses = append(r.uses[:i], r.uses[i+1:]...)
}

func (r *refSet) add(b linalg.Vector) bool {
	for _, p := range r.planes {
		if refDominates(p, b) {
			return false
		}
	}
	for i := len(r.planes) - 1; i >= 1; i-- {
		if refDominates(b, r.planes[i]) {
			r.remove(i)
		}
	}
	if r.maxLen > 0 && len(r.planes) >= r.maxLen && len(r.planes) > 1 {
		victim := 1
		for i := 2; i < len(r.planes); i++ {
			if r.uses[i] < r.uses[victim] {
				victim = i
			}
		}
		r.remove(victim)
	}
	r.planes = append(r.planes, b)
	r.uses = append(r.uses, 0)
	return true
}

// TestSlabLayoutSurvivesMutation drives a Set and the row-major refSet
// through one random sequence of Adds (with their pruning and eviction),
// counted queries and JSON round trips, and requires the same planes bit
// for bit, the same usage counters and a consistent column buffer after
// every step.
func TestSlabLayoutSurvivesMutation(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		stream := rng.New(seed)
		n := 1 + stream.IntN(6)
		capacity := 0
		if stream.IntN(2) == 0 {
			capacity = 3 + stream.IntN(4)
		}
		base := scanPlanes(stream.Split("base"), 2, n)
		s := buildSet(t, n, capacity, base)
		ref := &refSet{planes: base[:1:1], uses: []uint64{0}, maxLen: capacity}
		ref.add(base[1])

		for step := 0; step < 60; step++ {
			switch op := stream.IntN(10); {
			case op < 5:
				b := scanPlanes(stream.SplitN("add", step), 1, n)[0]
				if stream.IntN(3) == 0 {
					// A copy of a stored plane nudged up, down or not at all:
					// it prunes that plane, is dominated, or duplicates it.
					copy(b, ref.planes[stream.IntN(len(ref.planes))])
					b[stream.IntN(n)] += float64(stream.IntN(3) - 1)
				}
				kept, err := s.Add(append(linalg.Vector(nil), b...))
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.add(b); kept != want {
					t.Fatalf("seed %d step %d: Add kept=%v, reference %v", seed, step, kept, want)
				}
			case op < 8:
				for _, pi := range randomBeliefs(stream.SplitN("query", step), 3, n) {
					want, arg := refScan(ref.planes, pi)
					ref.uses[arg]++
					if got := s.Value(pi); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: Value %v, reference %v", seed, step, got, want)
					}
				}
			default:
				data, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				var back Set
				if err := json.Unmarshal(data, &back); err != nil {
					t.Fatal(err)
				}
				s = &back
				clear(ref.uses) // usage counters are not persisted
			}

			if s.Size() != len(ref.planes) || len(s.cols) != s.Size()*s.n {
				t.Fatalf("seed %d step %d: %d planes in %d column entries, reference %d planes of %d states",
					seed, step, s.Size(), len(s.cols), len(ref.planes), n)
			}
			for i, want := range ref.planes {
				if s.uses[i] != ref.uses[i] {
					t.Fatalf("seed %d step %d: plane %d uses %d, reference %d", seed, step, i, s.uses[i], ref.uses[i])
				}
				for k, got := range s.Plane(i) {
					if math.Float64bits(got) != math.Float64bits(want[k]) {
						t.Fatalf("seed %d step %d: plane %d entry %d = %v, reference %v", seed, step, i, k, got, want[k])
					}
				}
			}
		}
	}
}

// TestSetConcurrentReaders shares one set between goroutines that all call
// ValueBatch, ValueArg and Peek on it, as the server's batch and episode
// controllers do. Every result must equal the single-threaded run bit for
// bit, and the usage counters must total exactly the bumps made. Run it
// under -race: the scan scratch must never be shared between callers.
func TestSetConcurrentReaders(t *testing.T) {
	const n, k, m, workers, rounds = 15, 40, 32, 4, 25
	stream := rng.New(5)
	planes := scanPlanes(stream.Split("planes"), k, n)
	bs := stream.Split("beliefs")
	pis := make([]pomdp.Belief, m)
	for j := range pis {
		pis[j] = scanBelief(bs, n)
	}
	seq, err := NewSet(n, planes...)
	if err != nil {
		t.Fatal(err)
	}
	wantVals, wantArgs := make([]float64, m), make([]int, m)
	for j, pi := range pis {
		wantVals[j], wantArgs[j] = seq.ValueArg(pi)
	}

	shared, err := NewSet(n, planes...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 0, m)
			for round := 0; round < rounds; round++ {
				out = shared.ValueBatch(pis, nil, out)
				for j, pi := range pis {
					v, arg := shared.ValueArg(pi)
					peek := shared.Peek(pi)
					want := math.Float64bits(wantVals[j])
					if math.Float64bits(out[j]) != want || math.Float64bits(v) != want ||
						math.Float64bits(peek) != want || arg != wantArgs[j] {
						t.Errorf("belief %d: batch %v, value %v (plane %d), peek %v; want %v (plane %d)",
							j, out[j], v, arg, peek, wantVals[j], wantArgs[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Each round bumps every belief's maximizer twice (ValueBatch and
	// ValueArg); the single-threaded run bumped it once.
	for i := range shared.uses {
		if want := seq.uses[i] * 2 * workers * rounds; shared.uses[i] != want {
			t.Errorf("plane %d uses %d, want %d", i, shared.uses[i], want)
		}
	}
}
