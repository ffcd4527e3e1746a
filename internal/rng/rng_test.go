package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(7).Split("x").SplitN("ep", 3)
	b := New(7).Split("x").SplitN("ep", 3)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with identical paths diverged at draw %d", i)
		}
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(7)
	_ = a.Float64() // consume from parent
	childAfter := a.Split("c").Float64()

	b := New(7)
	childFresh := b.Split("c").Float64()
	if childAfter != childFresh {
		t.Error("child stream depends on parent consumption")
	}
}

func TestDifferentLabelsDiffer(t *testing.T) {
	root := New(1)
	x := root.Split("alpha")
	y := root.Split("beta")
	same := 0
	for i := 0; i < 20; i++ {
		if x.Float64() == y.Float64() {
			same++
		}
	}
	if same == 20 {
		t.Error("differently-labeled streams produced identical sequences")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	x, y := New(1), New(2)
	same := 0
	for i := 0; i < 20; i++ {
		if x.Float64() == y.Float64() {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical sequences")
	}
}

func TestPath(t *testing.T) {
	s := New(0).Split("a").SplitN("b", 2)
	if got := s.Path(); got != "/a/b[2]" {
		t.Errorf("Path = %q", got)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(9)
	for i := 0; i < 10; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(11)
	const n, p = 20000, 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-p) > 0.02 {
		t.Errorf("Bernoulli(%v) frequency = %v", p, freq)
	}
}

func TestCategoricalErrors(t *testing.T) {
	s := New(3)
	if _, err := s.Categorical(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := s.Categorical([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := s.Categorical([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
}

func TestCategoricalNeverPicksZeroWeight(t *testing.T) {
	s := New(5)
	for i := 0; i < 5000; i++ {
		idx, err := s.Categorical([]float64{0, 1, 0, 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 && idx != 3 {
			t.Fatalf("sampled zero-weight index %d", idx)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	s := New(13)
	weights := []float64{1, 3, 6}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		idx, err := s.Categorical(weights)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("index %d frequency = %v, want ~%v", i, got, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffle(t *testing.T) {
	s := New(19)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Errorf("shuffle lost elements: %v (was %v)", xs, orig)
	}
}

// TestCategoricalSparseMatchesDense: the sparse draw must equal Categorical
// on the densified row — same index, same stream consumption, and an error
// exactly when the dense draw errs — over random rows (with explicit zeros
// and tiny weights among the stored entries) and seeds.
func TestCategoricalSparseMatchesDense(t *testing.T) {
	gen := New(41)
	for trial := 0; trial < 500; trial++ {
		n := 1 + gen.IntN(12)
		dense := make([]float64, n)
		var cols []int
		var vals []float64
		for c := 0; c < n; c++ {
			if gen.Bernoulli(0.5) {
				continue
			}
			var w float64
			switch gen.IntN(4) {
			case 0: // explicit stored zero
			case 1:
				w = 1e-300 * gen.Float64()
			default:
				w = gen.Float64()
			}
			if trial%50 == 7 {
				w = -w // exercise the negative-weight error
			}
			dense[c] = w
			cols = append(cols, c)
			vals = append(vals, w)
		}
		seed := uint64(gen.IntN(1 << 30))
		ds, ss := New(seed), New(seed)
		for draw := 0; draw < 4; draw++ {
			want, werr := ds.Categorical(dense)
			got, gerr := ss.CategoricalSparse(cols, vals)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("trial %d draw %d: dense err %v, sparse err %v (row %v)", trial, draw, werr, gerr, dense)
			}
			if werr == nil && got != want {
				t.Fatalf("trial %d draw %d: sparse drew %d, dense %d (row %v)", trial, draw, got, want, dense)
			}
		}
		if ds.Float64() != ss.Float64() {
			t.Fatalf("trial %d: sparse and dense draws consumed the stream differently", trial)
		}
	}
}
