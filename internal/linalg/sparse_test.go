package linalg

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

func TestNewCSRBasics(t *testing.T) {
	m, err := NewCSR(2, 3, []Entry{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 || m.NNZ() != 3 {
		t.Fatalf("shape/nnz = %dx%d/%d", m.Rows(), m.Cols(), m.NNZ())
	}
	wantAt := []struct {
		r, c int
		v    float64
	}{
		{0, 0, 1}, {0, 1, 0}, {0, 2, 2}, {1, 0, 0}, {1, 1, 3}, {1, 2, 0},
	}
	for _, w := range wantAt {
		if got := m.At(w.r, w.c); got != w.v {
			t.Errorf("At(%d,%d) = %v, want %v", w.r, w.c, got, w.v)
		}
	}
}

func TestNewCSRDuplicatesSum(t *testing.T) {
	m, err := NewCSR(1, 1, []Entry{{0, 0, 1}, {0, 0, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 3.5 {
		t.Errorf("duplicate sum = %v, want 3.5", got)
	}
}

func TestNewCSRDropsExplicitZeros(t *testing.T) {
	m, err := NewCSR(1, 2, []Entry{{0, 0, 1}, {0, 1, 0}, {0, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0 (zeros dropped)", m.NNZ())
	}
}

func TestNewCSRRejectsOutOfRange(t *testing.T) {
	tests := []Entry{
		{Row: -1, Col: 0, Val: 1},
		{Row: 2, Col: 0, Val: 1},
		{Row: 0, Col: 3, Val: 1},
	}
	for _, e := range tests {
		if _, err := NewCSR(2, 3, []Entry{e}); err == nil {
			t.Errorf("entry %+v accepted out of range", e)
		}
	}
	if _, err := NewCSR(-1, 1, nil); err == nil {
		t.Error("negative rows accepted")
	}
}

func TestCSRMulVec(t *testing.T) {
	// [1 2 0; 0 0 3] * [1 1 1]ᵀ = [3 3]ᵀ
	m, err := NewCSR(2, 3, []Entry{{0, 0, 1}, {0, 1, 2}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dst := m.MulVec(NewVector(2), Vector{1, 1, 1})
	if dst[0] != 3 || dst[1] != 3 {
		t.Errorf("MulVec = %v, want [3 3]", dst)
	}
}

func TestCSRMulVecT(t *testing.T) {
	// mᵀ * [1 1]ᵀ for m = [1 2 0; 0 0 3] is [1 2 3]ᵀ.
	m, err := NewCSR(2, 3, []Entry{{0, 0, 1}, {0, 1, 2}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dst := m.MulVecT(NewVector(3), Vector{1, 1})
	want := Vector{1, 2, 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVecT = %v, want %v", dst, want)
			break
		}
	}
}

func TestCSRRowIterationAndSums(t *testing.T) {
	m, err := NewCSR(2, 2, []Entry{{0, 0, 0.25}, {0, 1, 0.75}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var cols []int
	m.Row(0, func(c int, v float64) { cols = append(cols, c) })
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 {
		t.Errorf("Row(0) cols = %v", cols)
	}
	if s0, s1 := m.RowSum(0), m.RowSum(1); !almostEqual(s0, 1, 1e-12) || !almostEqual(s1, 1, 1e-12) {
		t.Errorf("RowSum = %v, %v, want 1, 1", s0, s1)
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n, nnz = 8, 20
	entries := make([]Entry, 0, nnz)
	for i := 0; i < nnz; i++ {
		entries = append(entries, Entry{
			Row: rng.IntN(n), Col: rng.IntN(n), Val: rng.Float64() - 0.5,
		})
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dense()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if !almostEqual(d[r][c], m.At(r, c), 1e-12) {
				t.Fatalf("Dense[%d][%d] = %v, At = %v", r, c, d[r][c], m.At(r, c))
			}
		}
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 0.5)
	b.Add(0, 1, 0.5)
	b.Add(1, 0, 1)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); got != 1 {
		t.Errorf("builder accumulated At(0,1) = %v, want 1", got)
	}
}

// Property: MulVec agrees with the dense expansion on random sparse matrices.
func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.IntN(10), 1+rng.IntN(10)
		nnz := rng.IntN(rows * cols)
		entries := make([]Entry, 0, nnz)
		for i := 0; i < nnz; i++ {
			entries = append(entries, Entry{Row: rng.IntN(rows), Col: rng.IntN(cols), Val: rng.NormFloat64()})
		}
		m, err := NewCSR(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		x := NewVector(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(NewVector(rows), x)
		d := m.Dense()
		for r := 0; r < rows; r++ {
			var want float64
			for c := 0; c < cols; c++ {
				want += d[r][c] * x[c]
			}
			if !almostEqual(got[r], want, 1e-9) {
				t.Fatalf("trial %d row %d: MulVec = %v, dense = %v", trial, r, got[r], want)
			}
		}
	}
}

// TestCSRColMatchesRows: every column view holds exactly the stored entries
// of that column, rows ascending, with the row-major values bit for bit,
// also when read from many goroutines at once.
func TestCSRColMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.IntN(10), 1+rng.IntN(10)
		entries := make([]Entry, 0, rows*cols)
		for i := rng.IntN(rows * cols); i > 0; i-- {
			entries = append(entries, Entry{Row: rng.IntN(rows), Col: rng.IntN(cols), Val: rng.NormFloat64()})
		}
		m, err := NewCSR(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Col(0)
			}()
		}
		wg.Wait()
		want := make([][]Entry, cols)
		for r := 0; r < rows; r++ {
			cs, vs := m.RowSlice(r)
			for i, c := range cs {
				want[c] = append(want[c], Entry{Row: r, Col: c, Val: vs[i]})
			}
		}
		for c := 0; c < cols; c++ {
			rs, vs := m.Col(c)
			if len(rs) != len(want[c]) || len(vs) != len(rs) {
				t.Fatalf("trial %d column %d: %d rows, %d values, want %d", trial, c, len(rs), len(vs), len(want[c]))
			}
			for k, e := range want[c] {
				if rs[k] != e.Row || math.Float64bits(vs[k]) != math.Float64bits(e.Val) {
					t.Fatalf("trial %d column %d entry %d: (%d, %v), want (%d, %v)", trial, c, k, rs[k], vs[k], e.Row, e.Val)
				}
			}
		}
	}
}
