package linalg

import (
	"fmt"
	"sort"
	"sync"
)

// Entry is a single coordinate-format matrix entry, used while assembling a
// sparse matrix before conversion to CSR.
type Entry struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. It is immutable after construction;
// build one with NewCSR or via a Builder.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64

	// The column view Col reads: the transpose's compressed columns, built
	// once, on first use, and then shared by every reader of the matrix.
	colOnce sync.Once
	colPtr  []int
	rowIdx  []int
	colVals []float64
}

// NewCSR assembles a CSR matrix of the given shape from coordinate entries.
// Duplicate (row, col) entries are summed. Entries out of range are an error.
func NewCSR(rows, cols int, entries []Entry) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: invalid shape %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of range for %dx%d matrix",
				e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})

	m := &CSR{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, 0, len(sorted)),
		vals:   make([]float64, 0, len(sorted)),
	}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, sorted[i].Col)
			m.vals = append(m.vals, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored (non-zero) entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the entry at (r, c). It is O(log nnz(row)) and intended for
// tests and diagnostics, not hot loops.
func (m *CSR) At(r, c int) float64 {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("linalg: At(%d,%d) out of range for %dx%d", r, c, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	i := sort.SearchInts(m.colIdx[lo:hi], c) + lo
	if i < hi && m.colIdx[i] == c {
		return m.vals[i]
	}
	return 0
}

// MulVec computes dst = m * x. dst must have length m.Rows() and x length
// m.Cols(); dst is returned for chaining. dst and x must not alias.
func (m *CSR) MulVec(dst, x Vector) Vector {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch: matrix %dx%d, x %d, dst %d",
			m.rows, m.cols, len(x), len(dst)))
	}
	for r := 0; r < m.rows; r++ {
		var s float64
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s += m.vals[i] * x[m.colIdx[i]]
		}
		dst[r] = s
	}
	return dst
}

// MulVecT computes dst = mᵀ * x (x has length Rows, dst length Cols).
// This lets callers store a transition matrix row-major by source state and
// still push probability mass forward. dst and x must not alias.
func (m *CSR) MulVecT(dst, x Vector) Vector {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: MulVecT shape mismatch: matrix %dx%d, x %d, dst %d",
			m.rows, m.cols, len(x), len(dst)))
	}
	dst.Fill(0)
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			dst[m.colIdx[i]] += m.vals[i] * xr
		}
	}
	return dst
}

// Row calls fn(col, val) for every stored entry of row r.
func (m *CSR) Row(r int, fn func(col int, val float64)) {
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		fn(m.colIdx[i], m.vals[i])
	}
}

// RowSlice returns row r's stored entries as parallel column-index and value
// slices, sorted by column. The slices alias the matrix's internal storage
// and must not be modified; this is the zero-allocation accessor the hot
// loops (episode sampling, belief updates) iterate instead of the
// closure-based Row.
func (m *CSR) RowSlice(r int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// Col returns column c's stored entries as parallel row-index and value
// slices, sorted by row. The first call builds the column view of the whole
// matrix, once; the slices alias it and must not be modified. Safe for
// concurrent use, like every other read of a CSR.
func (m *CSR) Col(c int) (rows []int, vals []float64) {
	m.colOnce.Do(m.buildCols)
	lo, hi := m.colPtr[c], m.colPtr[c+1]
	return m.rowIdx[lo:hi:hi], m.colVals[lo:hi:hi]
}

// buildCols transposes the stored entries into compressed columns, in two
// passes: count each column's entries, then place them row by row, so each
// column's rows come out ascending.
func (m *CSR) buildCols() {
	m.colPtr = make([]int, m.cols+1)
	for _, c := range m.colIdx {
		m.colPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		m.colPtr[c+1] += m.colPtr[c]
	}
	m.rowIdx = make([]int, len(m.colIdx))
	m.colVals = make([]float64, len(m.vals))
	next := make([]int, m.cols)
	copy(next, m.colPtr)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			k := next[m.colIdx[i]]
			m.rowIdx[k], m.colVals[k] = r, m.vals[i]
			next[m.colIdx[i]]++
		}
	}
}

// RowSum returns the sum of row r's entries, for validating that a
// stochastic matrix's rows sum to one without allocating.
func (m *CSR) RowSum(r int) float64 {
	var s float64
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		s += m.vals[i]
	}
	return s
}

// Dense expands m to a dense row-major matrix, for tests and the LU
// reference solver.
func (m *CSR) Dense() [][]float64 {
	out := make([][]float64, m.rows)
	flat := make([]float64, m.rows*m.cols)
	for r := 0; r < m.rows; r++ {
		out[r] = flat[r*m.cols : (r+1)*m.cols]
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			out[r][m.colIdx[i]] = m.vals[i]
		}
	}
	return out
}

// Builder incrementally accumulates coordinate entries for a CSR matrix.
// The zero value is not usable; create one with NewBuilder.
type Builder struct {
	rows, cols int
	entries    []Entry
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at (r, c). Adding to the same coordinate twice sums.
func (b *Builder) Add(r, c int, v float64) {
	b.entries = append(b.entries, Entry{Row: r, Col: c, Val: v})
}

// Build finalizes the builder into an immutable CSR matrix.
func (b *Builder) Build() (*CSR, error) {
	return NewCSR(b.rows, b.cols, b.entries)
}
