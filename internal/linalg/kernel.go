package linalg

import "math"

// SORKernel is the precomputed Gauss-Seidel/SOR sweep kernel shared by the
// fixed-point solvers (the RA-Bound Equation 5 solve, fixed-policy bounds,
// and the MDP value solver). Building one strips the diagonal out of the
// matrix once, so every sweep is a branch-free fused multiply-add walk over
// the off-diagonal CSR entries instead of re-testing `col == row` on every
// entry of every sweep and re-searching for diagonal entries.
//
// The kernel preserves the exact floating-point semantics of the naive
// sweep: off-diagonal entries are visited in the same (ascending-column)
// order, so iterates are bit-for-bit identical to the pre-kernel solver.
type SORKernel struct {
	n      int
	rowPtr []int
	cols   []int
	vals   []float64
	diag   Vector

	// Per-beta sweep plane, rebuilt lazily when beta changes: the row
	// denominators 1−beta·diag[s] and the pinned-row flags they imply. A
	// fixed-point solve sweeps the same beta hundreds of times, so hoisting
	// the denominator computation and the pin test out of the sweep turns
	// the row prologue into two contiguous array loads. The cached values
	// are computed with exactly the sweep's original expression, so iterates
	// stay bit-for-bit identical.
	denomBeta  float64
	denomValid bool
	denom      Vector
	pinned     []bool
}

// NewSORKernel builds the sweep kernel for the square matrix p.
// It panics if p is not square; callers validate shapes first.
func NewSORKernel(p *CSR) *SORKernel {
	n := p.Rows()
	if p.Cols() != n {
		panic("linalg: NewSORKernel needs a square matrix")
	}
	k := &SORKernel{
		n:      n,
		rowPtr: make([]int, n+1),
		cols:   make([]int, 0, p.NNZ()),
		vals:   make([]float64, 0, p.NNZ()),
		diag:   NewVector(n),
	}
	for r := 0; r < n; r++ {
		cols, vals := p.RowSlice(r)
		for i, c := range cols {
			if c == r {
				k.diag[r] = vals[i]
				continue
			}
			k.cols = append(k.cols, c)
			k.vals = append(k.vals, vals[i])
		}
		k.rowPtr[r+1] = len(k.cols)
	}
	return k
}

// Diag returns the matrix diagonal extracted at build time. The slice
// aliases kernel storage and must not be modified.
func (k *SORKernel) Diag() Vector { return k.diag }

// prepare (re)builds the per-beta denominator plane. The expressions match
// the pre-cache sweep prologue exactly, so caching cannot change a single
// bit of any iterate.
func (k *SORKernel) prepare(beta float64) {
	if k.denom == nil {
		k.denom = NewVector(k.n)
		k.pinned = make([]bool, k.n)
	}
	for s := 0; s < k.n; s++ {
		d := 1 - beta*k.diag[s]
		k.denom[s] = d
		k.pinned[s] = d < 1e-14
	}
	k.denomBeta = beta
	k.denomValid = true
}

// Sweep performs one in-place Gauss-Seidel/SOR sweep of
//
//	v[s] ← (1-omega)·v[s] + omega·(r[s] + beta·Σ_{c≠s} P[s,c]·v[c]) / (1 - beta·P[s,s])
//
// over all rows in order, skipping rows whose denominator 1-beta·P[s,s] is
// (numerically) zero — absorbing states, whose value is pinned to 0 by the
// callers. It returns the sup-norm change of the sweep.
//
// The denominators and pin flags are cached per beta (a solve sweeps one
// beta repeatedly), and the off-diagonal gather is 4-wide unrolled into a
// single accumulator like the hyperplane-slab dot kernel — same addition
// order, so iterates are bit-for-bit identical to the plain loop. Sweeping
// mutates the cache bookkeeping, so a kernel must not be shared across
// goroutines (its callers never did).
func (k *SORKernel) Sweep(v, r Vector, beta, omega float64) (maxDelta float64) {
	if !k.denomValid || k.denomBeta != beta {
		k.prepare(beta)
	}
	cols, vals := k.cols, k.vals
	for s := 0; s < k.n; s++ {
		if k.pinned[s] {
			// Absorbing with zero reward: value pinned to 0.
			v[s] = 0
			continue
		}
		var acc float64
		i, end := k.rowPtr[s], k.rowPtr[s+1]
		for ; i+4 <= end; i += 4 {
			acc += vals[i] * v[cols[i]]
			acc += vals[i+1] * v[cols[i+1]]
			acc += vals[i+2] * v[cols[i+2]]
			acc += vals[i+3] * v[cols[i+3]]
		}
		for ; i < end; i++ {
			acc += vals[i] * v[cols[i]]
		}
		gs := (r[s] + beta*acc) / k.denom[s]
		next := (1-omega)*v[s] + omega*gs
		if d := math.Abs(next - v[s]); d > maxDelta {
			maxDelta = d
		}
		v[s] = next
	}
	return maxDelta
}
