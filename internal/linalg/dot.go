package linalg

// dotKernel is the shared inner-product kernel behind Vector.Dot and
// DotUnrolled: a 4-wide unrolled loop feeding a
// SINGLE accumulator. Unrolling with one accumulator keeps the floating-point
// addition sequence identical to the naive loop — term i is always added
// after term i-1 — so results are bit-for-bit the same as before, while the
// unrolled body amortizes loop overhead and lets the compiler eliminate three
// of every four bound checks.
//
// Callers are responsible for length checking; x and y must be the same
// length.
func dotKernel(x, y []float64) float64 {
	var s float64
	i := 0
	y = y[:len(x)] // hoist the bound proof for the unrolled body
	for ; i+4 <= len(x); i += 4 {
		s += x[i] * y[i]
		s += x[i+1] * y[i+1]
		s += x[i+2] * y[i+2]
		s += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// DotUnrolled computes the inner product of two equal-length slices with the
// unrolled single-accumulator kernel. It is exported for packed storage
// that holds its vectors as raw []float64 rows rather than Vectors (the
// bounds.UpperBound sawtooth points). It panics on length mismatch, like
// Vector.Dot.
func DotUnrolled(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(dotMismatch(len(x), len(y)))
	}
	return dotKernel(x, y)
}
