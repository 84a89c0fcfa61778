package blas

// The two register-tiled kernels behind Dgemm, Dgemv, Dtrmm and Dtrsm: the
// dot form (dotCols: four dot products against one vector) and the update
// form (axpyChain: one column updated from four source columns a pass).
// Each gives every output element the IEEE operations of the textbook
// one-element-at-a-time loop, in the same order (see the package doc); the
// tiles only change which elements are in flight together and what stays
// in registers.
//
// Wider tiles measured slower: within a basic block the Go compiler
// schedules every product ahead of the additions that consume them, so a
// tile with eight accumulators spills to the stack.

// kc is the most source columns one axpy chain gathers before it runs:
// 128 covers the QR panel width whole, and the chain's multipliers and
// offsets (2 KiB) live on the stack.
const kc = 128

// dotCols adds α·Aᵀx to y for the k×n matrix a: y[j*incY] += α·s_j with
// s_j = Σ_l a[l+j*lda]·x[l*incX] accumulated in l order. With contiguous x
// it takes four columns of A against one pass over x; a strided x, which
// no caller passes, gets one column a pass.
func dotCols(n, k int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64, incY int) {
	j := 0
	for ; incX == 1 && j+4 <= n; j += 4 {
		a0, a1, a2, a3 := a[j*lda:][:k], a[(j+1)*lda:][:k], a[(j+2)*lda:][:k], a[(j+3)*lda:][:k]
		var s0, s1, s2, s3 float64
		for l, xl := range x[:k] {
			s0 += a0[l] * xl
			s1 += a1[l] * xl
			s2 += a2[l] * xl
			s3 += a3[l] * xl
		}
		y[j*incY] += alpha * s0
		y[(j+1)*incY] += alpha * s1
		y[(j+2)*incY] += alpha * s2
		y[(j+3)*incY] += alpha * s3
	}
	for ; j < n; j++ {
		aj := a[j*lda:][:k]
		var s float64
		for l, p := 0, 0; l < k; l, p = l+1, p+incX {
			s += aj[l] * x[p]
		}
		y[j*incY] += alpha * s
	}
}

// chain gathers the nonzero multipliers of a column update y += Σ mult·x
// in order, with each source column's offset into x, and applies them as
// axpyChain passes of up to kc columns.
type chain struct {
	mult [kc]float64
	off  [kc]int
	q    int
}

// add queues mult·x[off:][:len(y)] for y, unless mult is zero.
func (ch *chain) add(mult float64, off int, y, x []float64) {
	if mult == 0 {
		return
	}
	if ch.q == kc {
		ch.flush(y, x)
	}
	ch.mult[ch.q], ch.off[ch.q] = mult, off
	ch.q++
}

// flush applies what add queued to y.
func (ch *chain) flush(y, x []float64) {
	axpyChain(y, ch.mult[:ch.q], ch.off[:ch.q], x)
	ch.q = 0
}

// axpyChain adds mult[q]·x[off[q]:][:len(y)] to y for q in order, four
// source columns a pass and the last one to three one a pass:
// y[i] + m0·x0[i] + m1·x1[i] + … is evaluated left to right, so each y[i]
// sees the same additions as one Daxpy a column.
func axpyChain(y, mult []float64, off []int, x []float64) {
	n := len(y)
	off = off[:len(mult)]
	q := 0
	for ; q+4 <= len(mult); q += 4 {
		m0, m1, m2, m3 := mult[q], mult[q+1], mult[q+2], mult[q+3]
		x0, x1, x2, x3 := x[off[q]:][:n], x[off[q+1]:][:n], x[off[q+2]:][:n], x[off[q+3]:][:n]
		for i := range y {
			y[i] = y[i] + m0*x0[i] + m1*x1[i] + m2*x2[i] + m3*x3[i]
		}
	}
	for ; q < len(mult); q++ {
		m0, x0 := mult[q], x[off[q]:][:n]
		for i := range y {
			y[i] += m0 * x0[i]
		}
	}
}
