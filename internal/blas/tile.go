package blas

// The two register-tiled kernels behind Dgemm, Dgemv, Dtrmm and Dtrsm: the
// dot form (dotCols: eight, then four, dot products against one vector)
// and the update form (axpyChain: one column updated from four source
// columns a pass). Each gives every output element the IEEE operations of
// the textbook one-element-at-a-time loop, in the same order (see the
// package doc); the tiles only change which elements are in flight
// together and what stays in registers.
//
// Their inner loops are axpy4, axpy1 and dot8: SSE2 assembly on amd64
// (tile_amd64.s), two lanes a register, and Go elsewhere or under the
// purego build tag (tile_generic.go). Go alone stops at four columns a
// tile: within a basic block the compiler schedules every product ahead
// of the additions that consume them, so eight scalar accumulators spill
// to the stack. dot8 keeps its eight in four SSE2 registers.

// kc is the most source columns one axpy chain gathers before it runs:
// 128 covers the QR panel width whole, and the chain's multipliers and
// offsets (2 KiB) live on the stack.
const kc = 128

// dotCols adds α·Aᵀx to y for the k×n matrix a: y[j*incY] += α·s_j with
// s_j = Σ_l a[l+j*lda]·x[l*incX] accumulated in l order. With contiguous x
// it takes eight columns of A against one pass over x, then four; a
// strided x (Dgemm with both operands transposed, or Dgemv(Trans) with
// incX > 1) gets one column a pass.
func dotCols(n, k int, alpha float64, a []float64, lda int, x []float64, incX int, y []float64, incY int) {
	j := 0
	if incX == 1 {
		x = x[:k]
		var s [8]float64
		for ; j+8 <= n; j += 8 {
			dot8(&s, a[j*lda:][:7*lda+k], lda, x)
			for c, sc := range s {
				y[(j+c)*incY] += alpha * sc
			}
		}
		for ; j+4 <= n; j += 4 {
			dot4((*[4]float64)(s[:4]), a[j*lda:], lda, x)
			for c, sc := range s[:4] {
				y[(j+c)*incY] += alpha * sc
			}
		}
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

// dot4 sets s[c] to the dot product of a[c*lda:][:len(x)] and x for c < 4,
// each accumulated in l order from +0.
func dot4(s *[4]float64, a []float64, lda int, x []float64) {
	k := len(x)
	a0, a1, a2, a3 := a[:k], a[lda:][:k], a[2*lda:][:k], a[3*lda:][:k]
	var s0, s1, s2, s3 float64
	for l, xl := range x {
		s0 += a0[l] * xl
		s1 += a1[l] * xl
		s2 += a2[l] * xl
		s3 += a3[l] * xl
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
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
// source columns a pass (axpy4) and the last one to three one a pass
// (axpy1): y[i] + m0·x0[i] + m1·x1[i] + … is evaluated left to right, so
// each y[i] sees the same additions as one Daxpy a column.
func axpyChain(y, mult []float64, off []int, x []float64) {
	n := len(y)
	off = off[:len(mult)]
	q := 0
	for ; q+4 <= len(mult); q += 4 {
		axpy4(y, x[off[q]:][:n], x[off[q+1]:][:n], x[off[q+2]:][:n], x[off[q+3]:][:n],
			mult[q], mult[q+1], mult[q+2], mult[q+3])
	}
	for ; q < len(mult); q++ {
		axpy1(y, x[off[q]:][:n], mult[q])
	}
}
