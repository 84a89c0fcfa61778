package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGemm(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, n, n, n)
	bb := randMat(rng, n, n, n)
	c := randMat(rng, n, n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(NoTrans, NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDgemm64(b *testing.B)  { benchGemm(b, 64) }
func BenchmarkDgemm128(b *testing.B) { benchGemm(b, 128) }
func BenchmarkDgemm256(b *testing.B) { benchGemm(b, 256) }

func BenchmarkDtrsm128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 128
	a := makeTriangular(rng, Lower, NonUnit, n, n)
	rhs := randMat(rng, n, n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dtrsm(Left, Lower, NoTrans, NonUnit, n, n, 1, a, n, rhs, n)
	}
}

func BenchmarkDsyrk128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, k := 128, 64
	a := randMat(rng, n, k, n)
	c := randMat(rng, n, n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dsyrk(Lower, NoTrans, n, k, 1, a, n, 0, c, n)
	}
}

// The QR trailing update's two Dgemm calls (lapack.Dlarfb), at the
// (m, n, k) of sim_qr's first check panel (384, 256, 128) and of
// sock_soak's (96, 80, 16): W += C2ᵀV2 (TN, n×k over m-k) and
// C2 -= V2·Wᵀ (NT, (m-k)×n over k).
var larfbShapes = []struct{ m, n, k int }{{384, 256, 128}, {96, 80, 16}}

func benchGemmShape(b *testing.B, tA, tB Transpose, m, n, k int) {
	rng := rand.New(rand.NewSource(5))
	ar, ac, br, bc := m, k, k, n
	if tA == Trans {
		ar, ac = k, m
	}
	if tB == Trans {
		br, bc = n, k
	}
	a, bb, c := randMat(rng, ar, ac, ar), randMat(rng, br, bc, br), randMat(rng, m, n, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(tA, tB, m, n, k, -1, a, ar, bb, br, 1, c, m)
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDgemmTN(b *testing.B) {
	for _, s := range larfbShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), func(b *testing.B) {
			benchGemmShape(b, Trans, NoTrans, s.n, s.k, s.m-s.k)
		})
	}
}

func BenchmarkDgemmNT(b *testing.B) {
	for _, s := range larfbShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), func(b *testing.B) {
			benchGemmShape(b, NoTrans, Trans, s.m-s.k, s.n, s.k)
		})
	}
}
