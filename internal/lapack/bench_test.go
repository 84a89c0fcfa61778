package lapack

import (
	"fmt"
	"math/rand"
	"testing"

	"dynacc/internal/blas"
)

func BenchmarkDgeqrf256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	a := randMat(rng, n, n)
	tau := make([]float64, n)
	work := append([]float64(nil), a...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, a)
		Dgeqrf(n, n, work, n, tau, 32)
	}
}

// BenchmarkDgeqrf384 factors at the shape of sim_qr's execute-mode check
// and LAPACK reference (n = 384, nb = 128), counting 4n³/3 flops.
func BenchmarkDgeqrf384(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, nb = 384, 128
	a := randMat(rng, n, n)
	tau := make([]float64, n)
	work := append([]float64(nil), a...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, a)
		Dgeqrf(n, n, work, n, tau, nb)
	}
	b.ReportMetric(4*n*n*n/3*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDpotrf256(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 256
	a := spd(rng, n)
	work := append([]float64(nil), a...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, a)
		if err := Dpotrf(n, work, n, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDlarfb applies one block reflector at the (m, n, k) of sim_qr's
// first execute-mode check panel (384, 256, 128) and of sock_soak's
// (96, 80, 16), counting 4mnk - nk² flops.
func BenchmarkDlarfb(b *testing.B) {
	for _, s := range []struct{ m, n, k int }{{384, 256, 128}, {96, 80, 16}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			v, c := randMat(rng, s.m, s.k), randMat(rng, s.m, s.n)
			tau := make([]float64, s.k)
			Dgeqr2(s.m, s.k, v, s.m, tau, make([]float64, s.k))
			t := make([]float64, s.k*s.k)
			Dlarft(s.m, s.k, v, s.m, tau, t, s.k)
			work := make([]float64, s.n*s.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Dlarfb(blas.Trans, s.m, s.n, s.k, v, s.m, t, s.k, c, s.m, work)
			}
			m, n, k := float64(s.m), float64(s.n), float64(s.k)
			b.ReportMetric((4*m*n*k-n*k*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
		})
	}
}
