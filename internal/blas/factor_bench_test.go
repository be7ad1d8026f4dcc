package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Benchmarks of the factorization and solve payloads at the order of a
// typical diagonal tile. Each iteration restores its operand with one copy
// (O(n²) against the kernel's O(n³)), so the in-place kernels always run
// on the same well-conditioned input.

const factorBenchN = 384

// benchInPlace times run on a fresh copy of src per iteration and reports
// GFLOP/s for flops per call.
func benchInPlace(b *testing.B, flops float64, src []float64, run func(work []float64) error) {
	b.Helper()
	work := make([]float64, len(src))
	copy(work, src)
	if err := run(work); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		_ = run(work)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchSPD returns a symmetric diagonally dominant n x n matrix (both
// triangles stored), fit for Potrf and Getrf.
func benchSPD(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			v := 2*rng.Float64() - 1
			a[i+j*n], a[j+i*n] = v, v
		}
		a[j+j*n] = float64(n)
	}
	return a
}

// BenchmarkTrsm measures the solve variants the tiled planners issue:
// the LU and tiled-trsm left solves and the Cholesky and LU right solves.
func BenchmarkTrsm(b *testing.B) {
	n := factorBenchN
	a := benchSPD(n)
	rng := rand.New(rand.NewSource(2))
	rhs := randSlice(rng, n*n)
	for _, v := range [][4]byte{
		{Left, Lower, NoTrans, Unit},
		{Left, Lower, NoTrans, NonUnit},
		{Right, Lower, Trans, NonUnit},
		{Right, Upper, NoTrans, NonUnit},
	} {
		b.Run(fmt.Sprintf("%c%c%c%c/n=%d", v[0], v[1], v[2], v[3], n), func(b *testing.B) {
			benchInPlace(b, math.Pow(float64(n), 3), rhs, func(work []float64) error {
				return Trsm(v[0], v[1], v[2], v[3], n, n, 1, a, n, work, n)
			})
		})
	}
}

// BenchmarkGetrf measures the unpivoted LU diagonal-tile kernel.
func BenchmarkGetrf(b *testing.B) {
	n := factorBenchN
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		benchInPlace(b, 2*math.Pow(float64(n), 3)/3, benchSPD(n), func(work []float64) error {
			return Getrf(n, work, n)
		})
	})
}

// BenchmarkPotrf measures the Cholesky diagonal-tile kernel, both uplos.
func BenchmarkPotrf(b *testing.B) {
	n := factorBenchN
	for _, uplo := range []byte{Lower, Upper} {
		b.Run(fmt.Sprintf("%c/n=%d", uplo, n), func(b *testing.B) {
			benchInPlace(b, math.Pow(float64(n), 3)/3, benchSPD(n), func(work []float64) error {
				return Potrf(uplo, n, work, n)
			})
		})
	}
}
