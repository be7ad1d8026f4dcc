package blas

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// spdMatrix builds a symmetric positive-definite n x n matrix M·M^T + n·I.
func spdMatrix(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64() - 0.5
	}
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[i+k*n] * m[j+k*n]
			}
			a[i+j*n] = s
		}
		a[j+j*n] += float64(n)
	}
	return a
}

func TestPotrfLowerReconstructs(t *testing.T) {
	const n = 17
	a := spdMatrix(n, 3)
	l := append([]float64(nil), a...)
	if err := Potrf(Lower, n, l, n); err != nil {
		t.Fatalf("Potrf: %v", err)
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += l[i+k*n] * l[j+k*n]
			}
			if d := math.Abs(s - a[i+j*n]); d > 1e-9 {
				t.Fatalf("L·L^T mismatch at (%d,%d): |%g - %g| = %g", i, j, s, a[i+j*n], d)
			}
		}
	}
	// The strict upper triangle must be untouched.
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if l[i+j*n] != a[i+j*n] {
				t.Fatalf("upper triangle modified at (%d,%d)", i, j)
			}
		}
	}
}

func TestPotrfUpperMatchesLower(t *testing.T) {
	const n = 11
	a := spdMatrix(n, 7)
	lo := append([]float64(nil), a...)
	up := append([]float64(nil), a...)
	if err := Potrf(Lower, n, lo, n); err != nil {
		t.Fatalf("Potrf lower: %v", err)
	}
	if err := Potrf(Upper, n, up, n); err != nil {
		t.Fatalf("Potrf upper: %v", err)
	}
	// U must equal L^T on the referenced triangles.
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if d := math.Abs(lo[i+j*n] - up[j+i*n]); d > 1e-12 {
				t.Fatalf("U != L^T at (%d,%d): %g vs %g", i, j, lo[i+j*n], up[j+i*n])
			}
		}
	}
}

func TestPotrfNotPositiveDefinite(t *testing.T) {
	a := []float64{1, 2, 2, 1} // eigenvalues 3, -1
	err := Potrf(Lower, 2, a, 2)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestGetrfReconstructs(t *testing.T) {
	const n = 13
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64() - 0.5
	}
	// Diagonal dominance keeps every unpivoted leading minor nonsingular.
	for j := 0; j < n; j++ {
		a[j+j*n] += float64(n)
	}
	lu := append([]float64(nil), a...)
	if err := Getrf(n, lu, n); err != nil {
		t.Fatalf("Getrf: %v", err)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s float64
			for k := 0; k <= min(i, j); k++ {
				l := lu[i+k*n]
				if k == i {
					l = 1
				}
				s += l * lu[k+j*n]
			}
			if d := math.Abs(s - a[i+j*n]); d > 1e-9 {
				t.Fatalf("L·U mismatch at (%d,%d): %g", i, j, d)
			}
		}
	}
}

func TestGetrfSingular(t *testing.T) {
	a := []float64{0, 1, 1, 0}
	if err := Getrf(2, a, 2); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// TestFactorRejectsBadPivots pins the pivot checks: an unpivoted LU pivot
// that is zero or not finite is singular (a tiny pivot overflows the
// multipliers, and the infinity lands on a later pivot), and a Cholesky
// pivot that is not > 0 — NaN included — is not positive definite.
func TestFactorRejectsBadPivots(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"getrf subnormal pivot", func() error { return Getrf(2, []float64{1e-310, 1, 1, 1}, 2) }, ErrSingular},
		{"getrf NaN pivot", func() error { return Getrf(2, []float64{nan, 1, 1, 1}, 2) }, ErrSingular},
		{"getrf infinite pivot", func() error { return Getrf(2, []float64{2, 1, 1, inf}, 2) }, ErrSingular},
		{"getrf NaN reaches later pivot", func() error { return Getrf(2, []float64{2, nan, 1, 1}, 2) }, ErrSingular},
		{"sgetrf subnormal pivot", func() error { return Getrf(2, []float32{1e-40, 1, 1, 1}, 2) }, ErrSingular},
		{"potrf lower NaN", func() error { return Potrf(Lower, 1, []float64{nan}, 1) }, ErrNotPositiveDefinite},
		{"potrf upper NaN", func() error { return Potrf(Upper, 1, []float64{nan}, 1) }, ErrNotPositiveDefinite},
		{"potrf lower NaN reaches later pivot", func() error { return Potrf(Lower, 2, []float64{4, nan, 0, 4}, 2) }, ErrNotPositiveDefinite},
		{"potrf upper NaN reaches later pivot", func() error { return Potrf(Upper, 2, []float64{4, 0, nan, 4}, 2) }, ErrNotPositiveDefinite},
		{"spotrf NaN", func() error { return Potrf(Lower, 1, []float32{float32(nan)}, 1) }, ErrNotPositiveDefinite},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); !errors.Is(err, c.want) {
				t.Fatalf("want %v, got %v", c.want, err)
			}
		})
	}
}
