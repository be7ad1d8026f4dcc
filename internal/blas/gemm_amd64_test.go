//go:build amd64

package blas

import (
	"math"
	"math/rand"
	"testing"
)

// Direct micro-kernel tests: each fused assembly kernel must match a
// scalar math.FMA reference bit for bit on packed panels — VFMADD231
// and math.FMA round identically, so there is no tolerance here. This
// covers kernels the registry shadows on this host (on an AVX-512
// machine the AVX2 float64 kernel never resolves, but it must still be
// correct for the hosts where it does).

// fmaRef64 accumulates c (mrK x 4, column-major, leading dim ldc) with
// one fused rounding per term, mirroring the packed-panel layout the
// kernels consume.
func fmaRef64(kc, mrK int, ap, bp, c []float64, ldc int) {
	for l := 0; l < kc; l++ {
		for j := 0; j < 4; j++ {
			b := bp[l*4+j]
			for i := 0; i < mrK; i++ {
				c[i+j*ldc] = math.FMA(ap[l*mrK+i], b, c[i+j*ldc])
			}
		}
	}
}

func testFusedKernel64(t *testing.T, mrK int, kern func(kc int, a, b, c *float64, ldc int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(mrK)))
	for _, kc := range []int{1, 2, 7, gemmKC} {
		ldc := mrK + 3
		ap := randSlice(rng, mrK*kc)
		bp := randSlice(rng, 4*kc)
		c0 := randSlice(rng, ldc*4)
		want := append([]float64(nil), c0...)
		fmaRef64(kc, mrK, ap, bp, want, ldc)
		got := append([]float64(nil), c0...)
		kern(kc, &ap[0], &bp[0], &got[0], ldc)
		if i := bitsEqual64(got, want); i >= 0 {
			t.Fatalf("kc=%d: kernel differs from math.FMA reference at element %d: %v != %v",
				kc, i, got[i], want[i])
		}
	}
}

func TestDgemmKernel8x4FMADirect(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	testFusedKernel64(t, 8, dgemmKernel8x4FMA)
}

func TestDgemmKernel16x4AVX512Direct(t *testing.T) {
	if !hasAVX512() {
		t.Skip("no AVX-512 on this host")
	}
	testFusedKernel64(t, 16, dgemmKernel16x4AVX512)
}

func TestSgemmKernel16x4FMADirect(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	rng := rand.New(rand.NewSource(5))
	const mrK = 16
	for _, kc := range []int{1, 3, gemmKC} {
		ldc := mrK + 1
		ap := make([]float32, mrK*kc)
		bp := make([]float32, 4*kc)
		c0 := make([]float32, ldc*4)
		for i := range ap {
			ap[i] = float32(rng.NormFloat64())
		}
		for i := range bp {
			bp[i] = float32(rng.NormFloat64())
		}
		for i := range c0 {
			c0[i] = float32(rng.NormFloat64())
		}
		want := append([]float32(nil), c0...)
		for l := 0; l < kc; l++ {
			for j := 0; j < 4; j++ {
				b := bp[l*4+j]
				for i := 0; i < mrK; i++ {
					// One fused rounding per term, in float32: FMA32(a, b, c)
					// is the correctly rounded float32 of the exact a*b+c.
					want[i+j*ldc] = float32(math.FMA(float64(ap[l*mrK+i]), float64(b), float64(want[i+j*ldc])))
				}
			}
		}
		got := append([]float32(nil), c0...)
		sgemmKernel16x4FMA(kc, &ap[0], &bp[0], &got[0], ldc)
		if i := bitsEqual32(got, want); i >= 0 {
			t.Fatalf("kc=%d: kernel differs from FMA reference at element %d: %v != %v",
				kc, i, got[i], want[i])
		}
	}
}

// TestSgemmKernel16x4AVXDirect pins the exact float32 assembly kernel to
// a scalar float32 multiply-then-add reference on packed panels, bit for
// bit, including a kc = 0 call that must leave C as it is.
func TestSgemmKernel16x4AVXDirect(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX on this host")
	}
	rng := rand.New(rand.NewSource(6))
	const mrK = 16
	for _, kc := range []int{0, 1, 3, gemmKC + 5} {
		ldc := mrK + 3
		ap := make([]float32, mrK*kc+1)
		bp := make([]float32, 4*kc+1)
		c0 := make([]float32, ldc*4)
		for i := range ap {
			ap[i] = float32(rng.NormFloat64())
		}
		for i := range bp {
			bp[i] = float32(rng.NormFloat64())
		}
		for i := range c0 {
			c0[i] = float32(rng.NormFloat64())
		}
		want := append([]float32(nil), c0...)
		for l := 0; l < kc; l++ {
			for j := 0; j < 4; j++ {
				b := bp[l*4+j]
				for i := 0; i < mrK; i++ {
					// The conversion rounds the product on its own, so the
					// compiler may not fuse it into the add.
					want[i+j*ldc] += float32(ap[l*mrK+i] * b)
				}
			}
		}
		got := append([]float32(nil), c0...)
		sgemmKernel16x4AVX(kc, &ap[0], &bp[0], &got[0], ldc)
		if i := bitsEqual32(got, want); i >= 0 {
			t.Fatalf("kc=%d: kernel differs from the exact reference at element %d: %v != %v",
				kc, i, got[i], want[i])
		}
	}
}

// TestScaled64AVXDirect pins the element-wise AVX primitives to the
// portable Go loops bit for bit, over every length up to a few unrolled
// blocks and at unaligned offsets, and checks that nothing past len(y)
// (or, for the four-column forms, outside the four column segments) is
// written.
func TestScaled64AVXDirect(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX on this host")
	}
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 53; n++ {
		for off := 0; off < 2; off++ {
			x := randSlice(rng, n+off+1)[off:]
			y0 := randSlice(rng, n+off+1)[off:]
			u := rng.NormFloat64()
			for _, sub := range []bool{false, true} {
				want := append([]float64(nil), y0...)
				got := append([]float64(nil), y0...)
				for i := 0; i < n; i++ {
					if sub {
						want[i] -= float64(x[i] * u)
					} else {
						want[i] += float64(x[i] * u)
					}
				}
				if sub {
					subScaled64AVX(got[:n], x, u)
				} else {
					addScaled64AVX(got[:n], x, u)
				}
				if i := bitsEqual64(got, want); i >= 0 {
					t.Fatalf("n=%d off=%d sub=%v: element %d is %v, want %v", n, off, sub, i, got[i], want[i])
				}
			}
		}
	}
	for n := 0; n <= 21; n++ {
		ldy := n + 3
		x := randSlice(rng, n+1)[1:]
		y0 := randSlice(rng, 4*ldy)
		u := [4]float64{rng.NormFloat64(), rng.NormFloat64(), math.Copysign(0, -1), rng.NormFloat64()}
		for _, sub := range []bool{false, true} {
			want := append([]float64(nil), y0...)
			got := append([]float64(nil), y0...)
			for c := 0; c < 4; c++ {
				for i := 0; i < n; i++ {
					if sub {
						want[i+c*ldy] -= float64(x[i] * u[c])
					} else {
						want[i+c*ldy] += float64(x[i] * u[c])
					}
				}
			}
			if sub {
				subScaled4x64AVX(x, got, ldy, u)
			} else {
				addScaled4x64AVX(x, got, ldy, u)
			}
			if i := bitsEqual64(got, want); i >= 0 {
				t.Fatalf("four columns n=%d sub=%v: element %d is %v, want %v", n, sub, i, got[i], want[i])
			}
		}
	}
}
