package blas

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Bitwise differential tests of the unit-stride factorization and solve
// kernels against the row-oriented oracles of factor_oracle_test.go:
// ragged shapes, padded leading dimensions, both precisions and the
// special alphas. Padding rows and the unreferenced triangle hold NaN, so
// a kernel that reads them poisons its output and one that writes them
// changes their bits.

// exactSizes are the ragged orders the table tests sweep.
var exactSizes = []int{0, 1, 2, 3, 7, 33, 130}

// exactAlphas are the Trsm pre-scales, including both signed zeros.
var exactAlphas = []float64{1, -1, 0.5, 0, math.Copysign(0, -1)}

// sameBits reports the first element whose bits differ, or -1 (the
// slices are equally long).
func sameBits[F Float](a, b []F) int {
	if a32, ok := any(a).([]float32); ok {
		return bitsEqual32(a32, any(b).([]float32))
	}
	return bitsEqual64(any(a).([]float64), any(b).([]float64))
}

// exactMatrix returns rows x cols column-major data at leading dimension
// ld: padding rows are NaN, other entries seeded values in [-1, 1) with
// about one in eight an exact signed zero (so the +0 starts of the partial
// sums matter).
func exactMatrix[F Float](rng *rand.Rand, rows, cols, ld int) []F {
	a := make([]F, max(1, ld*cols))
	for i := range a {
		a[i] = F(math.NaN())
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			v := 2*rng.Float64() - 1
			switch rng.Intn(16) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			a[i+j*ld] = F(v)
		}
	}
	return a
}

// exactTriangle returns an n x n triangular A for Trsm: the uplo triangle
// holds seeded values scaled by 1/n under a diagonal of magnitude about n
// (so solves stay well scaled, Unit ones too), the other triangle and the
// padding are NaN, and a Unit diagonal is NaN too (it must never be read).
func exactTriangle[F Float](rng *rand.Rand, uplo, diag byte, n, ld int) []F {
	a := exactMatrix[F](rng, n, n, ld)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			switch {
			case i == j && diag == Unit:
				a[i+j*ld] = F(math.NaN())
			case i == j:
				a[i+j*ld] = F(float64(n) + 1 + rng.Float64())
			case (uplo == Lower) != (i > j):
				a[i+j*ld] = F(math.NaN())
			default:
				a[i+j*ld] /= F(n)
			}
		}
	}
	return a
}

// exactSPD returns an n x n symmetric diagonally dominant matrix whose
// opposite triangle to uplo is NaN.
func exactSPD[F Float](rng *rand.Rand, uplo byte, n, ld int) []F {
	a := exactMatrix[F](rng, n, n, ld)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			a[j+i*ld] = a[i+j*ld]
		}
		a[j+j*ld] = F(float64(n) + 1 + rng.Float64())
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if (uplo == Lower && i < j) || (uplo == Upper && i > j) {
				a[i+j*ld] = F(math.NaN())
			}
		}
	}
	return a
}

// exactDominant returns an n x n diagonally dominant matrix for Getrf.
func exactDominant[F Float](rng *rand.Rand, n, ld int) []F {
	a := exactMatrix[F](rng, n, n, ld)
	for j := 0; j < n; j++ {
		a[j+j*ld] += F(n + 1)
	}
	return a
}

// trsmCombos lists all 16 (side, uplo, trans, diag) combinations.
func trsmCombos() [][4]byte {
	var out [][4]byte
	for _, side := range []byte{Left, Right} {
		for _, uplo := range []byte{Lower, Upper} {
			for _, tr := range []byte{NoTrans, Trans} {
				for _, diag := range []byte{NonUnit, Unit} {
					out = append(out, [4]byte{side, uplo, tr, diag})
				}
			}
		}
	}
	return out
}

// checkTrsmExact runs one Trsm case through the kernel and the oracle.
func checkTrsmExact[F Float](t *testing.T, rng *rand.Rand, combo [4]byte, m, n, padA, padB int, alpha F) {
	t.Helper()
	side, uplo, tr, diag := combo[0], combo[1], combo[2], combo[3]
	na := m
	if side == Right {
		na = n
	}
	lda, ldb := na+padA, m+padB
	if lda < 1 {
		lda = 1
	}
	if ldb < 1 {
		ldb = 1
	}
	a := exactTriangle[F](rng, uplo, diag, na, lda)
	b := exactMatrix[F](rng, m, n, ldb)
	want := append([]F(nil), b...)
	got := append([]F(nil), b...)
	errG := Trsm(side, uplo, tr, diag, m, n, alpha, a, lda, got, ldb)
	if m == 0 || n == 0 {
		// An empty B is left as it is. (The oracle's Right-side row loop
		// slices B past its end here, so it is not consulted.)
		if i := sameBits(got, want); errG != nil || i >= 0 {
			t.Fatalf("trsm %c%c%c%c m=%d n=%d: error %v, element %d changed", side, uplo, tr, diag, m, n, errG, i)
		}
		return
	}
	errW := trsmOracle(side, uplo, tr, diag, m, n, alpha, a, lda, want, ldb)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("trsm %c%c%c%c m=%d n=%d: error %v, oracle %v", side, uplo, tr, diag, m, n, errG, errW)
	}
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("trsm %c%c%c%c m=%d n=%d lda=%d ldb=%d alpha=%v: element %d is %v, oracle %v",
			side, uplo, tr, diag, m, n, lda, ldb, alpha, i, got[i], want[i])
	}
}

// trsmShapes are (m, n) pairs over exactSizes: both orders of every
// ragged pair that keeps a case cheap, plus the squares.
func trsmShapes() [][2]int {
	var out [][2]int
	for _, m := range exactSizes {
		for _, n := range exactSizes {
			if m*n <= 33*130 && (m == n || m*n <= 33*33 || m == 130 || n == 130) {
				out = append(out, [2]int{m, n})
			}
		}
	}
	return out
}

// underKernelPins runs f on the kernels this host resolves and again with
// every kernel pinned to portable Go, so the native element-wise
// primitives and the Go loops both meet the oracle.
func underKernelPins(t *testing.T, f func(t *testing.T)) {
	for _, pin := range []string{"", "generic"} {
		label := pin
		if label == "" {
			label = "resolved"
		}
		t.Run(label, func(t *testing.T) {
			resetKernels(t)
			t.Setenv(KernelEnv, pin)
			f(t)
		})
	}
}

func TestTrsmMatchesOracle(t *testing.T) {
	underKernelPins(t, func(t *testing.T) {
		for _, combo := range trsmCombos() {
			t.Run(fmt.Sprintf("%c%c%c%c", combo[0], combo[1], combo[2], combo[3]), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(combo[0])<<24 | int64(combo[1])<<16 | int64(combo[2])<<8 | int64(combo[3])))
				for _, mn := range trsmShapes() {
					for k, alpha := range exactAlphas {
						padA, padB := k%3, (k+1)%3
						checkTrsmExact(t, rng, combo, mn[0], mn[1], padA, padB, alpha)
						checkTrsmExact(t, rng, combo, mn[0], mn[1], padB, padA, float32(alpha))
					}
				}
			})
		}
	})
}

// checkFactorExact runs Potrf (both uplos) and Getrf of order n at
// leading dimension n+pad through the kernels and the oracles.
func checkFactorExact[F Float](t *testing.T, rng *rand.Rand, n, pad int) {
	t.Helper()
	ld := max(1, n+pad)
	for _, uplo := range []byte{Lower, Upper} {
		a := exactSPD[F](rng, uplo, n, ld)
		want := append([]F(nil), a...)
		got := append([]F(nil), a...)
		errW := potrfOracle(uplo, n, want, ld)
		errG := Potrf(uplo, n, got, ld)
		if errW != nil || errG != nil {
			t.Fatalf("potrf %c n=%d: error %v, oracle %v", uplo, n, errG, errW)
		}
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("potrf %c n=%d ld=%d: element %d is %v, oracle %v", uplo, n, ld, i, got[i], want[i])
		}
	}
	a := exactDominant[F](rng, n, ld)
	want := append([]F(nil), a...)
	got := append([]F(nil), a...)
	errW := getrfOracle(n, want, ld)
	errG := Getrf(n, got, ld)
	if errW != nil || errG != nil {
		t.Fatalf("getrf n=%d: error %v, oracle %v", n, errG, errW)
	}
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("getrf n=%d ld=%d: element %d is %v, oracle %v", n, ld, i, got[i], want[i])
	}
}

func TestFactorMatchesOracle(t *testing.T) {
	underKernelPins(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, n := range exactSizes {
			for pad := 0; pad < 3; pad++ {
				checkFactorExact[float64](t, rng, n, pad)
				checkFactorExact[float32](t, rng, n, pad)
			}
		}
	})
}

// TestFactorFailureMatchesOracle pins the state a failed factorization
// leaves behind: the kernels stop at the same pivot as the oracles, with
// the same bits in the columns up to it (Potrf: in the whole matrix).
func TestFactorFailureMatchesOracle(t *testing.T) {
	const n, ld, bad = 9, 11, 5
	rng := rand.New(rand.NewSource(43))
	for _, uplo := range []byte{Lower, Upper} {
		a := exactSPD[float64](rng, uplo, n, ld)
		a[bad+bad*ld] = -float64(n * n)
		want := append([]float64(nil), a...)
		got := append([]float64(nil), a...)
		errW := potrfOracle(uplo, n, want, ld)
		errG := Potrf(uplo, n, got, ld)
		if !errors.Is(errG, ErrNotPositiveDefinite) || errG.Error() != errW.Error() {
			t.Fatalf("potrf %c: error %v, oracle %v", uplo, errG, errW)
		}
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("potrf %c: element %d is %v, oracle %v", uplo, i, got[i], want[i])
		}
	}
	// Row bad equal to row bad-1 zeroes pivot bad exactly. The kernel is
	// left-looking, so the columns past the failing one are unspecified;
	// the factored columns and the failing one match the oracle.
	a := exactDominant[float64](rng, n, ld)
	for c := 0; c < n; c++ {
		a[bad+c*ld] = a[bad-1+c*ld]
	}
	want := append([]float64(nil), a...)
	got := append([]float64(nil), a...)
	errW := getrfOracle(n, want, ld)
	errG := Getrf(n, got, ld)
	if !errors.Is(errG, ErrSingular) || !errors.Is(errW, ErrSingular) || !strings.Contains(errG.Error(), fmt.Sprintf("at %d", bad)) {
		t.Fatalf("getrf: error %v, oracle %v", errG, errW)
	}
	if i := sameBits(got[:(bad+1)*ld], want[:(bad+1)*ld]); i >= 0 {
		t.Fatalf("getrf: element %d is %v, oracle %v", i, got[i], want[i])
	}
}

// TestFactorSolveSteadyStateAllocs gates the pooled scratch: warm Trsm
// (each side), Potrf and Getrf calls allocate nothing. Each run restores
// the operand first, so the in-place kernels always see the same input.
func TestFactorSolveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so the scratch vectors cannot pin 0 allocs")
	}
	// spd serves as every kernel's A: Trsm reads only its lower triangle.
	const n = 96
	spd := benchSPD(n)
	rhs := exactMatrix[float64](rand.New(rand.NewSource(47)), n, n, n)
	work := make([]float64, n*n)
	cases := []struct {
		name string
		run  func() error
	}{
		{"trsm-left", func() error {
			copy(work, rhs)
			return Trsm(Left, Lower, NoTrans, NonUnit, n, n, 0.5, spd, n, work, n)
		}},
		{"trsm-left-rows", func() error {
			copy(work, rhs)
			return Trsm(Left, Lower, Trans, NonUnit, n, n, 0.5, spd, n, work, n)
		}},
		{"trsm-right", func() error {
			copy(work, rhs)
			return Trsm(Right, Lower, Trans, NonUnit, n, n, 1, spd, n, work, n)
		}},
		{"potrf-lower", func() error {
			copy(work, spd)
			return Potrf(Lower, n, work, n)
		}},
		{"potrf-upper", func() error {
			copy(work, spd)
			return Potrf(Upper, n, work, n)
		}},
		{"getrf", func() error {
			copy(work, spd)
			return Getrf(n, work, n)
		}},
	}
	for _, c := range cases {
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(5, func() { _ = c.run() })
		if allocs > 0 {
			t.Errorf("steady-state %s allocates %.1f objects/op, want 0", c.name, allocs)
		}
	}
}
