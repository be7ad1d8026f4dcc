package blas

// This file holds the unblocked dense factorization and triangular solve
// kernels. They are the functional payloads of the simulated GPU's
// diagonal-tile and panel kernels (POTRF/GETRF/TRSM): the tiled
// factorization planners decompose a matrix into tile task graphs whose
// diagonal factorizations and panel solves land here, while the trailing
// updates reuse Syrk/Gemm.
//
// Exactness contract: every output element sees exactly the floating-point
// operations of the textbook row-oriented loops (factor_oracle_test.go),
// in the same order — its partial sum starts at +0 and takes its terms in
// ascending index order, then one subtract and (NonUnit) one divide. Only
// the loop nesting differs: every innermost loop walks a contiguous
// column (or a contiguous copy of a row), with the partial sums of whole
// columns held in scratch vectors — four target columns at a time where
// the dependencies allow, so each source column is loaded once per group
// — so results are bitwise identical to the oracle while the memory
// access has unit stride.

import (
	"errors"
	"fmt"
	"math"
)

// badWrap wraps a sentinel error with formatted detail.
func badWrap(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
}

// ErrNotPositiveDefinite is wrapped by Potrf when a leading minor is not
// positive definite (its pivot is not > 0, NaN included).
var ErrNotPositiveDefinite = errors.New("blas: matrix not positive definite")

// ErrSingular is wrapped by Getrf when a pivot is zero or not finite.
var ErrSingular = errors.New("blas: matrix is singular")

// scaledOps runs the element-wise updates y[i] ±= x[i]*u of one
// factorization or solve call, over one column or four: on the native
// primitives of the exact kernel F resolves to when it has them, else as
// portable Go loops. Either way each element takes one rounded multiply
// and one rounded add or subtract, so the bits do not depend on which
// runs (and the generic kernel pin keeps every call in Go).
type scaledOps[F Float] struct {
	p *scaledPrims64 // non-nil only when F is float64 itself
}

// scaledOpsFor resolves the primitives for F. An unusable kernel pin
// leaves the portable loops; it fails Gemm calls, not these kernels.
// (kernelFor resolves named float types to the generic kernel, whose
// primitives are nil.)
func scaledOpsFor[F Float]() scaledOps[F] {
	sel, err := kernelFor[F](KernelExact)
	if err != nil {
		return scaledOps[F]{}
	}
	return scaledOps[F]{p: sel.scaled64}
}

// as64 views F-typed slices as []float64; valid when o.p is non-nil.
func as64[F Float](y, x *[]F) ([]float64, []float64) {
	y64, _ := asTyped[float64](y)
	x64, _ := asTyped[float64](x)
	return y64, x64
}

// add computes y[i] += x[i]*u for every i of y.
func (o scaledOps[F]) add(y, x []F, u F) {
	if o.p != nil {
		y64, x64 := as64(&y, &x)
		o.p.add(y64, x64[:len(y64)], float64(u))
		return
	}
	x = x[:len(y)]
	for i, v := range x {
		y[i] += v * u
	}
}

// sub computes y[i] -= x[i]*u for every i of y.
func (o scaledOps[F]) sub(y, x []F, u F) {
	if o.p != nil {
		y64, x64 := as64(&y, &x)
		o.p.sub(y64, x64[:len(y64)], float64(u))
		return
	}
	x = x[:len(y)]
	for i, v := range x {
		y[i] -= v * u
	}
}

// add4 computes y[i+c*ldy] += x[i]*u[c] for every i of x and c < 4.
func (o scaledOps[F]) add4(x, y []F, ldy int, u [4]F) {
	if len(x) == 0 {
		return
	}
	y = y[:3*ldy+len(x)]
	if o.p != nil {
		y64, x64 := as64(&y, &x)
		o.p.add4(x64, y64, ldy, [4]float64{float64(u[0]), float64(u[1]), float64(u[2]), float64(u[3])})
		return
	}
	for c, uc := range u {
		yc := y[c*ldy : c*ldy+len(x)]
		for i, v := range x {
			yc[i] += v * uc
		}
	}
}

// sub4 computes y[i+c*ldy] -= x[i]*u[c] for every i of x and c < 4.
func (o scaledOps[F]) sub4(x, y []F, ldy int, u [4]F) {
	if len(x) == 0 {
		return
	}
	y = y[:3*ldy+len(x)]
	if o.p != nil {
		y64, x64 := as64(&y, &x)
		o.p.sub4(x64, y64, ldy, [4]float64{float64(u[0]), float64(u[1]), float64(u[2]), float64(u[3])})
		return
	}
	for c, uc := range u {
		yc := y[c*ldy : c*ldy+len(x)]
		for i, v := range x {
			yc[i] -= v * uc
		}
	}
}

// dot returns the sum of x[i]*y[i] over ascending i, starting from +0.
func dot[F Float](x, y []F) F {
	y = y[:len(x)]
	var s F
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// scratchVec returns a pooled scratch vector of n elements with undefined
// contents and the pool slot to return it to. Exotic Float types allocate.
func scratchVec[F Float](n int) ([]F, *gemmBuffers) {
	bufs := gemmBufPool.Get().(*gemmBuffers)
	s, _ := packSlices[F](bufs, n, 0)
	return s, bufs
}

// Potrf computes the in-place Cholesky factorization of the n x n matrix A:
// A = L*L^T (uplo Lower, L written to the lower triangle) or A = U^T*U
// (uplo Upper). Only the referenced triangle is read and written; the
// opposite triangle is left untouched. A pivot that is not > 0 (NaN
// included) fails with ErrNotPositiveDefinite.
func Potrf[F Float](uplo byte, n int, a []F, lda int) error {
	if uplo != Upper && uplo != Lower {
		return badShape("potrf: bad uplo %q", uplo)
	}
	if err := checkMatrix("A", n, n, lda, a); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if uplo == Lower {
		// Left-looking, four columns at a time: sb holds the partial sums
		// s[i] = sum_k L[i,k]·L[jj,k] of rows i >= j for each group
		// column jj = j+q (at sb[q*r + i-j]). The columns factored before
		// the group add their terms to all four sums with one pass down
		// each column; then each group column adds the terms of the group
		// columns before it and is finalized, so every sum takes its
		// terms in ascending k.
		ops := scaledOpsFor[F]()
		s, bufs := scratchVec[F](4 * n)
		defer gemmBufPool.Put(bufs)
		for j := 0; j < n; {
			nb, r := min(4, n-j), n-j
			if nb < 4 {
				nb = 1
			}
			sb := s[:nb*r]
			clear(sb)
			for k := 0; k < j; k++ {
				col := a[j+k*lda : n+k*lda]
				if nb == 4 {
					ops.add4(col, sb, r, [4]F{col[0], col[1], col[2], col[3]})
				} else {
					ops.add(sb, col, col[0])
				}
			}
			for q := 0; q < nb; q++ {
				jj := j + q
				sq := sb[q*r+q : (q+1)*r] // rows jj..n-1
				for k := j; k < jj; k++ {
					col := a[jj+k*lda : n+k*lda]
					ops.add(sq, col, col[0])
				}
				// Diagonal: a[jj,jj] = sqrt(a[jj,jj] - sum_k L[jj,k]²).
				d := a[jj+jj*lda] - sq[0]
				if !(d > 0) {
					return errorMinor(jj)
				}
				d = F(math.Sqrt(float64(d)))
				col := a[jj+jj*lda : n+jj*lda]
				col[0] = d
				// Column below: L[i,jj] = (a[i,jj] - s[i]) / d.
				for i := 1; i < len(col); i++ {
					col[i] = (col[i] - sq[i]) / d
				}
			}
			j += nb
		}
		return nil
	}
	// Upper: factor the transposed problem over the upper triangle; both
	// operands of every dot product are contiguous stored columns.
	for j := 0; j < n; j++ {
		colJ := a[j*lda : j*lda+j]
		d := a[j+j*lda] - dot(colJ, colJ)
		if !(d > 0) {
			return errorMinor(j)
		}
		d = F(math.Sqrt(float64(d)))
		a[j+j*lda] = d
		for i := j + 1; i < n; i++ {
			a[j+i*lda] = (a[j+i*lda] - dot(colJ, a[i*lda:i*lda+j])) / d
		}
	}
	return nil
}

func errorMinor(j int) error {
	return badWrap(ErrNotPositiveDefinite, "leading minor of order %d", j+1)
}

// Getrf computes the in-place unpivoted LU factorization of the n x n
// matrix A = L*U with L unit lower triangular (its unit diagonal is not
// stored) and U upper triangular. Without pivoting the factorization
// requires every leading minor to be nonsingular — callers supply
// diagonally dominant (or otherwise pivot-free) matrices, matching the
// tiled right-looking planner, which models no row exchanges. A pivot that
// is zero or not finite fails with ErrSingular; the columns past it are
// then left partly updated.
//
// The loops are left-looking, four columns at a time: each factored
// column k subtracts L[k+1:n, k]·U[k, c] from the group's columns c in
// one pass down column k, then each group column takes the updates of the
// group columns before it and is scaled by its pivot. Element (i,c) still
// receives a[i,c] -= L[i,k]·U[k,c] once per k < min(i,c), in ascending k,
// then (below the diagonal) the divide, as in the textbook right-looking
// order.
func Getrf[F Float](n int, a []F, lda int) error {
	if err := checkMatrix("A", n, n, lda, a); err != nil {
		return err
	}
	ops := scaledOpsFor[F]()
	for j := 0; j < n; {
		nb := min(4, n-j)
		if nb < 4 {
			nb = 1
		}
		for k := 0; k < j; k++ {
			l := a[k+1+k*lda : n+k*lda]
			if nb == 4 {
				ops.sub4(l, a[k+1+j*lda:], lda,
					[4]F{a[k+j*lda], a[k+(j+1)*lda], a[k+(j+2)*lda], a[k+(j+3)*lda]})
			} else {
				ops.sub(a[k+1+j*lda:n+j*lda], l, a[k+j*lda])
			}
		}
		for c := j; c < j+nb; c++ {
			for k := j; k < c; k++ {
				ops.sub(a[k+1+c*lda:n+c*lda], a[k+1+k*lda:n+k*lda], a[k+c*lda])
			}
			p := a[c+c*lda]
			if p == 0 || math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
				return badWrap(ErrSingular, "pivot %v at %d", p, c)
			}
			l := a[c+1+c*lda : n+c*lda]
			for i := range l {
				l[i] /= p
			}
		}
		j += nb
	}
	return nil
}

// Trsm solves op(A)*X = alpha*B (side Left) or X*op(A) = alpha*B (side
// Right) for X, overwriting B, where A is triangular per uplo/diag and
// B is m x n.
func Trsm[F Float](side, uplo, transA, diag byte, m, n int, alpha F, a []F, lda int, b []F, ldb int) error {
	if side != Left && side != Right {
		return badShape("trsm: bad side %q", side)
	}
	if uplo != Upper && uplo != Lower {
		return badShape("trsm: bad uplo %q", uplo)
	}
	if err := checkTrans("trsm", transA); err != nil {
		return err
	}
	if diag != Unit && diag != NonUnit {
		return badShape("trsm: bad diag %q", diag)
	}
	na := m
	if side == Right {
		na = n
	}
	if err := checkMatrix("A", na, na, lda, a); err != nil {
		return err
	}
	if err := checkMatrix("B", m, n, ldb, b); err != nil {
		return err
	}
	if alpha != 1 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				b[i+j*ldb] *= alpha
			}
		}
	}
	if m == 0 || n == 0 {
		return nil
	}
	// Effective triangle orientation after the transpose.
	lower := (uplo == Lower) != (transA == Trans)
	trans, unit := transA == Trans, diag == Unit
	switch {
	case side == Right:
		trsmRight(lower, trans, unit, m, n, a, lda, b, ldb)
	case lower && !trans:
		trsmLeftLowerCols(unit, m, n, a, lda, b, ldb)
	default:
		trsmLeftRows(lower, trans, unit, m, n, a, lda, b, ldb)
	}
	return nil
}

// trsmRight solves X*op(A) = B one column of X at a time, in dependency
// order: ascending when op(A) is upper, descending when it is lower. Row r
// of column c needs sum_l op(A)[l,c]·X[r,l] over the already solved
// columns l in ascending order, so a scratch vector over all m rows takes
// those terms as unit-stride column axpys before column c is finalized.
// Ascending solves go four target columns at a time: the terms of the
// columns solved before the group load each B column once for all four
// sums, then the group's own columns are solved in order, each adding
// the terms of the ones before it — still every sum in ascending l.
func trsmRight[F Float](lower, trans, unit bool, m, n int, a []F, lda int, b []F, ldb int) {
	ops := scaledOpsFor[F]()
	s, bufs := scratchVec[F](4 * m)
	defer gemmBufPool.Put(bufs)
	if lower {
		for c := n - 1; c >= 0; c-- {
			clear(s[:m])
			trsmRightCol(ops, trans, unit, m, c, c+1, n, a, lda, b, ldb, s[:m])
		}
		return
	}
	c := 0
	for ; c+4 <= n; c += 4 {
		s4 := s[:4*m]
		clear(s4)
		for l := 0; l < c; l++ {
			u := [4]F{opAt(trans, a, lda, l, c), opAt(trans, a, lda, l, c+1),
				opAt(trans, a, lda, l, c+2), opAt(trans, a, lda, l, c+3)}
			ops.add4(b[l*ldb:l*ldb+m], s4, m, u)
		}
		for q := 0; q < 4; q++ {
			trsmRightCol(ops, trans, unit, m, c+q, c, c+q, a, lda, b, ldb, s4[q*m:(q+1)*m])
		}
	}
	for ; c < n; c++ {
		clear(s[:m])
		trsmRightCol(ops, trans, unit, m, c, 0, c, a, lda, b, ldb, s[:m])
	}
}

// opAt returns op(A)[l,c].
func opAt[F Float](trans bool, a []F, lda, l, c int) F {
	if trans {
		return a[c+l*lda]
	}
	return a[l+c*lda]
}

// trsmRightCol adds the terms of the solved columns [lo, hi) to column
// c's partial sums sc, in ascending order, then finalizes column c.
func trsmRightCol[F Float](ops scaledOps[F], trans, unit bool, m, c, lo, hi int, a []F, lda int, b []F, ldb int, sc []F) {
	for l := lo; l < hi; l++ {
		ops.add(sc, b[l*ldb:l*ldb+m], opAt(trans, a, lda, l, c))
	}
	x := b[c*ldb : c*ldb+m]
	if unit {
		for i := range x {
			x[i] -= sc[i]
		}
		return
	}
	d := a[c+c*lda]
	for i := range x {
		x[i] = (x[i] - sc[i]) / d
	}
}

// trsmLeftLowerCols is forward substitution with A lower and untransposed:
// for each right-hand side, x[l] is finalized in ascending l and at once
// pushed into the pending sums of every row below it with one unit-stride
// axpy down column l of A, so each row takes its terms in ascending l.
// Right-hand sides go four at a time, so each column of A is loaded once
// for all four.
func trsmLeftLowerCols[F Float](unit bool, m, n int, a []F, lda int, b []F, ldb int) {
	ops := scaledOpsFor[F]()
	s, bufs := scratchVec[F](4 * m)
	defer gemmBufPool.Put(bufs)
	j := 0
	for ; j+4 <= n; j += 4 {
		s4 := s[:4*m]
		clear(s4)
		for l := 0; l < m; l++ {
			var u [4]F
			for q := range u {
				x := b[(j+q)*ldb : (j+q)*ldb+m]
				v := x[l] - s4[l+q*m]
				if !unit {
					v /= a[l+l*lda]
				}
				x[l], u[q] = v, v
			}
			ops.add4(a[l+1+l*lda:m+l*lda], s4[l+1:], m, u)
		}
	}
	for ; j < n; j++ {
		x := b[j*ldb : j*ldb+m]
		s1 := s[:m]
		clear(s1)
		for l := 0; l < m; l++ {
			v := x[l] - s1[l]
			if !unit {
				v /= a[l+l*lda]
			}
			x[l] = v
			ops.add(s1[l+1:m], a[l+1+l*lda:m+l*lda], v)
		}
	}
}

// trsmLeftRows covers the remaining Left cases with one dot product per
// element against a contiguous row of op(A): for a transposed A the rows
// of op(A) are stored columns; for an untransposed upper A they are copied
// once per call into a scratch triangle. Upper solves run rows in
// descending order, lower ones ascending; the sum over each row's solved
// entries always ascends.
func trsmLeftRows[F Float](lower, trans, unit bool, m, n int, a []F, lda int, b []F, ldb int) {
	rows, rowLd := a, lda
	if !trans {
		// Upper, untransposed: row i of A (columns i+1..m-1) becomes the
		// contiguous segment rows[i+1+i*m : (i+1)*m].
		t, bufs := scratchVec[F](m * m)
		defer gemmBufPool.Put(bufs)
		for l := 1; l < m; l++ {
			src := a[l*lda : l*lda+l]
			for i, v := range src {
				t[l+i*m] = v
			}
		}
		rows, rowLd = t, m
	}
	for j := 0; j < n; j++ {
		x := b[j*ldb : j*ldb+m]
		for t := 0; t < m; t++ {
			i, lo, hi := m-1-t, m-t, m
			if lower {
				i, lo, hi = t, 0, t
			}
			v := x[i] - dot(rows[lo+i*rowLd:hi+i*rowLd], x[lo:hi])
			if !unit {
				v /= a[i+i*lda]
			}
			x[i] = v
		}
	}
}
