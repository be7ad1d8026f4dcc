package sched

import (
	"errors"
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/plan"
)

// The tiled factorization entry points. Each follows the gemm pattern —
// validate, build (or match) the task-graph plan, replay it on the
// context's streams — so the factorizations get plan caching, pending
// (enqueue-only) composition and tape replay for free.

// CholeskyOpts parameterizes a tiled Cholesky invocation: the in-place
// lower-triangular factorization A = L*L^T of the N x N matrix A.
type CholeskyOpts struct {
	Dtype kernelmodel.Dtype
	N     int
	A     *Matrix
	// T is the square tiling size.
	T int
}

// validateFactorMatrix shares the square-operand checks of the cholesky
// and lu entry points.
func (c *Context) validateFactorMatrix(routine string, dt kernelmodel.Dtype, n, T int, a *Matrix) error {
	if n <= 0 {
		return fmt.Errorf("sched: non-positive %s dimension %d", routine, n)
	}
	if T <= 0 {
		return fmt.Errorf("sched: non-positive tiling size %d", T)
	}
	if err := a.Validate("A", dt, c.backed); err != nil {
		return err
	}
	if a.Rows != n || a.Cols != n {
		return fmt.Errorf("sched: %s operand is %dx%d, want %dx%d", routine, a.Rows, a.Cols, n, n)
	}
	return nil
}

// PlanCholesky validates the invocation and builds its task-graph plan
// without touching the streams.
func (c *Context) PlanCholesky(opts CholeskyOpts) (*plan.Plan, error) {
	if err := c.validateFactorMatrix("cholesky", opts.Dtype, opts.N, opts.T, opts.A); err != nil {
		return nil, err
	}
	return plan.BuildCholesky(plan.CholeskySpec{
		Dtype: opts.Dtype, N: opts.N, LocA: opts.A.Loc, T: opts.T,
	}), nil
}

// matchFactorPlan checks that a replayed square-factorization plan was
// built for this invocation.
func matchFactorPlan(p *plan.Plan, routine string, dt kernelmodel.Dtype, n, T int, a *Matrix) error {
	if p == nil {
		return errors.New("sched: nil plan")
	}
	if p.Routine != routine || p.Dtype != dt || p.M != n || p.N != n ||
		p.T != T || p.Locs[0] != a.Loc {
		return fmt.Errorf("sched: %s plan does not match the invocation", routine)
	}
	return nil
}

// Cholesky executes the tiled factorization with square tiling size
// opts.T, then synchronizes and reports the run. On backed contexts A's
// lower triangle is overwritten by L. Tiles strictly above the diagonal
// are never touched; above-diagonal entries inside diagonal tiles hold
// intermediate update values on return (the SYRK payload writes full
// tiles — see cudart.PayloadSyrk).
func (c *Context) Cholesky(opts CholeskyOpts) (Result, error) {
	p, err := c.PlanCholesky(opts)
	if err != nil {
		return Result{}, err
	}
	return c.RunPlan(p, []plan.Arg{{Mat: opts.A}})
}

// CholeskyEnqueueWith replays a previously built cholesky plan on the
// context's streams without draining the engine.
func (c *Context) CholeskyEnqueueWith(p *plan.Plan, opts CholeskyOpts) (*PendingGemm, error) {
	if err := c.validateFactorMatrix("cholesky", opts.Dtype, opts.N, opts.T, opts.A); err != nil {
		return nil, err
	}
	if err := matchFactorPlan(p, "cholesky", opts.Dtype, opts.N, opts.T, opts.A); err != nil {
		return nil, err
	}
	return c.enqueuePlan(p, []plan.Arg{{Mat: opts.A}})
}

// LUOpts parameterizes a tiled unpivoted LU invocation: the in-place
// factorization A = L*U of the N x N matrix A. The schedule models no row
// exchanges; backed callers supply pivot-free (e.g. diagonally dominant)
// matrices.
type LUOpts struct {
	Dtype kernelmodel.Dtype
	N     int
	A     *Matrix
	T     int
}

// PlanLU validates the invocation and builds its task-graph plan.
func (c *Context) PlanLU(opts LUOpts) (*plan.Plan, error) {
	if err := c.validateFactorMatrix("lu", opts.Dtype, opts.N, opts.T, opts.A); err != nil {
		return nil, err
	}
	return plan.BuildLU(plan.LUSpec{
		Dtype: opts.Dtype, N: opts.N, LocA: opts.A.Loc, T: opts.T,
	}), nil
}

// LU executes the tiled unpivoted factorization, synchronizes and reports
// the run.
func (c *Context) LU(opts LUOpts) (Result, error) {
	p, err := c.PlanLU(opts)
	if err != nil {
		return Result{}, err
	}
	return c.RunPlan(p, []plan.Arg{{Mat: opts.A}})
}

// LUEnqueueWith replays a previously built lu plan without draining the
// engine.
func (c *Context) LUEnqueueWith(p *plan.Plan, opts LUOpts) (*PendingGemm, error) {
	if err := c.validateFactorMatrix("lu", opts.Dtype, opts.N, opts.T, opts.A); err != nil {
		return nil, err
	}
	if err := matchFactorPlan(p, "lu", opts.Dtype, opts.N, opts.T, opts.A); err != nil {
		return nil, err
	}
	return c.enqueuePlan(p, []plan.Arg{{Mat: opts.A}})
}

// TrsmOpts parameterizes a tiled triangular solve A*X = alpha*B with A
// the M x M lower triangle and X overwriting the M x N operand B. The
// planner covers the left/lower/no-trans case; the flags exist so the
// zero value reads as the supported combination and diverging requests
// fail loudly here rather than building a wrong schedule.
type TrsmOpts struct {
	Dtype                    kernelmodel.Dtype
	Side, Uplo, TransA, Diag byte
	M, N                     int
	Alpha                    float64
	A, B                     *Matrix
	T                        int
}

// validateTrsm checks the invocation and returns the normalized diag flag.
func (c *Context) validateTrsm(opts TrsmOpts) (diag byte, err error) {
	if opts.M <= 0 || opts.N <= 0 {
		return 0, fmt.Errorf("sched: non-positive trsm dims %dx%d", opts.M, opts.N)
	}
	if opts.T <= 0 {
		return 0, fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	if opts.Side != 0 && opts.Side != blas.Left {
		return 0, fmt.Errorf("sched: trsm planner covers side %q only, got %q", blas.Left, opts.Side)
	}
	if opts.Uplo != 0 && opts.Uplo != blas.Lower {
		return 0, fmt.Errorf("sched: trsm planner covers uplo %q only, got %q", blas.Lower, opts.Uplo)
	}
	if opts.TransA != 0 && opts.TransA != blas.NoTrans {
		return 0, fmt.Errorf("sched: trsm planner covers trans %q only, got %q", blas.NoTrans, opts.TransA)
	}
	switch opts.Diag {
	case 0, blas.NonUnit:
		diag = blas.NonUnit
	case blas.Unit:
		diag = blas.Unit
	default:
		return 0, fmt.Errorf("sched: bad trsm diag flag %q", opts.Diag)
	}
	dt := opts.Dtype
	if err := opts.A.Validate("A", dt, c.backed); err != nil {
		return 0, err
	}
	if err := opts.B.Validate("B", dt, c.backed); err != nil {
		return 0, err
	}
	if opts.A.Rows != opts.M || opts.A.Cols != opts.M ||
		opts.B.Rows != opts.M || opts.B.Cols != opts.N {
		return 0, errors.New("sched: trsm operand shapes inconsistent with m, n")
	}
	return diag, nil
}

// PlanTrsm validates the invocation and builds its task-graph plan.
func (c *Context) PlanTrsm(opts TrsmOpts) (*plan.Plan, error) {
	diag, err := c.validateTrsm(opts)
	if err != nil {
		return nil, err
	}
	return plan.BuildTrsm(plan.TrsmSpec{
		Dtype: opts.Dtype, Diag: diag, M: opts.M, N: opts.N,
		Alpha: opts.Alpha, LocA: opts.A.Loc, LocB: opts.B.Loc, T: opts.T,
	}), nil
}

// matchTrsmPlan checks that a replayed trsm plan was built for this
// invocation.
func matchTrsmPlan(p *plan.Plan, opts TrsmOpts, diag byte) error {
	if p == nil {
		return errors.New("sched: nil plan")
	}
	if p.Routine != "trsm" || p.Dtype != opts.Dtype || p.Diag != diag ||
		p.M != opts.M || p.N != opts.N || p.T != opts.T ||
		!sameScalar(p.Alpha, opts.Alpha) ||
		p.Locs[0] != opts.A.Loc || p.Locs[1] != opts.B.Loc {
		return errors.New("sched: trsm plan does not match the invocation")
	}
	return nil
}

// Trsm executes the tiled triangular solve, synchronizes and reports the
// run. On backed contexts B is overwritten by X.
func (c *Context) Trsm(opts TrsmOpts) (Result, error) {
	p, err := c.PlanTrsm(opts)
	if err != nil {
		return Result{}, err
	}
	return c.RunPlan(p, []plan.Arg{{Mat: opts.A}, {Mat: opts.B}})
}

// TrsmEnqueueWith replays a previously built trsm plan without draining
// the engine.
func (c *Context) TrsmEnqueueWith(p *plan.Plan, opts TrsmOpts) (*PendingGemm, error) {
	diag, err := c.validateTrsm(opts)
	if err != nil {
		return nil, err
	}
	if err := matchTrsmPlan(p, opts, diag); err != nil {
		return nil, err
	}
	return c.enqueuePlan(p, []plan.Arg{{Mat: opts.A}, {Mat: opts.B}})
}
