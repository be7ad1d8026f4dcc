package sched

import (
	"errors"
	"fmt"

	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/plan"
)

// GemvOpts parameterizes a tiled level-2 invocation
// y = alpha*A*x + beta*y for an M x N matrix A.
type GemvOpts struct {
	M, N        int
	Alpha, Beta float64
	A           *Matrix
	X, Y        *Vector
	// T is the square tiling size applied to both matrix dimensions.
	T int
}

// validateGemv checks the level-2 invocation.
func (c *Context) validateGemv(opts GemvOpts) error {
	if opts.M <= 0 || opts.N <= 0 {
		return fmt.Errorf("sched: non-positive gemv dims %dx%d", opts.M, opts.N)
	}
	if opts.T <= 0 {
		return fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	if err := opts.A.Validate("A", kernelmodel.F64, c.backed); err != nil {
		return err
	}
	if err := opts.X.Validate("x", c.backed); err != nil {
		return err
	}
	if err := opts.Y.Validate("y", c.backed); err != nil {
		return err
	}
	if opts.A.Rows != opts.M || opts.A.Cols != opts.N || opts.X.N != opts.N || opts.Y.N != opts.M {
		return errors.New("sched: operand shapes inconsistent with m, n")
	}
	return nil
}

// PlanGemv validates the invocation and builds its level-2 plan.
func (c *Context) PlanGemv(opts GemvOpts) (*plan.Plan, error) {
	if err := c.validateGemv(opts); err != nil {
		return nil, err
	}
	return plan.BuildGemv(plan.GemvSpec{
		M: opts.M, N: opts.N,
		Alpha: opts.Alpha, Beta: opts.Beta,
		LocA: opts.A.Loc, LocX: opts.X.Loc, LocY: opts.Y.Loc,
		T: opts.T,
	}), nil
}

// gemvArgs binds the gemv operands in plan argument order.
func gemvArgs(opts GemvOpts) []plan.Arg {
	return []plan.Arg{{Mat: opts.A}, {Vec: opts.X}, {Vec: opts.Y}}
}

// Gemv executes the level-2 path of the tile scheduler (Section III-C:
// two tiled dimensions, square tiling, modest vector reuse): A is split
// into TxT tiles each fetched once, x chunks are fetched once and reused
// down each tile column, and y chunks accumulate on the device and are
// written back once after their last partial product.
func (c *Context) Gemv(opts GemvOpts) (Result, error) {
	p, err := c.PlanGemv(opts)
	if err != nil {
		return Result{}, err
	}
	return c.RunPlan(p, gemvArgs(opts))
}

// GemvEnqueueWith replays a previously built gemv plan on the context's
// streams without draining the engine, so callers can time the enqueue and
// the event-queue advance separately (see PendingGemm).
func (c *Context) GemvEnqueueWith(p *plan.Plan, opts GemvOpts) (*PendingGemm, error) {
	if err := c.validateGemv(opts); err != nil {
		return nil, err
	}
	if p == nil || p.Routine != "gemv" || p.M != opts.M || p.N != opts.N || p.T != opts.T ||
		!sameScalar(p.Alpha, opts.Alpha) || !sameScalar(p.Beta, opts.Beta) ||
		p.Locs[0] != opts.A.Loc || p.Locs[1] != opts.X.Loc || p.Locs[2] != opts.Y.Loc {
		return nil, errors.New("sched: gemv plan does not match the invocation")
	}
	return c.enqueuePlan(p, gemvArgs(opts))
}
