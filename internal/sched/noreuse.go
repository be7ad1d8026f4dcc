package sched

import (
	"errors"
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/plan"
)

// validateGemmNoReuse checks the stateless-sub-kernel invocation. The
// comparator takes its operands stored NoTrans and ignores transpose flags.
func (c *Context) validateGemmNoReuse(opts GemmOpts) error {
	if opts.M <= 0 || opts.N <= 0 || opts.K <= 0 {
		return fmt.Errorf("sched: non-positive gemm dims %dx%dx%d", opts.M, opts.N, opts.K)
	}
	if opts.T <= 0 {
		return fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	dt := opts.Dtype
	if err := opts.A.Validate("A", dt, c.backed); err != nil {
		return err
	}
	if err := opts.B.Validate("B", dt, c.backed); err != nil {
		return err
	}
	if err := opts.C.Validate("C", dt, c.backed); err != nil {
		return err
	}
	if opts.A.Rows != opts.M || opts.A.Cols != opts.K ||
		opts.B.Rows != opts.K || opts.B.Cols != opts.N ||
		opts.C.Rows != opts.M || opts.C.Cols != opts.N {
		return errors.New("sched: operand shapes inconsistent with m, n, k")
	}
	return nil
}

// PlanGemmNoReuse validates the invocation and builds the stateless
// comparator's plan. The staging depth is sized to the device memory free
// at planning time, so the plan embeds the slot-group ring it will replay
// with.
func (c *Context) PlanGemmNoReuse(opts GemmOpts) (*plan.Plan, error) {
	if err := c.validateGemmNoReuse(opts); err != nil {
		return nil, err
	}
	dev := c.rt.Device()
	freeBytes := dev.Testbed().GPU.MemBytes - dev.MemUsed()
	return plan.BuildGemmNoReuse(plan.GemmSpec{
		Dtype: opts.Dtype, TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: opts.M, N: opts.N, K: opts.K,
		Alpha: opts.Alpha, Beta: opts.Beta,
		LocA: opts.A.Loc, LocB: opts.B.Loc, LocC: opts.C.Loc,
		T: opts.T,
	}, freeBytes), nil
}

// GemmNoReuse executes C = alpha*A*B + beta*C with stateless sub-kernels:
// every sub-kernel fetches fresh tiles of all its host-resident operands
// and writes its C tile back immediately — exactly the per-sub-kernel
// traffic pattern the paper's Eq. 1-4 model (and the behaviour of
// non-reuse-aware offload libraries). It is the measured counterpart for
// validating the Baseline/DataLoc/BTS models on level-3 BLAS (the paper
// uses cuBLASXt for this role).
func (c *Context) GemmNoReuse(opts GemmOpts) (Result, error) {
	p, err := c.PlanGemmNoReuse(opts)
	if err != nil {
		return Result{}, err
	}
	return c.RunPlan(p, GemmArgs(opts))
}

// GemmNoReuseEnqueueWith replays a previously built no-reuse plan on the
// context's streams without draining the engine (mirroring
// GemmEnqueueWith). The plan carries its staging depth, so replay uses the
// slot ring sized at planning time regardless of the device's current
// free memory.
func (c *Context) GemmNoReuseEnqueueWith(p *plan.Plan, opts GemmOpts) (*PendingGemm, error) {
	if err := c.validateGemmNoReuse(opts); err != nil {
		return nil, err
	}
	if err := matchGemmPlan(p, opts, blas.NoTrans, blas.NoTrans, "gemm-noreuse"); err != nil {
		return nil, err
	}
	return c.enqueuePlan(p, GemmArgs(opts))
}
