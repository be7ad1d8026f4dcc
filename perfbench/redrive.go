package main

import (
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/eval"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

// redriveSample returns the indices of a fixed sample of a work-list's
// plan-based cells (CoCoPeLia and the no-reuse library): n of them, spread
// evenly over the list.
func redriveSample(cells []eval.MeasureCell, n int) []int {
	var planned []int
	for i, c := range cells {
		if c.Lib == eval.LibCoCoPeLia || c.Lib == eval.LibNoReuse {
			planned = append(planned, i)
		}
	}
	if len(planned) <= n {
		return planned
	}
	out := make([]int, n)
	for j := range out {
		out[j] = planned[j*len(planned)/n]
	}
	return out
}

// redrive replays one cell's plan stage by stage on a fresh simulation
// stack — sched.Context.Plan*, Plan.TapeFor, *EnqueueWith, then
// cudart.Runtime.Sync — each stage in its own span, so tape compilation
// is timed apart from enqueue. The replay must reproduce the structure of
// r.Measure's result exactly: its kernel count and both transfer volumes.
func redrive(tb *machine.Testbed, seed int64, r *eval.Runner, c eval.MeasureCell, tr *tracer, id int, out *outcome) {
	want, err := r.Measure(c.Lib, c.P, c.T)
	if err != nil {
		out.check(false, "re-drive %s %s T=%d: measuring: %v", c.Lib, c.P.Name(), c.T, err)
		return
	}
	s := tr.begin("redrive", id)
	got, err := redriveStages(tb, seed, c, tr, id)
	tr.end(s)
	out.check(err == nil && got.Subkernels == want.Subkernels &&
		got.BytesH2D == want.BytesH2D && got.BytesD2H == want.BytesD2H,
		"re-drive %s %s T=%d: kernels=%d h2d=%d d2h=%d err=%v, Measure kernels=%d h2d=%d d2h=%d",
		c.Lib, c.P.Name(), c.T, got.Subkernels, got.BytesH2D, got.BytesD2H, err,
		want.Subkernels, want.BytesH2D, want.BytesD2H)
}

// redriveStages builds the cell's operands as eval.Runner does and runs
// the four stages.
func redriveStages(tb *machine.Testbed, seed int64, c eval.MeasureCell, tr *tracer, id int) (operand.Result, error) {
	eng := sim.New()
	rt := cudart.New(device.New(eng, tb, seed, false))
	ctx := sched.NewContext(rt, false)
	p := c.P
	mat := func(rows, cols int, loc model.Loc) (*operand.Matrix, error) {
		if loc == model.OnHost {
			return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostLd: rows}, nil
		}
		buf, err := rt.Malloc(p.Dtype, int64(rows)*int64(cols), false)
		if err != nil {
			return nil, err
		}
		return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}, nil
	}
	vec := func(n int, loc model.Loc) (*operand.Vector, error) {
		if loc == model.OnHost {
			return &operand.Vector{N: n, Loc: model.OnHost}, nil
		}
		buf, err := rt.Malloc(kernelmodel.F64, int64(n), false)
		if err != nil {
			return nil, err
		}
		return &operand.Vector{N: n, Loc: model.OnDevice, Dev: buf}, nil
	}

	// build and enqueue close over the routine's options.
	var build func() (*plan.Plan, error)
	var enqueue func(*plan.Plan) (*sched.PendingGemm, error)
	switch {
	case p.Routine == "daxpy":
		x, err := vec(p.N, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		y, err := vec(p.N, p.Locs[1])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.AxpyOpts{N: p.N, Alpha: 1.1, X: x, Y: y, T: c.T}
		build = func() (*plan.Plan, error) { return ctx.PlanAxpy(opts) }
		enqueue = func(pl *plan.Plan) (*sched.PendingGemm, error) { return ctx.AxpyEnqueueWith(pl, opts) }
	case p.Routine == "dgemv":
		a, err := mat(p.M, p.N, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		x, err := vec(p.N, p.Locs[1])
		if err != nil {
			return operand.Result{}, err
		}
		y, err := vec(p.M, p.Locs[2])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.GemvOpts{M: p.M, N: p.N, Alpha: 1, Beta: 1, A: a, X: x, Y: y, T: c.T}
		build = func() (*plan.Plan, error) { return ctx.PlanGemv(opts) }
		enqueue = func(pl *plan.Plan) (*sched.PendingGemm, error) { return ctx.GemvEnqueueWith(pl, opts) }
	case p.Routine == "dpotrf":
		a, err := mat(p.N, p.N, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.CholeskyOpts{Dtype: p.Dtype, N: p.N, A: a, T: c.T}
		build = func() (*plan.Plan, error) { return ctx.PlanCholesky(opts) }
		enqueue = func(pl *plan.Plan) (*sched.PendingGemm, error) { return ctx.CholeskyEnqueueWith(pl, opts) }
	case p.Routine == "dgetrf":
		a, err := mat(p.N, p.N, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.LUOpts{Dtype: p.Dtype, N: p.N, A: a, T: c.T}
		build = func() (*plan.Plan, error) { return ctx.PlanLU(opts) }
		enqueue = func(pl *plan.Plan) (*sched.PendingGemm, error) { return ctx.LUEnqueueWith(pl, opts) }
	case p.Routine == "dtrsm":
		a, err := mat(p.M, p.M, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		b, err := mat(p.M, p.N, p.Locs[1])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.TrsmOpts{Dtype: p.Dtype, M: p.M, N: p.N, Alpha: 1, A: a, B: b, T: c.T}
		build = func() (*plan.Plan, error) { return ctx.PlanTrsm(opts) }
		enqueue = func(pl *plan.Plan) (*sched.PendingGemm, error) { return ctx.TrsmEnqueueWith(pl, opts) }
	default: // dgemm and sgemm
		a, err := mat(p.M, p.K, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		b, err := mat(p.K, p.N, p.Locs[1])
		if err != nil {
			return operand.Result{}, err
		}
		cm, err := mat(p.M, p.N, p.Locs[2])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.GemmOpts{Dtype: p.Dtype, M: p.M, N: p.N, K: p.K, Alpha: 1, Beta: 1, A: a, B: b, C: cm, T: c.T}
		build = func() (*plan.Plan, error) { return ctx.PlanGemm(opts) }
		enqueue = func(pl *plan.Plan) (*sched.PendingGemm, error) { return ctx.GemmEnqueueWith(pl, opts) }
		if c.Lib == eval.LibNoReuse {
			build = func() (*plan.Plan, error) { return ctx.PlanGemmNoReuse(opts) }
			enqueue = func(pl *plan.Plan) (*sched.PendingGemm, error) { return ctx.GemmNoReuseEnqueueWith(pl, opts) }
		}
	}

	var pl *plan.Plan
	var pend *sched.PendingGemm
	var end float64
	err := tr.do("plan.build", id, func() (err error) {
		pl, err = build()
		return err
	})
	if err == nil {
		_ = tr.do("plan.tape", id, func() error {
			pl.TapeFor(&tb.GPU)
			return nil
		})
		err = tr.do("sched.enqueue", id, func() (err error) {
			pend, err = enqueue(pl)
			return err
		})
	}
	if err == nil {
		err = tr.do("sim.advance", id, func() (err error) {
			end, err = rt.Sync()
			return err
		})
	}
	if err != nil {
		return operand.Result{}, err
	}
	return pend.Finish(end), nil
}
