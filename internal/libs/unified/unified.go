// Package unified implements the unified-memory daxpy baseline the paper
// compares CoCoPeLia's level-1 path against: a CUDA-unified-memory
// implementation with prefetching.
//
// Unified memory migrates data at page granularity. With
// cudaMemPrefetchAsync the input pages stream to the device ahead of the
// kernels (overlapping h2d with compute at a fixed prefetch granularity),
// but the written output pages migrate back on demand only when the host
// touches them — after the computation — so the d2h traffic does not
// overlap with compute. The small prefetch granularity also pays the
// per-transfer latency far more often than an explicitly tiled scheduler.
//
// A call builds the schedule as a plan (plan.BuildUnifiedAxpy) and replays
// it on a scheduler context, whose pool supplies the managed mirrors of
// host-resident operands one prefetch chunk at a time.
package unified

import (
	"errors"
	"fmt"

	"cocopelia/internal/operand"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
)

// PrefetchElems is the prefetch granularity in float64 elements (2 MiB,
// the unified-memory migration chunk commonly used with prefetch hints).
const PrefetchElems = (2 << 20) / 8

// Daxpy executes y += alpha*x through the unified-memory path on ctx and
// reports the run; ctx's backing selects functional runs. Operands already
// resident on the device need no migration.
func Daxpy(ctx *sched.Context, n int, alpha float64, x, y *operand.Vector) (operand.Result, error) {
	if n <= 0 {
		return operand.Result{}, fmt.Errorf("unified: non-positive length %d", n)
	}
	backed := ctx.Backed()
	if err := x.Validate("x", backed); err != nil {
		return operand.Result{}, err
	}
	if err := y.Validate("y", backed); err != nil {
		return operand.Result{}, err
	}
	if x.N != n || y.N != n {
		return operand.Result{}, errors.New("unified: vector lengths inconsistent with n")
	}
	p := plan.BuildUnifiedAxpy(plan.AxpySpec{N: n, Alpha: alpha, LocX: x.Loc, LocY: y.Loc, T: PrefetchElems})
	return ctx.RunPlan(p, []plan.Arg{{Vec: x}, {Vec: y}})
}
