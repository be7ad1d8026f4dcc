// Package cublasxt implements a comparator library that mirrors the
// documented behaviour of NVIDIA's cuBLASXt, the state-of-practice
// automatic offload library the paper evaluates against:
//
//   - square tiling with a caller-supplied tile size (cuBLASXt exposes
//     cublasXtSetBlockDim; it does not select the tile size itself);
//   - a fixed number of worker streams with bounded per-stream staging
//     buffers, each stream pipelining fetch -> compute -> write-back for
//     the output tiles assigned to it round-robin (overlap comes from
//     different workers being in different pipeline phases);
//   - NO cross-sub-kernel data reuse: input tiles are re-fetched for every
//     sub-kernel that needs them, so A crosses the link ~N/T times and B
//     ~M/T times — the transfer inefficiency BLASX and CoCoPeLia fix.
//
// Data-location awareness: operands already resident on the device are
// used in place (cuBLASXt accepts device pointers too).
//
// A call validates its operands, builds the schedule as a plan
// (plan.BuildCuBLASXt, one stream slot per worker) and replays it on the
// handle's scheduler context, whose pool supplies the workers' staging.
package cublasxt

import (
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/operand"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
)

// DefaultStreams is the number of worker streams (cuBLASXt uses a small
// fixed pool per GPU).
const DefaultStreams = 4

// Handle is the cublasXt-like context: a worker count and the scheduler
// context whose streams and staging pool the workers run on.
type Handle struct {
	ctx     *sched.Context
	workers int
}

// New creates a handle with the given number of worker streams (0 selects
// DefaultStreams) on ctx; ctx's backing selects functional runs.
func New(ctx *sched.Context, streams int) *Handle {
	if streams <= 0 {
		streams = DefaultStreams
	}
	return &Handle{ctx: ctx, workers: streams}
}

// GemmOpts parameterizes a cublasXt-like gemm call.
type GemmOpts struct {
	Dtype       kernelmodel.Dtype
	M, N, K     int
	Alpha, Beta float64
	A, B, C     *operand.Matrix
	// T is the block dimension (cublasXtSetBlockDim); required.
	T int
}

// Gemm executes C = alpha*A*B + beta*C with cuBLASXt-style tiling: output
// tiles round-robin across worker streams, inputs re-fetched per
// sub-kernel. For very large tiles fewer workers participate, so the
// staging always fits the device memory free at the call (real cuBLASXt
// likewise bounds its workspace).
func (h *Handle) Gemm(opts GemmOpts) (operand.Result, error) {
	so := sched.GemmOpts{Dtype: opts.Dtype, M: opts.M, N: opts.N, K: opts.K,
		Alpha: opts.Alpha, Beta: opts.Beta, A: opts.A, B: opts.B, C: opts.C, T: opts.T}
	spec, err := h.ctx.GemmSpec(so)
	if err != nil {
		return operand.Result{}, err
	}
	dev := h.ctx.Runtime().Device()
	free := dev.Testbed().GPU.MemBytes - dev.MemUsed()
	return h.ctx.RunPlan(plan.BuildCuBLASXt(spec, h.workers, free), sched.GemmArgs(so))
}
