package plan

import (
	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
)

// OpID identifies one emitted op inside a graph under construction.
// Negative ids are legal wherever a dependency is expected and mean
// "already satisfied" (a device-resident operand, an unfetched slot);
// they are skipped, mirroring WaitEvent's no-op on completed events.
type OpID = int32

// NoOp is the absent-dependency sentinel.
const NoOp OpID = -1

// Graph builds a plan as an explicit tile-task DAG: any op may depend on
// any earlier op's completion event, including kernel→kernel edges, and one
// graph may mix kernel kinds (the factorization planners emit POTRF, TRSM,
// SYRK and GEMM tile ops into a single plan). It is the general surface the
// routine-specific planners are thin clients of.
//
// The builder preserves every property the downstream layers rely on:
//
//   - ops and dependency edges live in deterministic arena-allocated lists
//     (emission order is the IR);
//   - scalars are keyed by selector (AlphaSel/BetaSel over Float64bits), so
//     replay reproduces the planner's floats exactly;
//   - Fetch/Writeback maintain the plan's H2D/D2H volume annotations and
//     kernel emitters count Subkernels, exactly as the flat builders did;
//   - the finished plan compiles to a Tape and replays with
//     event-order-preserving execution, so sim results stay bit-identical.
//
// Tile forwarding is expressed, not special-cased: a kernel that consumes
// another kernel's output tile references the same staging slot (or device
// window) and lists the producer kernel as a dependency — no writeback and
// refetch round-trip appears between them, and the compiled tape turns the
// edge into a dependency-graph edge from the producer.
type Graph struct {
	b builder
}

// NewGraph starts building ops into p. The caller fills the plan header
// (routine, geometry, scalars, locations) before or after building; Finish
// returns the plan.
func NewGraph(p *Plan) *Graph { return &Graph{b: builder{p: p}} }

// Plan returns the plan under construction (header fields may be adjusted
// until Finish).
func (g *Graph) Plan() *Plan { return g.b.p }

// Grow pre-sizes the op, dependency and slot arenas for a planner that
// knows its schedule shape; appending tens of thousands of ops through
// slice growth would otherwise dominate planning time.
func (g *Graph) Grow(slots, ops, deps int) {
	p := g.b.p
	if cap(p.Slots) < slots {
		p.Slots = append(make([]Slot, 0, slots), p.Slots...)
	}
	if cap(p.Ops) < ops {
		p.Ops = append(make([]Op, 0, ops), p.Ops...)
	}
	if cap(p.deps) < deps {
		p.deps = append(make([]int32, 0, deps), p.deps...)
	}
}

// SlotRef builds a staging-slot operand reference; ld is the slot's leading
// dimension (0 for vectors).
func SlotRef(slot, ld int32) Ref { return slotRef(slot, ld) }

// ArgRef builds a bound-operand window reference at element coordinates
// (row, col).
func ArgRef(arg int8, row, col int32) Ref { return argRef(arg, row, col) }

// Slot registers a staging buffer shape and returns its slot id.
func (g *Graph) Slot(dt kernelmodel.Dtype, elems int64) int32 {
	return g.b.slot(dt, elems)
}

// Alloc emits the pool acquisition of a slot. Allocation order is part of
// the IR: it determines pool-eviction behaviour and the device memory peak.
func (g *Graph) Alloc(slot int32) OpID { return g.b.alloc(slot) }

// deps registers the dependency edges of the op about to be emitted, in
// argument order (negative ids skipped).
func (g *Graph) deps(ids []OpID) {
	for _, id := range ids {
		g.b.dep(id)
	}
}

// Fetch emits an h2d transfer of an m x n element window of bound operand
// arg at (row, col) into slot, and accounts its bytes in the plan's H2D
// volume. deps order is wait-registration order.
func (g *Graph) Fetch(arg int8, row, col, m, n, slot int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.b.emit()
	o.Kind, o.Slot, o.Stream = OpFetch, slot, sH2D
	o.A = argRef(arg, row, col)
	o.M, o.N = m, n
	g.b.p.BytesH2D += int64(m) * int64(n) * g.b.p.Dtype.Size()
	return id
}

// FetchVec emits an h2d transfer of m elements of bound vector operand arg
// starting at off into slot.
func (g *Graph) FetchVec(arg int8, off, m, slot int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.b.emit()
	o.Kind, o.Slot, o.Stream = OpFetch, slot, sH2D
	o.A, o.M = argRef(arg, off, 0), m
	g.b.p.BytesH2D += int64(m) * g.b.p.Dtype.Size()
	return id
}

// Writeback emits a d2h transfer of slot's m x n window back to bound
// operand arg at (row, col), accounting its bytes in the D2H volume.
func (g *Graph) Writeback(slot int32, arg int8, row, col, m, n int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.b.emit()
	o.Kind, o.Slot, o.Stream = OpWriteback, slot, sD2H
	o.A = argRef(arg, row, col)
	o.M, o.N = m, n
	g.b.p.BytesD2H += int64(m) * int64(n) * g.b.p.Dtype.Size()
	return id
}

// WritebackVec emits a d2h transfer of m elements back to bound vector
// operand arg at off.
func (g *Graph) WritebackVec(slot int32, arg int8, off, m int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.b.emit()
	o.Kind, o.Slot, o.Stream = OpWriteback, slot, sD2H
	o.A, o.M = argRef(arg, off, 0), m
	g.b.p.BytesD2H += int64(m) * g.b.p.Dtype.Size()
	return id
}

// kernel emits a kernel op of kind k on the compute stream after deps.
func (g *Graph) kernel(k Kernel, deps []OpID) (*Op, OpID) {
	g.deps(deps)
	o, id := g.b.emit()
	o.Kind, o.Kernel, o.Stream = OpKernel, k, sComp
	return o, id
}

// SetStream moves transfer or kernel op id to stream slot stream. Ops run
// in emission order on their slot, so a builder that gives each worker its
// own slot gets in-order worker pipelines without dependency edges.
func (g *Graph) SetStream(id OpID, stream uint8) { g.b.p.Ops[id].Stream = stream }

// Dispatch emits a dispatch-overhead kernel (duration is the plan's
// DispatchS); it does not count as a sub-kernel.
func (g *Graph) Dispatch(deps ...OpID) OpID {
	_, id := g.kernel(KDispatch, deps)
	return id
}

// Gemm emits C = alpha*op(A)*op(B) + beta*C over tile refs.
func (g *Graph) Gemm(transA, transB byte, m, n, k int32, alpha AlphaSel, beta BetaSel, a, b, c Ref, deps ...OpID) OpID {
	o, id := g.kernel(KGemm, deps)
	o.TransA, o.TransB = transA, transB
	o.M, o.N, o.K = m, n, k
	o.Alpha, o.Beta = alpha, beta
	o.A, o.B, o.C = a, b, c
	g.b.p.Subkernels++
	return id
}

// Gemv emits y = alpha*A*x + beta*y over tile refs.
func (g *Graph) Gemv(m, n int32, beta BetaSel, a, x, y Ref, deps ...OpID) OpID {
	o, id := g.kernel(KGemv, deps)
	o.TransA = blas.NoTrans
	o.M, o.N = m, n
	o.Beta = beta
	o.A, o.B, o.C = a, x, y
	g.b.p.Subkernels++
	return id
}

// Axpy emits y += alpha*x over vector refs.
func (g *Graph) Axpy(n int32, x, y Ref, deps ...OpID) OpID {
	o, id := g.kernel(KAxpy, deps)
	o.N = n
	o.A, o.B, o.C = x, noRef, y
	g.b.p.Subkernels++
	return id
}

// Potrf emits the in-place Cholesky factorization of the n x n tile a
// (the referenced triangle per uplo).
func (g *Graph) Potrf(uplo byte, n int32, a Ref, deps ...OpID) OpID {
	o, id := g.kernel(KPotrf, deps)
	o.Uplo, o.N = uplo, n
	o.A, o.B, o.C = a, noRef, noRef
	g.b.p.Subkernels++
	return id
}

// Getrf emits the in-place unpivoted LU factorization of the n x n tile a.
func (g *Graph) Getrf(n int32, a Ref, deps ...OpID) OpID {
	o, id := g.kernel(KGetrf, deps)
	o.N = n
	o.A, o.B, o.C = a, noRef, noRef
	g.b.p.Subkernels++
	return id
}

// Trsm emits the triangular tile solve op(A)*X = alpha*B (side L) or
// X*op(A) = alpha*B (side R), overwriting B.
func (g *Graph) Trsm(side, uplo, transA, diag byte, m, n int32, alpha AlphaSel, a, b Ref, deps ...OpID) OpID {
	o, id := g.kernel(KTrsm, deps)
	o.Side, o.Uplo, o.TransA, o.Diag = side, uplo, transA, diag
	o.M, o.N = m, n
	o.Alpha = alpha
	o.A, o.B, o.C = a, b, noRef
	g.b.p.Subkernels++
	return id
}

// Syrk emits the symmetric rank-k tile update
// C = alpha*A*A^T + beta*C (trans 'N') or alpha*A^T*A + beta*C (trans 'T').
func (g *Graph) Syrk(uplo, trans byte, n, k int32, alpha AlphaSel, beta BetaSel, a, c Ref, deps ...OpID) OpID {
	o, id := g.kernel(KSyrk, deps)
	o.Uplo, o.TransA = uplo, trans
	o.N, o.K = n, k
	o.Alpha, o.Beta = alpha, beta
	o.A, o.B, o.C = a, noRef, c
	g.b.p.Subkernels++
	return id
}

// TailH2D records an op whose completion event the schedule leaves as a
// pending (unconsumed) h2d-stream wait at return.
func (g *Graph) TailH2D(id OpID) {
	if id >= 0 {
		g.b.p.TailH2D = append(g.b.p.TailH2D, id)
	}
}

// TailComp records a pending compute-stream tail wait.
func (g *Graph) TailComp(id OpID) {
	if id >= 0 {
		g.b.p.TailComp = append(g.b.p.TailComp, id)
	}
}

// Finish returns the sealed plan.
func (g *Graph) Finish() *Plan { return g.b.p }
