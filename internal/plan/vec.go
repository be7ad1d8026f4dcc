package plan

import (
	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// GemvSpec parameterizes the level-2 planner (y = alpha*A*x + beta*y,
// float64, A stored MxN).
type GemvSpec struct {
	M, N              int
	Alpha, Beta       float64
	LocA, LocX, LocY  model.Loc
	T                 int
	BlockingWriteback bool
}

// BuildGemv emits the level-2 schedule: A tiles fetched per sub-kernel, x
// chunks fetched once and reused down each tile column, y chunks
// accumulating on the device and written back once per tile row.
func BuildGemv(spec GemvSpec) *Plan {
	T := spec.T
	mt := ceil(spec.M, T)
	nt := ceil(spec.N, T)

	p := &Plan{
		Routine: "gemv", Dtype: kernelmodel.F64,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: spec.M, N: spec.N, T: T,
		Alpha: spec.Alpha, Beta: spec.Beta,
		Locs: []model.Loc{spec.LocA, spec.LocX, spec.LocY},
	}
	g := NewGraph(p)

	// x chunks: fetched once, reused by every tile row.
	xChunks := make([]tileState, nt)
	getX := func(tj, n int) *tileState {
		ch := &xChunks[tj]
		if ch.live {
			return ch
		}
		ch.live = true
		if spec.LocX == model.OnDevice {
			ch.ref = ArgRef(1, int32(tj*T), 0)
			ch.ready = NoOp
			return ch
		}
		slot := g.Slot(kernelmodel.F64, int64(n))
		g.Alloc(slot)
		ch.ref = SlotRef(slot, 0)
		ch.ready = g.FetchVec(1, int32(tj*T), int32(n), slot)
		return ch
	}

	pendingWB := NoOp
	lastComp := NoOp
	var depBuf []OpID

	for ti := 0; ti < mt; ti++ {
		rows := min(T, spec.M-ti*T)
		var yRef Ref
		ySlot := int32(-1)
		yReady := NoOp
		if spec.LocY == model.OnDevice {
			yRef = ArgRef(2, int32(ti*T), 0)
		} else {
			ySlot = g.Slot(kernelmodel.F64, int64(rows))
			g.Alloc(ySlot)
			yRef = SlotRef(ySlot, 0)
			if spec.Beta != 0 {
				yReady = g.FetchVec(2, int32(ti*T), int32(rows), ySlot)
			}
		}

		for tj := 0; tj < nt; tj++ {
			cols := min(T, spec.N-tj*T)
			xc := getX(tj, cols)
			aRef := ArgRef(0, int32(ti*T), int32(tj*T))
			aReady := NoOp
			if spec.LocA == model.OnHost {
				slot := g.Slot(kernelmodel.F64, int64(rows)*int64(cols))
				g.Alloc(slot)
				aReady = g.Fetch(0, int32(ti*T), int32(tj*T), int32(rows), int32(cols), slot)
				aRef = SlotRef(slot, int32(rows))
			}

			// Compute-stream waits, in registration order: pending blocking
			// write-back, the A fetch, the x chunk, then (first column only)
			// the y chunk.
			depBuf = append(depBuf[:0], pendingWB, aReady, xc.ready)
			pendingWB = NoOp
			beta := 1.0
			if tj == 0 {
				depBuf = append(depBuf, yReady)
				beta = spec.Beta
				if spec.LocY == model.OnHost && spec.Beta == 0 {
					beta = 0
				}
			}
			lastComp = g.Gemv(int32(rows), int32(cols), betaSel(beta),
				aRef, xc.ref, yRef, depBuf...)
		}

		if spec.LocY == model.OnHost {
			wb := g.WritebackVec(ySlot, 2, int32(ti*T), int32(rows), lastComp)
			if spec.BlockingWriteback {
				pendingWB = wb
			}
		}
	}
	g.TailComp(pendingWB)
	return g.Finish()
}

// AxpySpec parameterizes the level-1 planner (y += alpha*x, float64).
type AxpySpec struct {
	N          int
	Alpha      float64
	LocX, LocY model.Loc
	T          int
}

// BuildAxpy emits the level-1 schedule: independent 1-D chunks, each with
// its own staging slots, pipelined across the three streams.
func BuildAxpy(spec AxpySpec) *Plan {
	p := &Plan{
		Routine: "axpy", Dtype: kernelmodel.F64,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		N: spec.N, T: spec.T,
		Alpha: spec.Alpha,
		Locs:  []model.Loc{spec.LocX, spec.LocY},
	}
	g := NewGraph(p)

	chunks := ceil(spec.N, spec.T)
	for ci := 0; ci < chunks; ci++ {
		off := ci * spec.T
		n := min(spec.T, spec.N-off)

		chunk := func(arg int8) (Ref, OpID) {
			if p.Locs[arg] == model.OnDevice {
				return ArgRef(arg, int32(off), 0), NoOp
			}
			slot := g.Slot(kernelmodel.F64, int64(n))
			g.Alloc(slot)
			ready := g.FetchVec(arg, int32(off), int32(n), slot)
			return SlotRef(slot, 0), ready
		}
		xRef, xReady := chunk(0)
		yRef, yReady := chunk(1)

		kid := g.Axpy(int32(n), xRef, yRef, xReady, yReady)

		if spec.LocY == model.OnHost {
			g.WritebackVec(yRef.Slot, 1, int32(off), int32(n), kid)
		}
	}
	return g.Finish()
}

// BuildUnifiedAxpy emits the schedule of the unified-memory daxpy
// comparator (internal/libs/unified) with a prefetch granularity of spec.T
// elements. Every chunk of a host-resident operand is prefetched, in
// chunk order, x before y, into its own staging slot (together the
// operand's managed mirror, acquired whole before the run); each chunk's
// kernel waits for the chunk's last prefetch. A host-resident y migrates
// back only after the last kernel, chunk by chunk, so the write-back
// overlaps no compute.
func BuildUnifiedAxpy(spec AxpySpec) *Plan {
	p := &Plan{
		Routine: "axpy-unified", Dtype: kernelmodel.F64,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		N: spec.N, T: spec.T,
		Alpha: spec.Alpha,
		Locs:  []model.Loc{spec.LocX, spec.LocY},
	}
	g := NewGraph(p)
	chunks := ceil(spec.N, spec.T)
	chunk := func(ci int) (off, n int32) {
		return int32(ci * spec.T), int32(min(spec.T, spec.N-ci*spec.T))
	}
	mirror := func(arg int8) []int32 {
		if p.Locs[arg] == model.OnDevice {
			return nil
		}
		slots := make([]int32, chunks)
		for ci := range slots {
			_, n := chunk(ci)
			slots[ci] = g.Slot(kernelmodel.F64, int64(n))
			g.Alloc(slots[ci])
		}
		return slots
	}
	xs, ys := mirror(0), mirror(1)

	last := NoOp
	for ci := 0; ci < chunks; ci++ {
		off, n := chunk(ci)
		ready := NoOp
		ref := func(arg int8, slots []int32) Ref {
			if slots == nil {
				return ArgRef(arg, off, 0)
			}
			ready = g.FetchVec(arg, off, n, slots[ci])
			return SlotRef(slots[ci], 0)
		}
		xRef := ref(0, xs)
		yRef := ref(1, ys)
		last = g.Axpy(n, xRef, yRef, ready)
	}
	for ci, slot := range ys {
		off, n := chunk(ci)
		g.WritebackVec(slot, 1, off, n, last)
		last = NoOp
	}
	return g.Finish()
}
