package plan

import (
	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// MaxNoReuseSlots bounds the in-flight staging depth of the no-reuse
// schedule; the effective depth shrinks for very large tiles so the bounded
// staging always fits device memory.
const MaxNoReuseSlots = 8

// GemmSpec parameterizes the level-3 planners. Transposes must be
// normalized (blas.NoTrans or blas.Trans); validation happens in the sched
// layer before planning.
type GemmSpec struct {
	Dtype            kernelmodel.Dtype
	TransA, TransB   byte
	M, N, K          int
	Alpha, Beta      float64
	LocA, LocB, LocC model.Loc
	T                int
	// DispatchOverheadS inserts a per-sub-kernel dispatch kernel on the
	// compute stream (comparator runtimes); zero disables it.
	DispatchOverheadS float64
	// BlockingWriteback makes the compute stream wait for each output
	// tile's write-back before the next tile's first kernel.
	BlockingWriteback bool
}

// tileState is the planner-side record of one cached device tile: where a
// kernel finds it (ref) and the fetch op it depends on (ready < 0 means
// already available — a device-resident operand or an unfetched slot).
type tileState struct {
	ref   Ref
	ready OpID
	live  bool
}

// tileGrid is the planner-time analog of the scheduler's tile cache.
type tileGrid struct {
	tiles []tileState
	cols  int
}

func newTileGrid(rows, cols int) tileGrid {
	return tileGrid{tiles: make([]tileState, rows*cols), cols: cols}
}

func (g *tileGrid) at(ti, tj int) *tileState { return &g.tiles[ti*g.cols+tj] }

// BuildGemm emits the full-reuse tiled gemm schedule (the paper's Section
// IV-C scheduler) as a thin client of the Graph builder: each input tile is
// fetched exactly once, output tiles accumulate over K on the compute
// stream and are written back once. Op emission order matches the
// imperative scheduler's stream-call order exactly, so replay is
// event-identical.
func BuildGemm(spec GemmSpec) *Plan {
	T := spec.T
	mt := ceil(spec.M, T)
	nt := ceil(spec.N, T)
	kt := ceil(spec.K, T)
	dt := spec.Dtype

	p := &Plan{
		Routine: "gemm", Dtype: dt,
		TransA: spec.TransA, TransB: spec.TransB,
		M: spec.M, N: spec.N, K: spec.K, T: T,
		Alpha: spec.Alpha, Beta: spec.Beta,
		DispatchS: spec.DispatchOverheadS,
		Locs:      []model.Loc{spec.LocA, spec.LocB, spec.LocC},
	}
	g := NewGraph(p)

	// Pre-size the arenas from the known schedule shape.
	hostTiles := func(l model.Loc, n int) int {
		if l == model.OnHost {
			return n
		}
		return 0
	}
	aTiles := hostTiles(spec.LocA, mt*kt)
	bTiles := hostTiles(spec.LocB, kt*nt)
	cTiles := hostTiles(spec.LocC, mt*nt)
	kernels := mt * nt * kt
	kernelOps := kernels
	if spec.DispatchOverheadS > 0 {
		kernelOps *= 2
	}
	cFetches := 0
	if spec.Beta != 0 {
		cFetches = cTiles
	}
	slotsCap := aTiles + bTiles + cTiles
	g.Grow(slotsCap, slotsCap+aTiles+bTiles+cFetches+kernelOps+cTiles, 4*kernels+cTiles)

	// Tile grids are keyed by STORED coordinates, following the transposes.
	aGridR, aGridC := mt, kt
	if spec.TransA == blas.Trans {
		aGridR, aGridC = kt, mt
	}
	bGridR, bGridC := kt, nt
	if spec.TransB == blas.Trans {
		bGridR, bGridC = nt, kt
	}
	aCache := newTileGrid(aGridR, aGridC)
	bCache := newTileGrid(bGridR, bGridC)
	cCache := newTileGrid(mt, nt)

	loc := func(arg int8) model.Loc { return p.Locs[arg] }

	// getTile mirrors the scheduler's fetch-once tile cache: device-resident
	// operands resolve to windows, host-resident ones get a slot (allocated
	// in first-use order) and, when fetch is set, a fetch op.
	getTile := func(arg int8, cache *tileGrid, ti, tj, rows, cols int, fetch bool) *tileState {
		t := cache.at(ti, tj)
		if t.live {
			return t
		}
		t.live = true
		if loc(arg) == model.OnDevice {
			t.ref = ArgRef(arg, int32(ti*T), int32(tj*T))
			t.ready = NoOp
			return t
		}
		slot := g.Slot(dt, int64(rows)*int64(cols))
		g.Alloc(slot)
		t.ref = SlotRef(slot, int32(rows))
		t.ready = NoOp
		if fetch {
			t.ready = g.Fetch(arg, int32(ti*T), int32(tj*T), int32(rows), int32(cols), slot)
		}
		return t
	}

	fetchC := spec.Beta != 0 // C contributes only when beta != 0
	pendingWB := NoOp        // blocking write-back awaiting the next kernel
	lastComp := NoOp
	var depBuf []OpID // reused wait list, in registration order

	for tj := 0; tj < nt; tj++ {
		for ti := 0; ti < mt; ti++ {
			rows := min(T, spec.M-ti*T)
			cols := min(T, spec.N-tj*T)
			cTile := getTile(2, &cCache, ti, tj, rows, cols, fetchC)
			for tk := 0; tk < kt; tk++ {
				inner := min(T, spec.K-tk*T)
				ai, aj, ar, ac := ti, tk, rows, inner
				if spec.TransA == blas.Trans {
					ai, aj, ar, ac = tk, ti, inner, rows
				}
				aTile := getTile(0, &aCache, ai, aj, ar, ac, true)
				bi, bj, br, bc := tk, tj, inner, cols
				if spec.TransB == blas.Trans {
					bi, bj, br, bc = tj, tk, cols, inner
				}
				bTile := getTile(1, &bCache, bi, bj, br, bc, true)
				// Compute-stream waits, in registration order: a pending
				// blocking write-back attaches first, then the input tiles,
				// then (first accumulation only) the output tile.
				depBuf = append(depBuf[:0], pendingWB, aTile.ready, bTile.ready)
				pendingWB = NoOp
				beta := 1.0
				if tk == 0 {
					depBuf = append(depBuf, cTile.ready)
					beta = spec.Beta
					if !fetchC {
						beta = 0
					}
				}
				if spec.DispatchOverheadS > 0 {
					// The dispatch kernel drains the pending waits; the gemm
					// follows it in stream order with no explicit deps.
					g.Dispatch(depBuf...)
					depBuf = depBuf[:0]
				}
				lastComp = g.Gemm(spec.TransA, spec.TransB,
					int32(rows), int32(cols), int32(inner),
					AlphaPlan, betaSel(beta),
					aTile.ref, bTile.ref, cTile.ref, depBuf...)
			}
			if spec.LocC == model.OnHost {
				wb := g.Writeback(cTile.ref.Slot, 2, int32(ti*T), int32(tj*T),
					int32(rows), int32(cols), lastComp)
				if spec.BlockingWriteback {
					pendingWB = wb
				}
			}
		}
	}
	g.TailComp(pendingWB)
	return g.Finish()
}

// BuildGemmNoReuse emits the stateless-sub-kernel schedule: every
// sub-kernel fetches fresh tiles of its host-resident operands through a
// bounded set of staging slot groups and writes its C tile back
// immediately. freeBytes is the device memory available for staging at
// plan time; it sizes the slot depth exactly as the imperative scheduler
// did, so the plan embeds the staging depth.
func BuildGemmNoReuse(spec GemmSpec, freeBytes int64) *Plan {
	T := spec.T
	mt := ceil(spec.M, T)
	nt := ceil(spec.N, T)
	kt := ceil(spec.K, T)
	dt := spec.Dtype

	p := &Plan{
		Routine: "gemm-noreuse", Dtype: dt,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: spec.M, N: spec.N, K: spec.K, T: T,
		Alpha: spec.Alpha, Beta: spec.Beta,
		Locs: []model.Loc{spec.LocA, spec.LocB, spec.LocC},
	}
	g := NewGraph(p)

	tileA, tileB, tileC, groupBytes := stagingGroup(spec)
	nSlots := max(groupsFitting(freeBytes, groupBytes, MaxNoReuseSlots), 2)

	// Pre-size the arenas (see BuildGemm): sk sub-kernels each emit up to
	// three fetches, the kernel and a write-back, with a handful of
	// dependency edges apiece.
	sk := mt * nt * kt
	hostOperands, fetchesPerSk := 0, 0
	if spec.LocA == model.OnHost {
		hostOperands, fetchesPerSk = hostOperands+1, fetchesPerSk+1
	}
	if spec.LocB == model.OnHost {
		hostOperands, fetchesPerSk = hostOperands+1, fetchesPerSk+1
	}
	cFetches, wbs := 0, 0
	if spec.LocC == model.OnHost {
		hostOperands++
		wbs = sk
		cFetches = sk
		if spec.Beta == 0 {
			cFetches -= mt * nt
		}
	}
	allocs := nSlots * hostOperands
	g.Grow(allocs, allocs+fetchesPerSk*sk+cFetches+sk+wbs, 6*sk)

	type group struct {
		a, b, c                   int32
		lastKernel, lastWriteback OpID
	}
	groups := make([]group, nSlots)
	for i := range groups {
		gr := &groups[i]
		*gr = group{a: -1, b: -1, c: -1, lastKernel: NoOp, lastWriteback: NoOp}
		if spec.LocA == model.OnHost {
			gr.a = g.Slot(dt, tileA)
			g.Alloc(gr.a)
		}
		if spec.LocB == model.OnHost {
			gr.b = g.Slot(dt, tileB)
			g.Alloc(gr.b)
		}
		if spec.LocC == model.OnHost {
			gr.c = g.Slot(dt, tileC)
			g.Alloc(gr.c)
		}
	}

	writebackOf := make([]OpID, mt*nt)
	for i := range writebackOf {
		writebackOf[i] = NoOp
	}

	// pendingH2D carries h2d-stream waits (slot-reuse hazards) to the next
	// fetch op, exactly as Stream.WaitEvent accumulates waits until the
	// next enqueue on the stream.
	var pendingH2D []OpID
	lastH2D := NoOp

	idx := 0
	for tk := 0; tk < kt; tk++ {
		inner := min(T, spec.K-tk*T)
		for tj := 0; tj < nt; tj++ {
			for ti := 0; ti < mt; ti++ {
				rows := min(T, spec.M-ti*T)
				cols := min(T, spec.N-tj*T)
				gr := &groups[idx%nSlots]
				idx++
				if gr.lastKernel >= 0 {
					pendingH2D = append(pendingH2D, gr.lastKernel)
				}
				if gr.lastWriteback >= 0 {
					pendingH2D = append(pendingH2D, gr.lastWriteback)
				}

				emitFetch := func(arg int8, slot, row, col, r, cl int) {
					lastH2D = g.Fetch(arg, int32(row), int32(col),
						int32(r), int32(cl), int32(slot), pendingH2D...)
					pendingH2D = pendingH2D[:0]
				}

				aRef := ArgRef(0, int32(ti*T), int32(tk*T))
				if spec.LocA == model.OnHost {
					emitFetch(0, int(gr.a), ti*T, tk*T, rows, inner)
					aRef = SlotRef(gr.a, int32(rows))
				}
				bRef := ArgRef(1, int32(tk*T), int32(tj*T))
				if spec.LocB == model.OnHost {
					emitFetch(1, int(gr.b), tk*T, tj*T, inner, cols)
					bRef = SlotRef(gr.b, int32(inner))
				}
				beta := 1.0
				cRef := ArgRef(2, int32(ti*T), int32(tj*T))
				if spec.LocC == model.OnHost {
					cRef = SlotRef(gr.c, int32(rows))
					fetch := tk > 0 || spec.Beta != 0
					if fetch {
						// The previous write-back of this C tile must land in
						// host memory before the re-read: it joins the
						// pending waits after the slot-reuse hazards.
						if wb := writebackOf[ti*nt+tj]; wb >= 0 {
							pendingH2D = append(pendingH2D, wb)
						}
						emitFetch(2, int(gr.c), ti*T, tj*T, rows, cols)
						if tk == 0 {
							beta = spec.Beta
						}
					} else {
						beta = 0
					}
				} else if tk == 0 {
					beta = spec.Beta
				}

				// The kernel waits on the h2d stream's tail (everything
				// fetched so far), mirroring comp.WaitEvent(h2d.Record()).
				kid := g.Gemm(blas.NoTrans, blas.NoTrans,
					int32(rows), int32(cols), int32(inner),
					AlphaPlan, betaSel(beta), aRef, bRef, cRef, lastH2D)
				gr.lastKernel = kid

				if spec.LocC == model.OnHost {
					wb := g.Writeback(gr.c, 2, int32(ti*T), int32(tj*T),
						int32(rows), int32(cols), kid)
					gr.lastWriteback = wb
					writebackOf[ti*nt+tj] = wb
				}
			}
		}
	}
	for _, id := range pendingH2D {
		g.TailH2D(id)
	}
	return g.Finish()
}

// BuildCuBLASXt emits the schedule of the cuBLASXt-style comparator
// (internal/libs/cublasxt). Output tiles go round-robin, tj outer and ti
// inner, to up to workers in-order worker streams, and every op of a
// worker runs on the worker's stream slot, so stream order alone orders
// the reuse of its staging. Each worker owns one full-tile staging slot
// per host-resident operand; it re-fetches its A and B tiles for every
// sub-kernel (no reuse), fetches its C tile only when beta != 0 and
// writes each output tile back once. Device-resident operands are used in
// place. freeBytes is the device memory free at plan time: when the
// workers' staging would not fit, fewer workers (at least one) run.
// Transposes are not supported; spec's must be NoTrans.
func BuildCuBLASXt(spec GemmSpec, workers int, freeBytes int64) *Plan {
	T := spec.T
	mt := ceil(spec.M, T)
	nt := ceil(spec.N, T)
	kt := ceil(spec.K, T)
	dt := spec.Dtype

	p := &Plan{
		Routine: "gemm-cublasxt", Dtype: dt,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: spec.M, N: spec.N, K: spec.K, T: T,
		Alpha: spec.Alpha, Beta: spec.Beta,
		Locs: []model.Loc{spec.LocA, spec.LocB, spec.LocC},
	}
	g := NewGraph(p)
	host := func(arg int8) bool { return p.Locs[arg] == model.OnHost }

	tileA, tileB, tileC, groupBytes := stagingGroup(spec)
	workers = max(groupsFitting(freeBytes, groupBytes, workers), 1)
	fetchC := spec.Beta != 0

	// Pre-size the arenas (see BuildGemm): each worker allocates a slot
	// per host operand; each output tile emits kt kernels, each after its
	// A and B fetches, plus its C fetch and write-back. There are no
	// dependency edges.
	slots, perK, perTile := 0, 1, 0
	if host(0) {
		slots, perK = slots+workers, perK+1
	}
	if host(1) {
		slots, perK = slots+workers, perK+1
	}
	if host(2) {
		slots, perTile = slots+workers, perTile+1
		if fetchC {
			perTile++
		}
	}
	g.Grow(slots, slots+mt*nt*(kt*perK+perTile), 0)

	// Each worker's staging slots, acquired worker by worker (-1: the
	// operand is device-resident).
	type worker struct{ a, b, c int32 }
	ws := make([]worker, workers)
	slot := func(arg int8, elems int64) int32 {
		if !host(arg) {
			return -1
		}
		s := g.Slot(dt, elems)
		g.Alloc(s)
		return s
	}
	for i := range ws {
		ws[i] = worker{a: slot(0, tileA), b: slot(1, tileB), c: slot(2, tileC)}
	}

	tile := 0
	for tj := 0; tj < nt; tj++ {
		for ti := 0; ti < mt; ti++ {
			w, stream := ws[tile%workers], uint8(tile%workers)
			tile++
			rows := int32(min(T, spec.M-ti*T))
			cols := int32(min(T, spec.N-tj*T))
			row, col := int32(ti*T), int32(tj*T)

			cRef := ArgRef(2, row, col)
			if w.c >= 0 {
				cRef = SlotRef(w.c, rows)
				if fetchC {
					g.SetStream(g.Fetch(2, row, col, rows, cols, w.c), stream)
				}
			}
			for tk := 0; tk < kt; tk++ {
				inner := int32(min(T, spec.K-tk*T))
				aRef := ArgRef(0, row, int32(tk*T))
				if w.a >= 0 {
					g.SetStream(g.Fetch(0, row, int32(tk*T), rows, inner, w.a), stream)
					aRef = SlotRef(w.a, rows)
				}
				bRef := ArgRef(1, int32(tk*T), col)
				if w.b >= 0 {
					g.SetStream(g.Fetch(1, int32(tk*T), col, inner, cols, w.b), stream)
					bRef = SlotRef(w.b, inner)
				}
				beta := 1.0
				if tk == 0 {
					beta = spec.Beta
					if w.c >= 0 && !fetchC {
						beta = 0
					}
				}
				g.SetStream(g.Gemm(blas.NoTrans, blas.NoTrans, rows, cols, inner,
					AlphaPlan, betaSel(beta), aRef, bRef, cRef), stream)
			}
			if w.c >= 0 {
				g.SetStream(g.Writeback(w.c, 2, row, col, rows, cols), stream)
			}
		}
	}
	return g.Finish()
}

// stagingGroup returns the element counts of full A, B and C tiles and
// the bytes of one staging group: a full tile of every host-resident
// operand.
func stagingGroup(spec GemmSpec) (tileA, tileB, tileC, groupBytes int64) {
	T := spec.T
	tileA = int64(min(T, spec.M)) * int64(min(T, spec.K))
	tileB = int64(min(T, spec.K)) * int64(min(T, spec.N))
	tileC = int64(min(T, spec.M)) * int64(min(T, spec.N))
	for i, loc := range [...]model.Loc{spec.LocA, spec.LocB, spec.LocC} {
		if loc == model.OnHost {
			groupBytes += [...]int64{tileA, tileB, tileC}[i] * spec.Dtype.Size()
		}
	}
	return tileA, tileB, tileC, groupBytes
}

// groupsFitting returns how many staging groups of groupBytes, each with
// 1/8 headroom, fit in freeBytes, capped at want (want itself when
// nothing is staged).
func groupsFitting(freeBytes, groupBytes int64, want int) int {
	if groupBytes > 0 {
		return min(int(freeBytes/(groupBytes+groupBytes/8)), want)
	}
	return want
}

func ceil(a, b int) int { return (a + b - 1) / b }
