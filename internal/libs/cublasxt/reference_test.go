package cublasxt

// This file keeps the cuBLASXt comparator's original imperative loop —
// per-worker streams and staging slots driven op by op through the
// dynamic cudart entry points — as the oracle of the plan it became:
// both must produce the bit-identical kernel and transfer traces, end
// time, processed-event count, Result and output bits on a noisy device.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

// slotRole identifies a worker's staging slot.
type slotRole int

const (
	slotA slotRole = iota
	slotB
	slotC
)

// refWorker is one pipeline stream with its bounded staging buffers.
type refWorker struct {
	stream *cudart.Stream
	slots  map[slotRole]*cudart.DevBuffer
}

// refHandle is the original cublasXt-like context: worker streams and
// their staging buffers, reused across calls.
type refHandle struct {
	rt      *cudart.Runtime
	workers []*refWorker
	backed  bool
}

// newRef creates a reference handle with the given number of worker
// streams (0 selects DefaultStreams).
func newRef(rt *cudart.Runtime, streams int, backed bool) *refHandle {
	if streams <= 0 {
		streams = DefaultStreams
	}
	h := &refHandle{rt: rt, backed: backed}
	for i := 0; i < streams; i++ {
		h.workers = append(h.workers, &refWorker{
			stream: rt.NewStream(),
			slots:  map[slotRole]*cudart.DevBuffer{},
		})
	}
	return h
}

// slot returns the worker's staging buffer for the role, (re)allocating
// when the needed capacity grows. In-stream ordering makes reuse safe: the
// next fetch into a slot is enqueued after the kernels that read it.
func (h *refHandle) slot(w *refWorker, role slotRole, dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error) {
	if b := w.slots[role]; b != nil {
		if b.Dtype() == dt && b.Elems() >= elems {
			return b, nil
		}
		if err := h.rt.Free(b); err != nil {
			return nil, err
		}
		delete(w.slots, role)
	}
	b, err := h.rt.Malloc(dt, elems, h.backed)
	if err != nil {
		return nil, err
	}
	w.slots[role] = b
	return b, nil
}

// gemmAsync enqueues C = alpha*A*B + beta*C through the dynamic op path,
// named and timed as the plan's gemm kernel node, with the blas body as
// its payload on a backed output.
func gemmAsync(s *cudart.Stream, gpu *machine.GPUSpec, m, n, k int,
	alpha float64, a *cudart.DevBuffer, offA int64, lda int,
	b *cudart.DevBuffer, offB int64, ldb int,
	beta float64, c *cudart.DevBuffer, offC int64, ldc int) (*cudart.Event, error) {
	var payload func()
	if c.Backed() {
		payload = func() {
			if err := blas.Gemm(blas.NoTrans, blas.NoTrans, m, n, k, alpha, a.F64()[offA:], lda,
				b.F64()[offB:], ldb, beta, c.F64()[offC:], ldc); err != nil {
				panic(err)
			}
		}
	}
	return s.KernelAsync("dgemm", kernelmodel.GemmTime(gpu, c.Dtype(), m, n, k), payload)
}

// Gemm is the original loop: output tiles round-robin across worker
// streams, inputs re-fetched per sub-kernel.
func (h *refHandle) Gemm(opts GemmOpts) (operand.Result, error) {
	if opts.M <= 0 || opts.N <= 0 || opts.K <= 0 {
		return operand.Result{}, fmt.Errorf("cublasxt: non-positive dims %dx%dx%d", opts.M, opts.N, opts.K)
	}
	if opts.T <= 0 {
		return operand.Result{}, fmt.Errorf("cublasxt: non-positive block dim %d", opts.T)
	}
	dt := opts.Dtype
	if err := opts.A.Validate("A", dt, h.backed); err != nil {
		return operand.Result{}, err
	}
	if err := opts.B.Validate("B", dt, h.backed); err != nil {
		return operand.Result{}, err
	}
	if err := opts.C.Validate("C", dt, h.backed); err != nil {
		return operand.Result{}, err
	}
	if opts.A.Rows != opts.M || opts.A.Cols != opts.K ||
		opts.B.Rows != opts.K || opts.B.Cols != opts.N ||
		opts.C.Rows != opts.M || opts.C.Cols != opts.N {
		return operand.Result{}, errors.New("cublasxt: operand shapes inconsistent with m, n, k")
	}

	T := opts.T
	mt := ceil(opts.M, T)
	nt := ceil(opts.N, T)
	kt := ceil(opts.K, T)
	res := operand.Result{T: T}
	start := h.rt.Now()

	// Pre-size every staging slot to a full TxT tile before enqueuing any
	// work: a mid-run reallocation would free a buffer still referenced by
	// in-flight asynchronous operations. For very large tiles, fewer
	// workers participate so the staging always fits device memory (real
	// cuBLASXt likewise bounds its workspace).
	var groupBytes int64
	if opts.A.Loc == model.OnHost {
		groupBytes += int64(min(T, opts.M)) * int64(min(T, opts.K)) * dt.Size()
	}
	if opts.B.Loc == model.OnHost {
		groupBytes += int64(min(T, opts.K)) * int64(min(T, opts.N)) * dt.Size()
	}
	if opts.C.Loc == model.OnHost {
		groupBytes += int64(min(T, opts.M)) * int64(min(T, opts.N)) * dt.Size()
	}
	workers := h.workers
	if groupBytes > 0 {
		free := h.rt.Device().Testbed().GPU.MemBytes - h.rt.Device().MemUsed()
		if byMem := int(free / (groupBytes + groupBytes/8)); byMem < len(workers) {
			if byMem < 1 {
				byMem = 1
			}
			// Release staging held by the excluded workers from earlier
			// calls so the remaining ones can grow.
			for _, w := range h.workers[byMem:] {
				for role, b := range w.slots {
					if err := h.rt.Free(b); err != nil {
						return operand.Result{}, err
					}
					delete(w.slots, role)
				}
			}
			workers = h.workers[:byMem]
		}
	}
	for _, w := range workers {
		if opts.A.Loc == model.OnHost {
			if _, err := h.slot(w, slotA, dt, int64(min(T, opts.M))*int64(min(T, opts.K))); err != nil {
				return operand.Result{}, err
			}
		}
		if opts.B.Loc == model.OnHost {
			if _, err := h.slot(w, slotB, dt, int64(min(T, opts.K))*int64(min(T, opts.N))); err != nil {
				return operand.Result{}, err
			}
		}
		if opts.C.Loc == model.OnHost {
			if _, err := h.slot(w, slotC, dt, int64(min(T, opts.M))*int64(min(T, opts.N))); err != nil {
				return operand.Result{}, err
			}
		}
	}

	// stageIn copies a host tile into the worker's staging slot (in-stream
	// ordering provides the reuse dependency), or returns an in-place view
	// for device-resident operands.
	stageIn := func(w *refWorker, m *operand.Matrix, role slotRole, row, col, rows, cols int, fetch bool) (*cudart.DevBuffer, int64, int, error) {
		if m.Loc == model.OnDevice {
			return m.Dev, int64(row) + int64(col)*int64(m.DevLd), m.DevLd, nil
		}
		buf, err := h.slot(w, role, dt, int64(rows)*int64(cols))
		if err != nil {
			return nil, 0, 0, err
		}
		if fetch {
			h64, h32 := m.HostSlices(row, col)
			if _, err := w.stream.SetMatrixAsync(rows, cols, h64, h32, m.HostLd, buf, 0, rows); err != nil {
				return nil, 0, 0, err
			}
			res.BytesH2D += int64(rows) * int64(cols) * dt.Size()
		}
		return buf, 0, rows, nil
	}

	tileIdx := 0
	for tj := 0; tj < nt; tj++ {
		for ti := 0; ti < mt; ti++ {
			w := workers[tileIdx%len(workers)]
			tileIdx++
			rows := min(T, opts.M-ti*T)
			cols := min(T, opts.N-tj*T)

			fetchC := opts.Beta != 0
			cBuf, cOff, cLd, err := stageIn(w, opts.C, slotC, ti*T, tj*T, rows, cols, fetchC)
			if err != nil {
				return operand.Result{}, err
			}
			for tk := 0; tk < kt; tk++ {
				inner := min(T, opts.K-tk*T)
				// Inputs are re-fetched for every sub-kernel: no reuse.
				aBuf, aOff, aLd, err := stageIn(w, opts.A, slotA, ti*T, tk*T, rows, inner, true)
				if err != nil {
					return operand.Result{}, err
				}
				bBuf, bOff, bLd, err := stageIn(w, opts.B, slotB, tk*T, tj*T, inner, cols, true)
				if err != nil {
					return operand.Result{}, err
				}
				beta := 1.0
				if tk == 0 {
					beta = opts.Beta
					if opts.C.Loc == model.OnHost && !fetchC {
						beta = 0
					}
				}
				if _, err := gemmAsync(w.stream, &h.rt.Device().Testbed().GPU,
					rows, cols, inner, opts.Alpha,
					aBuf, aOff, aLd, bBuf, bOff, bLd,
					beta, cBuf, cOff, cLd); err != nil {
					return operand.Result{}, err
				}
				res.Subkernels++
			}
			if opts.C.Loc == model.OnHost {
				h64, h32 := opts.C.HostSlices(ti*T, tj*T)
				if _, err := w.stream.GetMatrixAsync(rows, cols, cBuf, cOff, cLd, h64, h32, opts.C.HostLd); err != nil {
					return operand.Result{}, err
				}
				res.BytesD2H += int64(rows) * int64(cols) * dt.Size()
			}
		}
	}

	end, err := h.rt.Sync()
	if err != nil {
		return operand.Result{}, err
	}
	res.Seconds = end - start
	return res, nil
}

func ceil(a, b int) int { return (a + b - 1) / b }

// traced is everything one run leaves observable.
type traced struct {
	log       []string // kernel (name, start, end) and transfer (dir, start, end, bytes) intervals
	end       sim.Time
	processed uint64
	res       operand.Result
	out       []uint64 // output bits
}

// refCase is one comparator scenario: problem shape, beta, operand
// locations, worker count and the device memory left free for staging
// (0: no filler allocation).
type refCase struct {
	m, n, k, T int
	beta       float64
	locs       [3]model.Loc
	workers    int
	free       int64
}

// runCase runs tc on a fresh noisy Testbed I device, through the plan
// path (ref false) or the reference loop, and records its trace.
func runCase(t *testing.T, tc refCase, backed, ref bool) traced {
	t.Helper()
	var tr traced
	dev := device.New(sim.New(), machine.TestbedI(), 7, false)
	dev.SetKernelObserver(func(name string, start, end sim.Time) {
		tr.log = append(tr.log, fmt.Sprintf("kernel %s %x %x", name, start, end))
	})
	dev.Link().SetObserver(func(dir machine.LinkDir, start, end sim.Time, bytes int64) {
		tr.log = append(tr.log, fmt.Sprintf("link %v %x %x %d", dir, start, end, bytes))
	})
	rt := cudart.New(dev)
	rng := rand.New(rand.NewSource(int64(tc.m + 7*tc.n + 31*tc.k)))
	mat := func(rows, cols int, loc model.Loc) *operand.Matrix {
		var data []float64
		if backed {
			data = randMat(rng, rows, cols)
		}
		if loc == model.OnHost {
			return &operand.Matrix{Rows: rows, Cols: cols, Loc: loc, HostF64: data, HostLd: rows}
		}
		buf, err := rt.Malloc(kernelmodel.F64, int64(rows*cols), backed)
		if err != nil {
			t.Fatal(err)
		}
		copy(buf.F64(), data)
		return &operand.Matrix{Rows: rows, Cols: cols, Loc: loc, Dev: buf, DevLd: rows}
	}
	opts := GemmOpts{Dtype: kernelmodel.F64, M: tc.m, N: tc.n, K: tc.k, Alpha: 1.5, Beta: tc.beta, T: tc.T,
		A: mat(tc.m, tc.k, tc.locs[0]), B: mat(tc.k, tc.n, tc.locs[1]), C: mat(tc.m, tc.n, tc.locs[2])}
	if tc.free > 0 {
		fill := dev.Testbed().GPU.MemBytes - dev.MemUsed() - tc.free
		if _, err := rt.Malloc(kernelmodel.F64, fill/8, false); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if ref {
		tr.res, err = newRef(rt, tc.workers, backed).Gemm(opts)
	} else {
		tr.res, err = New(sched.NewContext(rt, backed), tc.workers).Gemm(opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr.end, tr.processed = rt.Now(), dev.Engine().Processed()
	out := opts.C.HostF64
	if opts.C.Loc == model.OnDevice {
		out = opts.C.Dev.F64()
	}
	for _, v := range out {
		tr.out = append(tr.out, math.Float64bits(v))
	}
	return tr
}

// TestPlanMatchesReferenceLoop pins the cuBLASXt plan to the original loop
// at 1 to 4 workers, with staging bounded by free device memory down to 2
// and 1 workers, for every operand location combination and beta in
// {0, 1}, timing-only and backed.
func TestPlanMatchesReferenceLoop(t *testing.T) {
	// One staging group (full 32x32 tiles of every host operand) takes
	// group bytes plus 1/8 headroom; free memory for 2.5 groups bounds 4
	// workers to 2, for half a group to 1.
	group := func(locs [3]model.Loc) int64 {
		var g int64
		for _, l := range locs {
			if l == model.OnHost {
				g += 32 * 32 * 8
			}
		}
		return g + g/8
	}
	var cases []refCase
	for _, combo := range model.LocCombos(3) {
		locs := [3]model.Loc{combo[0], combo[1], combo[2]}
		for _, beta := range []float64{0, 1} {
			for workers := 1; workers <= 4; workers++ {
				cases = append(cases, refCase{m: 96, n: 80, k: 72, T: 32, beta: beta, locs: locs, workers: workers})
			}
			if g := group(locs); g > 0 {
				cases = append(cases,
					refCase{m: 96, n: 80, k: 72, T: 32, beta: beta, locs: locs, workers: 4, free: 5 * g / 2},
					refCase{m: 96, n: 80, k: 72, T: 32, beta: beta, locs: locs, workers: 4, free: g / 2 * 3})
			}
		}
	}
	for _, tc := range cases {
		for _, backed := range []bool{false, true} {
			name := fmt.Sprintf("locs=%v/beta=%g/workers=%d/free=%d/backed=%v", tc.locs, tc.beta, tc.workers, tc.free, backed)
			t.Run(name, func(t *testing.T) {
				got, want := runCase(t, tc, backed, false), runCase(t, tc, backed, true)
				if len(got.log) == 0 || len(got.log) != len(want.log) {
					t.Fatalf("plan traced %d intervals, reference %d", len(got.log), len(want.log))
				}
				for i := range got.log {
					if got.log[i] != want.log[i] {
						t.Fatalf("interval %d diverged:\n  plan      %s\n  reference %s", i, got.log[i], want.log[i])
					}
				}
				if got.end != want.end || got.processed != want.processed {
					t.Fatalf("plan ended at %v after %d events, reference at %v after %d",
						got.end, got.processed, want.end, want.processed)
				}
				if got.res != want.res {
					t.Fatalf("result diverged: plan %+v, reference %+v", got.res, want.res)
				}
				for i := range got.out {
					if got.out[i] != want.out[i] {
						t.Fatalf("output diverged at %d", i)
					}
				}
			})
		}
	}
}

// TestFailedGemmKeepsNoDeviceMemory runs a call whose single worker's
// staging group does not fit the free device memory: it must fail with
// device.ErrOutOfMemory, and once the context pool is released the device
// must hold exactly what it held before the call.
func TestFailedGemmKeepsNoDeviceMemory(t *testing.T) {
	h := newHandle(false, 4)
	rt := h.ctx.Runtime()
	dev := rt.Device()
	m, T := 4096, 2048 // one (A, B, C) staging group: 3 tiles of 32 MiB
	tile := int64(T) * int64(T) * 8
	if _, err := rt.Malloc(kernelmodel.F64, (dev.Testbed().GPU.MemBytes-2*tile)/8, false); err != nil {
		t.Fatal(err)
	}
	before := dev.MemUsed()
	_, err := h.Gemm(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(m, m, nil), B: operand.HostMatrix(m, m, nil), C: operand.HostMatrix(m, m, nil),
		T: T,
	})
	if !errors.Is(err, device.ErrOutOfMemory) {
		t.Fatalf("gemm with staging beyond device memory: err = %v, want out of memory", err)
	}
	if err := h.ctx.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if used := dev.MemUsed(); used != before {
		t.Fatalf("failed call left %d bytes allocated outside the context pool", used-before)
	}
}
