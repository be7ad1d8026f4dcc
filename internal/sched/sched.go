// Package sched implements the CoCoPeLia library's tile scheduler (the
// paper's Section IV-C): square tiling, per-operation CUDA streams (one for
// h2d, one for d2h, one for kernel execution), full data reuse (each input
// tile crosses the link exactly once), location-aware transfers, and GPU
// buffer/stream reuse across calls.
//
// The scheduler is split into planners and an executor: every entry point
// validates its operands, builds a deterministic tile-operation plan
// (internal/plan) and replays the plan's compiled tape onto the context's
// streams — with the operands bound on backed contexts, so the same replay
// also moves real data and runs real arithmetic. Plans are pure functions
// of the routine geometry, so callers that repeat an invocation shape
// (campaign sweeps, multi-GPU panels) build the plan once and replay it
// with Plan*/*With; the replay is event-identical to direct scheduling.
package sched

import (
	"errors"
	"fmt"
	"math"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/operand"
	"cocopelia/internal/plan"
)

// Matrix, Vector and Result are the shared operand descriptors.
type (
	// Matrix aliases operand.Matrix for caller convenience.
	Matrix = operand.Matrix
	// Vector aliases operand.Vector.
	Vector = operand.Vector
	// Result aliases operand.Result.
	Result = operand.Result
)

// poolKey identifies reusable device buffers by dtype and capacity.
type poolKey struct {
	dt    kernelmodel.Dtype
	elems int64
}

// poolBucket holds the free buffers of one shape. Buckets live in a slice
// rather than a map: a call touches only a handful of shapes, the linear
// scan is cheaper than hashing on the per-tile acquire path, and iteration
// order is deterministic.
type poolBucket struct {
	key  poolKey
	bufs []*cudart.DevBuffer
}

// Context holds the reusable state of the CoCoPeLia library on one device:
// the three operation streams, the tile-buffer pool and the plan executor's
// replay scratch. Reusing a Context across calls emulates the paper's
// iterative use-case (no per-call allocation/stream-creation overhead after
// the first call).
type Context struct {
	rt     *cudart.Runtime
	h2d    *cudart.Stream
	d2h    *cudart.Stream
	comp   *cudart.Stream
	pool   []poolBucket
	backed bool

	// exec replays plan tapes onto the streams; it owns the per-call
	// scratch (event table, slot bindings, acquired-buffer list), so the
	// replay loop allocates nothing once the context is warm.
	exec plan.Executor
	// overheadS is an optional per-sub-kernel dispatch overhead occupying
	// the compute pipeline; the CoCoPeLia library leaves it zero, while
	// comparator wrappers (e.g. the BLASX-style library with its runtime
	// tile-management engine) use it to model their scheduling cost.
	overheadS float64
	// blockingWriteback makes the compute stream wait for each completed
	// output tile's write-back before starting the next tile — the
	// synchronization behaviour of tile-manager runtimes that confirm an
	// output tile's host copy before recycling its cache slot. The
	// CoCoPeLia library leaves this off (write-backs are fully
	// asynchronous on the d2h stream).
	blockingWriteback bool
}

// SetDispatchOverhead sets the per-sub-kernel dispatch overhead in seconds.
func (c *Context) SetDispatchOverhead(seconds float64) { c.overheadS = seconds }

// SetBlockingWriteback toggles compute-blocking output write-backs.
func (c *Context) SetBlockingWriteback(on bool) { c.blockingWriteback = on }

// NewContext creates a scheduler context. backed selects functional runs
// (real arithmetic on real storage); timing-only runs pass false.
func NewContext(rt *cudart.Runtime, backed bool) *Context {
	return &Context{
		rt:     rt,
		h2d:    rt.NewStream(),
		d2h:    rt.NewStream(),
		comp:   rt.NewStream(),
		backed: backed,
	}
}

// Runtime returns the underlying CUDA-like runtime.
func (c *Context) Runtime() *cudart.Runtime { return c.rt }

// Reset returns the context to its just-created state while keeping its
// three streams and the executor's replay scratch. The tile pool is
// emptied — the pooled buffers are dropped, not freed, because callers
// reset the device's memory accounting wholesale in the same breath — so
// the next call's Acquire sequence hits the allocator exactly as a fresh
// context's would. The bucket slice and each bucket's backing array are
// kept, so steady-state reuse allocates nothing.
func (c *Context) Reset() {
	for i := range c.pool {
		bk := &c.pool[i]
		for j := range bk.bufs {
			bk.bufs[j] = nil
		}
		bk.bufs = bk.bufs[:0]
	}
	c.overheadS = 0
	c.blockingWriteback = false
}

// target is the execution surface plans replay onto.
func (c *Context) target() plan.Target {
	return plan.Target{H2D: c.h2d, D2H: c.d2h, Comp: c.comp, Alloc: c}
}

// bucket returns the pool bucket for key, or nil.
func (c *Context) bucket(key poolKey) *poolBucket {
	for i := range c.pool {
		if c.pool[i].key == key {
			return &c.pool[i]
		}
	}
	return nil
}

// Acquire returns a device buffer of at least elems elements, reusing the
// pool when possible; it implements plan.Allocator. When the device is out
// of memory, pooled buffers of OTHER shapes are evicted largest-first — one
// at a time, retrying the allocation after each — so the current tile
// shape's pool survives long sweeps over many tile sizes.
//
//cocolint:hotpath
func (c *Context) Acquire(dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error) {
	key := poolKey{dt, elems}
	if bk := c.bucket(key); bk != nil && len(bk.bufs) > 0 {
		n := len(bk.bufs) - 1
		b := bk.bufs[n]
		bk.bufs[n] = nil
		bk.bufs = bk.bufs[:n]
		return b, nil
	}
	//lint:ignore hotpath pool miss allocates the buffer it will pool; steady-state replays of a warmed context hit the bucket above
	return c.acquireSlow(key)
}

// acquireSlow is Acquire's pool-miss path: allocate the shape's first
// buffer, evicting pooled buffers of other shapes largest-first while the
// device is out of memory.
func (c *Context) acquireSlow(key poolKey) (*cudart.DevBuffer, error) {
	b, err := c.rt.Malloc(key.dt, key.elems, c.backed)
	for errors.Is(err, device.ErrOutOfMemory) {
		evicted, ferr := c.evictLargest(key)
		if ferr != nil {
			return nil, ferr
		}
		if !evicted {
			break
		}
		b, err = c.rt.Malloc(key.dt, key.elems, c.backed)
	}
	return b, err
}

// evictLargest frees one pooled buffer of the largest byte size among the
// shapes other than keep, reporting whether anything was freed.
func (c *Context) evictLargest(keep poolKey) (bool, error) {
	best := -1
	var bestBytes int64
	for i := range c.pool {
		bk := &c.pool[i]
		if bk.key == keep || len(bk.bufs) == 0 {
			continue
		}
		if bytes := bk.key.elems * bk.key.dt.Size(); bytes > bestBytes {
			best, bestBytes = i, bytes
		}
	}
	if best < 0 {
		return false, nil
	}
	bk := &c.pool[best]
	n := len(bk.bufs) - 1
	b := bk.bufs[n]
	bk.bufs[n] = nil
	bk.bufs = bk.bufs[:n]
	if err := c.rt.Free(b); err != nil {
		return false, err
	}
	return true, nil
}

// Release returns a buffer to the pool for reuse by later calls; it
// implements plan.Allocator.
//
//cocolint:hotpath
func (c *Context) Release(b *cudart.DevBuffer) {
	key := poolKey{b.Dtype(), b.Elems()}
	if bk := c.bucket(key); bk != nil {
		//lint:ignore hotpath bucket free list reuses its backing array; it grows only to the shape's peak pooled count
		bk.bufs = append(bk.bufs, b)
		return
	}
	//lint:ignore hotpath a newly seen shape creates its bucket once; every later release of the shape takes the append above
	c.addBucket(key, b)
}

// addBucket creates the pool bucket of a newly seen buffer shape.
func (c *Context) addBucket(key poolKey, b *cudart.DevBuffer) {
	c.pool = append(c.pool, poolBucket{key: key, bufs: []*cudart.DevBuffer{b}})
}

// ReleaseAll frees every pooled buffer back to the device, keeping the
// (empty) buckets for reuse.
func (c *Context) ReleaseAll() error {
	for i := range c.pool {
		bk := &c.pool[i]
		for j, b := range bk.bufs {
			bk.bufs[j] = nil
			if err := c.rt.Free(b); err != nil {
				return err
			}
		}
		bk.bufs = bk.bufs[:0]
	}
	return nil
}

// GemmOpts parameterizes a tiled gemm invocation:
// C[MxN] = alpha·op(A)·op(B) + beta·C with op controlled by the BLAS
// transpose flags (zero values mean NoTrans). A is stored MxK (KxM when
// transposed); B is stored KxN (NxK when transposed).
type GemmOpts struct {
	Dtype          kernelmodel.Dtype
	TransA, TransB byte
	M, N, K        int
	Alpha, Beta    float64
	A, B, C        *Matrix
	// T is the square tiling size (required; auto-selection lives above
	// this layer in the public API).
	T int
}

// normTrans maps the zero value to NoTrans and validates the flag.
func normTrans(t byte) (byte, error) {
	switch t {
	case 0, blas.NoTrans:
		return blas.NoTrans, nil
	case blas.Trans:
		return blas.Trans, nil
	}
	return 0, fmt.Errorf("sched: bad transpose flag %q", t)
}

// validateGemm checks the invocation for the full-reuse path and returns
// the normalized transpose flags.
func (c *Context) validateGemm(opts GemmOpts) (transA, transB byte, err error) {
	if opts.M <= 0 || opts.N <= 0 || opts.K <= 0 {
		return 0, 0, fmt.Errorf("sched: non-positive gemm dims %dx%dx%d", opts.M, opts.N, opts.K)
	}
	if opts.T <= 0 {
		return 0, 0, fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	dt := opts.Dtype
	if transA, err = normTrans(opts.TransA); err != nil {
		return 0, 0, err
	}
	if transB, err = normTrans(opts.TransB); err != nil {
		return 0, 0, err
	}
	if err := opts.A.Validate("A", dt, c.backed); err != nil {
		return 0, 0, err
	}
	if err := opts.B.Validate("B", dt, c.backed); err != nil {
		return 0, 0, err
	}
	if err := opts.C.Validate("C", dt, c.backed); err != nil {
		return 0, 0, err
	}
	aRows, aCols := opts.M, opts.K
	if transA == blas.Trans {
		aRows, aCols = opts.K, opts.M
	}
	bRows, bCols := opts.K, opts.N
	if transB == blas.Trans {
		bRows, bCols = opts.N, opts.K
	}
	if opts.A.Rows != aRows || opts.A.Cols != aCols ||
		opts.B.Rows != bRows || opts.B.Cols != bCols ||
		opts.C.Rows != opts.M || opts.C.Cols != opts.N {
		return 0, 0, errors.New("sched: operand shapes inconsistent with m, n, k and transposes")
	}
	return transA, transB, nil
}

// sameScalar compares plan coefficients for identity: a replayed plan must
// have been built with bit-identical scalars (tolerance would let a plan
// replay against a different problem), so this is deliberately an exact
// bit-pattern comparison, not an approximate one.
func sameScalar(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// matchGemmPlan checks that a replayed plan was built for this invocation.
func matchGemmPlan(p *plan.Plan, opts GemmOpts, transA, transB byte, routine string) error {
	if p == nil {
		return errors.New("sched: nil plan")
	}
	if p.Routine != routine || p.Dtype != opts.Dtype ||
		p.M != opts.M || p.N != opts.N || p.K != opts.K || p.T != opts.T ||
		p.TransA != transA || p.TransB != transB ||
		!sameScalar(p.Alpha, opts.Alpha) || !sameScalar(p.Beta, opts.Beta) ||
		p.Locs[0] != opts.A.Loc || p.Locs[1] != opts.B.Loc || p.Locs[2] != opts.C.Loc {
		return fmt.Errorf("sched: %s plan does not match the invocation", routine)
	}
	return nil
}

// gemmArgs binds the gemm operands in plan argument order.
func gemmArgs(opts GemmOpts) []plan.Arg {
	return []plan.Arg{{Mat: opts.A}, {Mat: opts.B}, {Mat: opts.C}}
}

// PendingGemm is an enqueued-but-not-drained tiled routine: every transfer
// and kernel is on its streams, but the virtual clock has not been run.
// The name is historical — the gemv/axpy/no-reuse Enqueue variants return
// it too; the semantics are routine-agnostic.
// It exists so cooperating schedulers (the multi-GPU layer) can enqueue
// several schedules that then execute concurrently on a shared clock.
// A context supports one pending gemm at a time: the pending run borrows
// the context's reusable replay scratch, which the next enqueue reclaims.
type PendingGemm struct {
	ctx    *Context
	res    Result
	pooled []*cudart.DevBuffer
	start  float64
}

// Finish releases the pending run's pooled buffers and returns its
// result with the makespan measured to `end`. Call it exactly once, after
// the shared engine has drained.
func (p *PendingGemm) Finish(end float64) Result {
	for _, b := range p.pooled {
		p.ctx.Release(b)
	}
	p.pooled = nil
	p.res.Seconds = end - p.start
	return p.res
}

// OnDrained enqueues fn to run when all work enqueued so far on the
// context's three streams has completed (used to timestamp a pending
// run's own completion inside a larger concurrent batch).
func (c *Context) OnDrained(fn func()) {
	s := c.rt.NewStream()
	s.WaitEvent(c.h2d.Record())
	s.WaitEvent(c.comp.Record())
	s.WaitEvent(c.d2h.Record())
	s.Callback(fn)
}

// Gemm executes C = alpha*A*B + beta*C with square tiling size opts.T,
// full data reuse and 3-way overlap, then synchronizes and reports the
// run. Ragged edge tiles (dimensions not divisible by T) are handled.
func (c *Context) Gemm(opts GemmOpts) (Result, error) {
	pend, err := c.GemmEnqueue(opts)
	if err != nil {
		return Result{}, err
	}
	end, err := c.rt.Sync()
	res := pend.Finish(end)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// GemmWith executes a previously built full-reuse gemm plan against
// operands of the matching shape, synchronizes and reports the run.
func (c *Context) GemmWith(p *plan.Plan, opts GemmOpts) (Result, error) {
	pend, err := c.GemmEnqueueWith(p, opts)
	if err != nil {
		return Result{}, err
	}
	end, err := c.rt.Sync()
	res := pend.Finish(end)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// PlanGemm validates the invocation and builds its full-reuse tile plan
// without touching the streams. The plan depends only on the geometry,
// tiling size, operand locations and the context's scheduling knobs, so it
// can be cached and replayed via GemmEnqueueWith/GemmWith.
func (c *Context) PlanGemm(opts GemmOpts) (*plan.Plan, error) {
	transA, transB, err := c.validateGemm(opts)
	if err != nil {
		return nil, err
	}
	return plan.BuildGemm(plan.GemmSpec{
		Dtype: opts.Dtype, TransA: transA, TransB: transB,
		M: opts.M, N: opts.N, K: opts.K,
		Alpha: opts.Alpha, Beta: opts.Beta,
		LocA: opts.A.Loc, LocB: opts.B.Loc, LocC: opts.C.Loc,
		T:                 opts.T,
		DispatchOverheadS: c.overheadS,
		BlockingWriteback: c.blockingWriteback,
	}), nil
}

// GemmEnqueue builds the full tiled schedule on the context's streams
// without draining the engine. See Gemm for semantics.
func (c *Context) GemmEnqueue(opts GemmOpts) (*PendingGemm, error) {
	p, err := c.PlanGemm(opts)
	if err != nil {
		return nil, err
	}
	return c.replayGemm(p, opts)
}

// GemmEnqueueWith replays a previously built full-reuse gemm plan on the
// context's streams without draining the engine. The operands must match
// the plan's geometry and location vector; replay is event-identical to
// GemmEnqueue with the same options.
func (c *Context) GemmEnqueueWith(p *plan.Plan, opts GemmOpts) (*PendingGemm, error) {
	transA, transB, err := c.validateGemm(opts)
	if err != nil {
		return nil, err
	}
	if err := matchGemmPlan(p, opts, transA, transB, "gemm"); err != nil {
		return nil, err
	}
	return c.replayGemm(p, opts)
}

// replayGemm runs a validated plan and wraps the pending result.
func (c *Context) replayGemm(p *plan.Plan, opts GemmOpts) (*PendingGemm, error) {
	return c.enqueuePlan(p, gemmArgs(opts))
}

// enqueuePlan replays a validated plan's tape on the context's streams
// without draining the engine. Backed contexts bind the operands, so the
// replay carries host windows and kernel payloads; timing-only contexts
// bind none, since their buffers hold no data.
func (c *Context) enqueuePlan(p *plan.Plan, args []plan.Arg) (*PendingGemm, error) {
	res := Result{T: p.T, Subkernels: p.Subkernels, BytesH2D: p.BytesH2D, BytesD2H: p.BytesD2H}
	start := c.rt.Now()
	if !c.backed {
		args = nil
	}
	pooled, err := c.exec.Replay(p.TapeFor(&c.rt.Device().Testbed().GPU), c.target(), args)
	if err != nil {
		return nil, err
	}
	return &PendingGemm{ctx: c, res: res, pooled: pooled, start: start}, nil
}

// runPlanSync replays a plan, drains the engine and reports the run (the
// shared tail of every run-to-completion entry point).
func (c *Context) runPlanSync(p *plan.Plan, args []plan.Arg) (Result, error) {
	pend, err := c.enqueuePlan(p, args)
	if err != nil {
		return Result{}, err
	}
	return c.finishSync(pend)
}

// finishSync drains the engine and settles an enqueued run (the shared
// tail of the *With entry points, after their Enqueue variants return).
func (c *Context) finishSync(pend *PendingGemm) (Result, error) {
	end, err := c.rt.Sync()
	res := pend.Finish(end)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// AxpyOpts parameterizes a tiled daxpy invocation.
type AxpyOpts struct {
	N     int
	Alpha float64
	X, Y  *Vector
	// T is the 1-D chunk length.
	T int
}

// validateAxpy checks the level-1 invocation.
func (c *Context) validateAxpy(opts AxpyOpts) error {
	if opts.N <= 0 {
		return fmt.Errorf("sched: non-positive axpy length %d", opts.N)
	}
	if opts.T <= 0 {
		return fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	if err := opts.X.Validate("x", c.backed); err != nil {
		return err
	}
	if err := opts.Y.Validate("y", c.backed); err != nil {
		return err
	}
	if opts.X.N != opts.N || opts.Y.N != opts.N {
		return errors.New("sched: vector lengths inconsistent with n")
	}
	return nil
}

// PlanAxpy validates the invocation and builds its 1-D chunk plan.
func (c *Context) PlanAxpy(opts AxpyOpts) (*plan.Plan, error) {
	if err := c.validateAxpy(opts); err != nil {
		return nil, err
	}
	return plan.BuildAxpy(plan.AxpySpec{
		N: opts.N, Alpha: opts.Alpha,
		LocX: opts.X.Loc, LocY: opts.Y.Loc, T: opts.T,
	}), nil
}

// Axpy executes y += alpha*x with 1-D tiling and 3-way overlap.
func (c *Context) Axpy(opts AxpyOpts) (Result, error) {
	p, err := c.PlanAxpy(opts)
	if err != nil {
		return Result{}, err
	}
	return c.runPlanSync(p, []plan.Arg{{Vec: opts.X}, {Vec: opts.Y}})
}

// AxpyEnqueueWith replays a previously built axpy plan on the context's
// streams without draining the engine (the enqueue-only counterpart of
// AxpyWith, mirroring GemmEnqueueWith).
func (c *Context) AxpyEnqueueWith(p *plan.Plan, opts AxpyOpts) (*PendingGemm, error) {
	if err := c.validateAxpy(opts); err != nil {
		return nil, err
	}
	if p == nil || p.Routine != "axpy" || p.N != opts.N || p.T != opts.T ||
		!sameScalar(p.Alpha, opts.Alpha) ||
		p.Locs[0] != opts.X.Loc || p.Locs[1] != opts.Y.Loc {
		return nil, errors.New("sched: axpy plan does not match the invocation")
	}
	return c.enqueuePlan(p, []plan.Arg{{Vec: opts.X}, {Vec: opts.Y}})
}

// AxpyWith executes a previously built axpy plan against vectors of the
// matching shape.
func (c *Context) AxpyWith(p *plan.Plan, opts AxpyOpts) (Result, error) {
	pend, err := c.AxpyEnqueueWith(p, opts)
	if err != nil {
		return Result{}, err
	}
	return c.finishSync(pend)
}
