package eval

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/libs/blasx"
	"cocopelia/internal/libs/cublasxt"
	"cocopelia/internal/libs/unified"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/parallel"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
	"cocopelia/internal/stats"
)

// Lib identifies a measured library implementation.
type Lib string

// The libraries under evaluation.
const (
	LibCoCoPeLia Lib = "CoCoPeLia"
	LibCuBLASXt  Lib = "cuBLASXt"
	LibBLASX     Lib = "BLASX"
	LibUnified   Lib = "UnifiedMem"
	// LibNoReuse is the CoCoPeLia scheduler with stateless sub-kernels
	// (per-sub-kernel operand traffic) — the measured counterpart of the
	// no-reuse models (Eq. 1-4), standing in for the paper's use of
	// cuBLASXt in the Fig. 4 validation.
	LibNoReuse Lib = "NoReuse"
)

// cacheShards is the number of independently locked cache partitions; it
// only needs to exceed typical worker counts to keep lock contention low.
const cacheShards = 16

// cellKey is the comparable cache key of one measurement cell. It carries
// every field the rendered string key (testbed|lib|problem-name|T) encodes,
// so the cache partition it induces matches the legacy string keys — but a
// lookup is a struct compare with no formatting or allocation on the hit
// path. The testbed is omitted because each Runner serves exactly one.
type cellKey struct {
	lib     Lib
	routine string
	dtype   kernelmodel.Dtype
	m, n, k int
	locs    [3]model.Loc
	nlocs   int
	tag     string
	tile    int
}

// planKey identifies one memoized tile plan: the plan's routine variant
// ("gemm" and "gemm-noreuse" separate the two gemm planners), dtype,
// geometry, transpose flags, tiling size and operand location vector. The
// scalar coefficients are fixed per routine in runOnce, so they do not
// discriminate. The transpose flags are part of the key even though the
// runner currently emits only NoTrans invocations: sched.GemmOpts accepts
// transposes, and omitting them here would silently alias a future
// transposed cell onto the NoTrans plan of the same geometry.
type planKey struct {
	routine        string
	dtype          kernelmodel.Dtype
	transA, transB byte
	m, n, k        int
	locs           [3]model.Loc
	nlocs          int
	tile           int
}

// planCell builds the plan-memoization key for a measurement. Every
// problem the runner measures is stored NoTrans (Problem has no transpose
// fields).
func planCell(routine string, p Problem, T int) planKey {
	pk := planKey{
		routine: routine, dtype: p.Dtype,
		transA: blas.NoTrans, transB: blas.NoTrans,
		m: p.M, n: p.N, k: p.K, nlocs: len(p.Locs), tile: T,
	}
	copy(pk.locs[:], p.Locs)
	return pk
}

// planOpsBudget bounds the plan cache by total op count (an op is ~100
// bytes, so this is a few tens of MB): once exceeded, the oldest plans are
// dropped FIFO. Repetitions of a cell reuse its plan back-to-back, so the
// budget only needs to hold the plans currently being measured — it must
// exceed the largest single plan (~2*10^5 ops for the no-reuse schedule at
// the sweep's smallest tile), and keeping it tight keeps the live heap,
// and with it GC cost across the whole campaign, small.
const planOpsBudget = 1 << 18

// cacheShard is one mutex-protected partition of the measurement cache.
type cacheShard struct {
	mu sync.Mutex
	// results holds completed measurements by cell key.
	results map[cellKey]operand.Result
	// inflight deduplicates concurrent requests for the same cell: the
	// first caller simulates, later callers wait on the call's done
	// channel (per-key singleflight).
	inflight map[cellKey]*inflightCall
}

// inflightCall is one in-progress measurement that concurrent callers of
// the same cell key wait on.
type inflightCall struct {
	done chan struct{}
	res  operand.Result
	err  error
}

// Runner executes measured library runs on a simulated testbed. Every
// measurement runs on a fresh device seeded deterministically from the run
// parameters — never from execution order — so results are reproducible,
// cacheable, and identical whether cells run serially or concurrently.
//
// Runner is safe for concurrent use: the cache is sharded behind mutexes
// and concurrent Measure calls for the same (lib, problem, T) cell
// simulate it exactly once (the other callers block until the first
// finishes).
type Runner struct {
	TB *machine.Testbed
	// Reps is the number of averaged repetitions per measurement (the
	// paper uses 100 on hardware; simulator noise is parametric so a small
	// count suffices).
	Reps int
	// SeedBase diversifies the noise streams of independent campaigns.
	SeedBase int64
	// Clock, when set, enables per-phase wall-time attribution
	// (PhaseSeconds). It is injected rather than sampled so the eval layer
	// stays wall-clock free under the determinism analyzer; cmd binaries
	// pass time.Now.
	Clock parallel.Clock
	// PlanOpsBudget overrides the plan cache's FIFO-eviction budget
	// (planOpsBudget when zero). Eviction outcomes depend on execution
	// order — whether a shared key re-misses hinges on which insertions
	// landed in between — so a campaign that pins its plan-cache counters
	// byte-identical across worker counts must raise the budget above its
	// work-list's total op count; cocobench does exactly that.
	PlanOpsBudget int

	shards [cacheShards]cacheShard

	hits   atomic.Int64
	misses atomic.Int64
	waits  atomic.Int64
	events atomic.Int64

	phaseNS [numPhases]atomic.Int64

	// The plan cache memoizes tile plans by invocation shape: a plan is a
	// pure function of (routine variant, geometry, T, location vector) and
	// the context knobs — which are the defaults on every fresh eval
	// context — so a plan built during any repetition replays on every
	// other repetition and cell of the same shape. Entries are inserted at
	// first arrival (singleflight): later requesters of a key being built
	// count as hits and wait on the entry's done channel, which keeps the
	// hit/miss counters independent of worker count.
	planMu        sync.Mutex
	plans         map[planKey]*planEntry
	planQueue     []planQEntry
	planOps       int
	planHits      atomic.Int64
	planMisses    atomic.Int64
	planEvictions atomic.Int64

	// bundleFree recycles wired simulation stacks (engine + device +
	// runtime + scheduler context) across this runner's repetitions, so a
	// cached-plan repetition re-derives nothing: no stream creation, no
	// map growth — only a reseed and counter reset (see simBundle). It is a mutex-guarded free list
	// rather than a sync.Pool deliberately: plan building allocates enough
	// to trigger GC cycles mid-campaign, and sync.Pool drops its contents
	// at every GC — losing the op/event slabs, free lists and
	// kernel-duration memos whose warmth is the entire point of pooling.
	// The list is per-runner because the duration memo is testbed-specific;
	// it grows to at most the number of concurrent Measure calls.
	bundleMu   sync.Mutex
	bundleFree []*simBundle
}

// planEntry is one plan-cache slot: inserted before the build runs, so
// concurrent requesters of the same key join the in-flight build instead
// of duplicating it.
type planEntry struct {
	done chan struct{}
	p    *plan.Plan
	err  error
}

// planQEntry is one FIFO-eviction record. It captures the entry identity,
// not just the key: a key evicted and later rebuilt gets a fresh entry and
// a fresh queue position, and the stale record must not evict the rebuilt
// plan when it reaches the queue head.
type planQEntry struct {
	key planKey
	e   *planEntry
}

// NewRunner creates a runner for a testbed.
func NewRunner(tb *machine.Testbed) *Runner {
	r := &Runner{TB: tb, Reps: 3, SeedBase: 1}
	r.plans = map[planKey]*planEntry{}
	for i := range r.shards {
		r.shards[i].results = map[cellKey]operand.Result{}
		r.shards[i].inflight = map[cellKey]*inflightCall{}
	}
	return r
}

// cell builds the comparable cache key for a measurement.
func cell(lib Lib, p Problem, T int) cellKey {
	ck := cellKey{
		lib: lib, routine: p.Routine, dtype: p.Dtype,
		m: p.M, n: p.N, k: p.K, nlocs: len(p.Locs), tag: p.Tag, tile: T,
	}
	copy(ck.locs[:], p.Locs)
	return ck
}

// fnvMix folds one value into a running FNV-1a hash.
func fnvMix(h, v uint32) uint32 {
	h ^= v
	h *= 16777619
	return h
}

// shard maps a cell key to its cache partition. Sharding only spreads lock
// contention, so the hash needs no stability guarantee — an inline FNV-1a
// over the discriminating fields avoids allocating a hasher per lookup.
func (r *Runner) shard(ck cellKey) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(ck.lib); i++ {
		h = fnvMix(h, uint32(ck.lib[i]))
	}
	for i := 0; i < len(ck.routine); i++ {
		h = fnvMix(h, uint32(ck.routine[i]))
	}
	h = fnvMix(h, uint32(ck.m))
	h = fnvMix(h, uint32(ck.n))
	h = fnvMix(h, uint32(ck.k))
	h = fnvMix(h, uint32(ck.tile))
	return &r.shards[h%cacheShards]
}

// planFor returns the memoized plan for key, building it with build on a
// miss. Replays only read the plan, so one canonical *plan.Plan per key is
// safely shared across concurrent repetitions.
//
// The cache is singleflight: the first requester of a key inserts an
// unfinished entry and builds; concurrent requesters of the same key count
// as hits and wait on the entry instead of building a duplicate. This
// keeps the hit/miss split a pure function of the work-list — identical at
// any worker count — which the campaign identity checks rely on. Failed
// builds are returned to every waiter but never cached.
//
//cocolint:hotpath
func (r *Runner) planFor(key planKey, build func() (*plan.Plan, error)) (*plan.Plan, error) {
	r.planMu.Lock()
	if e, ok := r.plans[key]; ok {
		r.planMu.Unlock()
		r.planHits.Add(1)
		<-e.done
		return e.p, e.err
	}
	//lint:ignore hotpath plan-cache miss builds and caches the plan (entered with planMu held); each shape pays it once per eviction window
	return r.planForMiss(key, build)
}

// planForMiss is planFor's uncached path, entered with planMu held: it
// registers the in-flight entry, builds the plan, publishes it and evicts
// FIFO past the op budget.
func (r *Runner) planForMiss(key planKey, build func() (*plan.Plan, error)) (*plan.Plan, error) {
	e := &planEntry{done: make(chan struct{})}
	r.plans[key] = e
	r.planMu.Unlock()
	r.planMisses.Add(1)

	e.p, e.err = build()
	close(e.done)

	r.planMu.Lock()
	defer r.planMu.Unlock()
	if e.err != nil {
		// Never cache failures — but only remove our own entry, in case the
		// key was already evicted and rebuilt by someone else.
		if cur, ok := r.plans[key]; ok && cur == e {
			delete(r.plans, key)
		}
		return nil, e.err
	}
	r.planQueue = append(r.planQueue, planQEntry{key: key, e: e})
	r.planOps += len(e.p.Ops)
	budget := r.PlanOpsBudget
	if budget <= 0 {
		budget = planOpsBudget
	}
	for r.planOps > budget && len(r.planQueue) > 1 {
		old := r.planQueue[0]
		r.planQueue = r.planQueue[1:]
		if cur, ok := r.plans[old.key]; ok && cur == old.e {
			r.planOps -= len(old.e.p.Ops)
			delete(r.plans, old.key)
			r.planEvictions.Add(1)
		}
		// A stale record (key evicted earlier, then rebuilt under a new
		// entry) is skipped: its op count was already subtracted when the
		// entry it names was evicted.
	}
	return e.p, nil
}

// PlanCacheStats reports plan-memoization activity: hits replayed an
// already-built plan (or joined an in-flight build), misses built one, and
// evictions dropped a built plan to keep the cache within its op budget.
// Evictions explain the gap between distinct shapes and misses: an evicted
// shape that recurs later in the work-list misses again.
func (r *Runner) PlanCacheStats() (hits, misses, evictions int) {
	return int(r.planHits.Load()), int(r.planMisses.Load()), int(r.planEvictions.Load())
}

// Phase indices of Runner.phaseNS: where campaign wall time goes.
const (
	phasePlan    = iota // plan-cache lookups and (on misses) plan builds
	phaseEnqueue        // replaying plans onto the runtime's streams
	phaseAdvance        // draining the event queue (runtime Sync)
	phaseOther          // operand setup and the non-plan-replaying libraries
	numPhases
)

// PhaseSeconds reports the accumulated per-phase wall time of this
// runner's repetitions: plan building, plan replay (enqueue), event-queue
// advance, and everything else (operand setup plus the comparator
// libraries that run to completion internally). All zero unless Clock is
// set.
func (r *Runner) PhaseSeconds() (planBuild, enqueue, advance, other float64) {
	const s = 1e-9
	return float64(r.phaseNS[phasePlan].Load()) * s,
		float64(r.phaseNS[phaseEnqueue].Load()) * s,
		float64(r.phaseNS[phaseAdvance].Load()) * s,
		float64(r.phaseNS[phaseOther].Load()) * s
}

// phaseLap attributes wall-time intervals to campaign phases through the
// runner's injected clock; the zero value (no clock installed) makes every
// lap a no-op, so default campaigns pay nothing for the instrumentation.
type phaseLap struct {
	r    *Runner
	mark time.Time
}

// startLap begins interval attribution for one repetition.
func (r *Runner) startLap() phaseLap {
	if r.Clock == nil {
		return phaseLap{}
	}
	return phaseLap{r: r, mark: r.Clock()}
}

// lap charges the time since the previous lap (or startLap) to phase ph.
func (pc *phaseLap) lap(ph int) {
	if pc.r == nil {
		return
	}
	now := pc.r.Clock()
	pc.r.phaseNS[ph].Add(int64(now.Sub(pc.mark)))
	pc.mark = now
}

// key renders the legacy string cell key; it survives only as the input of
// seedFor, so cached repetitions keep their exact historical noise seeds.
func (r *Runner) key(lib Lib, p Problem, T int) string {
	return fmt.Sprintf("%s|%s|%s|%d", r.TB.Name, lib, p.Name(), T)
}

// seedFor derives a deterministic noise seed for one repetition.
func (r *Runner) seedFor(key string, rep int) int64 {
	h := int64(1469598103934665603)
	for _, c := range key {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h ^ (r.SeedBase * 7919) ^ int64(rep)*104729
}

// deviceMatrix allocates an unbacked full-matrix device buffer for
// device-resident operands.
func deviceMatrix(rt *cudart.Runtime, dt kernelmodel.Dtype, rows, cols int) (*operand.Matrix, error) {
	buf, err := rt.Malloc(dt, int64(rows)*int64(cols), false)
	if err != nil {
		return nil, err
	}
	return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}, nil
}

// gemmOperands materializes the problem's operands on a fresh runtime.
func gemmOperands(rt *cudart.Runtime, p Problem) (a, b, c *operand.Matrix, err error) {
	build := func(rows, cols int, loc model.Loc) (*operand.Matrix, error) {
		if loc == model.OnHost {
			return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostLd: rows}, nil
		}
		return deviceMatrix(rt, p.Dtype, rows, cols)
	}
	if a, err = build(p.M, p.K, p.Locs[0]); err != nil {
		return nil, nil, nil, err
	}
	if b, err = build(p.K, p.N, p.Locs[1]); err != nil {
		return nil, nil, nil, err
	}
	if c, err = build(p.M, p.N, p.Locs[2]); err != nil {
		return nil, nil, nil, err
	}
	return a, b, c, nil
}

// axpyOperands materializes the daxpy operands on a fresh runtime.
func axpyOperands(rt *cudart.Runtime, p Problem) (x, y *operand.Vector, err error) {
	build := func(loc model.Loc) (*operand.Vector, error) {
		if loc == model.OnHost {
			return &operand.Vector{N: p.N, Loc: model.OnHost}, nil
		}
		buf, err := rt.Malloc(kernelmodel.F64, int64(p.N), false)
		if err != nil {
			return nil, err
		}
		return &operand.Vector{N: p.N, Loc: model.OnDevice, Dev: buf}, nil
	}
	if x, err = build(p.Locs[0]); err != nil {
		return nil, nil, err
	}
	if y, err = build(p.Locs[1]); err != nil {
		return nil, nil, err
	}
	return x, y, nil
}

// ctxStreams is the number of long-lived streams a bundle's scheduler
// context owns (h2d, d2h, compute); TruncateStreams rewinds a reused
// bundle's runtime to exactly these.
const ctxStreams = 3

// simBundle is one fully wired simulation stack — engine, device, runtime
// and scheduler context — recycled across a runner's repetitions. Pooling
// the stack as a unit is what makes a cached-plan repetition allocation-
// free outside the simulation itself: the engine keeps its heap backing
// and event free list, the runtime its op/event slabs and kernel-duration
// memo, the context its streams, bucket slice and replay scratch, and the
// device its task free list. Per repetition only the noise streams are
// reseeded and the accounting counters zeroed.
type simBundle struct {
	eng *sim.Engine
	dev *device.Device
	rt  *cudart.Runtime
	ctx *sched.Context
}

// bundle returns a simulation stack ready for one repetition with the
// given noise seed: a pooled stack is reset in place (engine cleared,
// device and link reseeded, comparator-created streams shed, tile pool
// emptied), a fresh one is wired from scratch. Either way the stack is
// indistinguishable from a freshly constructed one — the reuse property
// tests in sim, and the campaign identity checks in cocobench, pin it.
func (r *Runner) bundle(seed int64) *simBundle {
	r.bundleMu.Lock()
	var b *simBundle
	if n := len(r.bundleFree); n > 0 {
		b = r.bundleFree[n-1]
		r.bundleFree[n-1] = nil
		r.bundleFree = r.bundleFree[:n-1]
	}
	r.bundleMu.Unlock()
	if b != nil {
		b.eng.Reset()
		b.dev.Reset(seed)
		b.rt.TruncateStreams(ctxStreams)
		b.ctx.Reset()
		return b
	}
	eng := sim.New()
	dev := device.New(eng, r.TB, seed, false)
	rt := cudart.New(dev)
	return &simBundle{eng: eng, dev: dev, rt: rt, ctx: sched.NewContext(rt, false)}
}

// putBundle parks a cleanly drained bundle for reuse.
func (r *Runner) putBundle(b *simBundle) {
	r.bundleMu.Lock()
	r.bundleFree = append(r.bundleFree, b)
	r.bundleMu.Unlock()
}

// finishTimed drains the engine and settles an enqueued plan replay,
// attributing the enqueue and advance intervals to their phases (the timed
// counterpart of the sched *With tails). err is the Enqueue variant's
// error, so call sites stay one-liners.
func (r *Runner) finishTimed(pc *phaseLap, rt *cudart.Runtime, pend *sched.PendingGemm, err error) (operand.Result, error) {
	if err != nil {
		return operand.Result{}, err
	}
	pc.lap(phaseEnqueue)
	end, serr := rt.Sync()
	pc.lap(phaseAdvance)
	res := pend.Finish(end)
	if serr != nil {
		return operand.Result{}, serr
	}
	return res, nil
}

// runOnce executes one repetition and returns its result. The whole
// simulation stack is pooled as a unit (reset-on-reuse is
// indistinguishable from fresh — pinned by the sim package's reuse
// property test and the campaign identity checks); no measurement state
// leaks because every reset reseeds the noise streams and zeroes the
// accounting. A failed repetition abandons its bundle rather than pooling
// it: the engine, runtime or context may hold half-enqueued state whose
// cleanup is not worth proving correct on an error path.
func (r *Runner) runOnce(lib Lib, p Problem, T int, seed int64) (res operand.Result, err error) {
	bd := r.bundle(seed)
	rt := bd.rt
	defer func() {
		r.events.Add(int64(bd.eng.Processed()))
		if err == nil {
			r.putBundle(bd)
		}
	}()
	pc := r.startLap()

	if p.Routine == "daxpy" {
		x, y, err := axpyOperands(rt, p)
		if err != nil {
			return operand.Result{}, err
		}
		switch lib {
		case LibCoCoPeLia:
			ctx := bd.ctx
			opts := sched.AxpyOpts{N: p.N, Alpha: 1.1, X: x, Y: y, T: T}
			pc.lap(phaseOther)
			pl, err := r.planFor(planCell("axpy", p, T), func() (*plan.Plan, error) {
				return ctx.PlanAxpy(opts)
			})
			if err != nil {
				return operand.Result{}, err
			}
			pc.lap(phasePlan)
			pend, err := ctx.AxpyEnqueueWith(pl, opts)
			return r.finishTimed(&pc, rt, pend, err)
		case LibUnified:
			res, err := unified.Daxpy(rt, p.N, 1.1, x, y, false)
			pc.lap(phaseOther)
			return res, err
		default:
			return operand.Result{}, fmt.Errorf("eval: library %s has no daxpy", lib)
		}
	}

	if p.Routine == "dgemv" {
		if lib != LibCoCoPeLia {
			return operand.Result{}, fmt.Errorf("eval: library %s has no dgemv", lib)
		}
		var a *operand.Matrix
		if p.Locs[0] == model.OnHost {
			a = &operand.Matrix{Rows: p.M, Cols: p.N, Loc: model.OnHost, HostLd: p.M}
		} else {
			var err error
			if a, err = deviceMatrix(rt, kernelmodel.F64, p.M, p.N); err != nil {
				return operand.Result{}, err
			}
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
		x, err := vec(p.N, p.Locs[1])
		if err != nil {
			return operand.Result{}, err
		}
		y, err := vec(p.M, p.Locs[2])
		if err != nil {
			return operand.Result{}, err
		}
		ctx := bd.ctx
		opts := sched.GemvOpts{M: p.M, N: p.N, Alpha: 1, Beta: 1, A: a, X: x, Y: y, T: T}
		pc.lap(phaseOther)
		pl, err := r.planFor(planCell("gemv", p, T), func() (*plan.Plan, error) {
			return ctx.PlanGemv(opts)
		})
		if err != nil {
			return operand.Result{}, err
		}
		pc.lap(phasePlan)
		pend, err := ctx.GemvEnqueueWith(pl, opts)
		return r.finishTimed(&pc, rt, pend, err)
	}

	switch p.Routine {
	case "dpotrf", "dgetrf", "dtrsm":
		if lib != LibCoCoPeLia {
			return operand.Result{}, fmt.Errorf("eval: library %s has no %s", lib, p.Routine)
		}
		return r.runFactor(bd, &pc, p, T)
	}

	a, b, c, err := gemmOperands(rt, p)
	if err != nil {
		return operand.Result{}, err
	}
	switch lib {
	case LibCoCoPeLia:
		ctx := bd.ctx
		opts := sched.GemmOpts{
			Dtype: p.Dtype, M: p.M, N: p.N, K: p.K,
			Alpha: 1, Beta: 1, A: a, B: b, C: c, T: T,
		}
		pc.lap(phaseOther)
		pl, err := r.planFor(planCell("gemm", p, T), func() (*plan.Plan, error) {
			return ctx.PlanGemm(opts)
		})
		if err != nil {
			return operand.Result{}, err
		}
		pc.lap(phasePlan)
		pend, err := ctx.GemmEnqueueWith(pl, opts)
		return r.finishTimed(&pc, rt, pend, err)
	case LibNoReuse:
		ctx := bd.ctx
		opts := sched.GemmOpts{
			Dtype: p.Dtype, M: p.M, N: p.N, K: p.K,
			Alpha: 1, Beta: 1, A: a, B: b, C: c, T: T,
		}
		pc.lap(phaseOther)
		// The no-reuse planner's slot count depends on free device memory,
		// which is deterministic given the location vector (the same
		// device-resident operands are staged before planning), so the
		// shape key still fully determines the plan.
		pl, err := r.planFor(planCell("gemm-noreuse", p, T), func() (*plan.Plan, error) {
			return ctx.PlanGemmNoReuse(opts)
		})
		if err != nil {
			return operand.Result{}, err
		}
		pc.lap(phasePlan)
		pend, err := ctx.GemmNoReuseEnqueueWith(pl, opts)
		return r.finishTimed(&pc, rt, pend, err)
	case LibCuBLASXt:
		h := cublasxt.New(rt, 0, false)
		res, err := h.Gemm(cublasxt.GemmOpts{
			Dtype: p.Dtype, M: p.M, N: p.N, K: p.K,
			Alpha: 1, Beta: 1, A: a, B: b, C: c, T: T,
		})
		pc.lap(phaseOther)
		return res, err
	case LibBLASX:
		l := blasx.New(rt, false)
		res, err := l.Gemm(blasx.GemmOpts{
			Dtype: p.Dtype, M: p.M, N: p.N, K: p.K,
			Alpha: 1, Beta: 1, A: a, B: b, C: c,
		})
		pc.lap(phaseOther)
		return res, err
	}
	return operand.Result{}, fmt.Errorf("eval: unknown library %s", lib)
}

// runFactor executes one repetition of a tiled factorization problem
// ("dpotrf", "dgetrf" or "dtrsm") through the task-graph planners, with
// the same plan-cache and phase-attribution flow as the flat routines.
func (r *Runner) runFactor(bd *simBundle, pc *phaseLap, p Problem, T int) (operand.Result, error) {
	rt, ctx := bd.rt, bd.ctx
	mat := func(rows, cols int, loc model.Loc) (*operand.Matrix, error) {
		if loc == model.OnHost {
			return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostLd: rows}, nil
		}
		return deviceMatrix(rt, p.Dtype, rows, cols)
	}
	switch p.Routine {
	case "dpotrf":
		a, err := mat(p.N, p.N, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.CholeskyOpts{Dtype: p.Dtype, N: p.N, A: a, T: T}
		pc.lap(phaseOther)
		pl, err := r.planFor(planCell("cholesky", p, T), func() (*plan.Plan, error) {
			return ctx.PlanCholesky(opts)
		})
		if err != nil {
			return operand.Result{}, err
		}
		pc.lap(phasePlan)
		pend, err := ctx.CholeskyEnqueueWith(pl, opts)
		return r.finishTimed(pc, rt, pend, err)
	case "dgetrf":
		a, err := mat(p.N, p.N, p.Locs[0])
		if err != nil {
			return operand.Result{}, err
		}
		opts := sched.LUOpts{Dtype: p.Dtype, N: p.N, A: a, T: T}
		pc.lap(phaseOther)
		pl, err := r.planFor(planCell("lu", p, T), func() (*plan.Plan, error) {
			return ctx.PlanLU(opts)
		})
		if err != nil {
			return operand.Result{}, err
		}
		pc.lap(phasePlan)
		pend, err := ctx.LUEnqueueWith(pl, opts)
		return r.finishTimed(pc, rt, pend, err)
	}
	// dtrsm: A is the M x M lower triangle, B the M x N right-hand side.
	a, err := mat(p.M, p.M, p.Locs[0])
	if err != nil {
		return operand.Result{}, err
	}
	b, err := mat(p.M, p.N, p.Locs[1])
	if err != nil {
		return operand.Result{}, err
	}
	opts := sched.TrsmOpts{Dtype: p.Dtype, M: p.M, N: p.N, Alpha: 1, A: a, B: b, T: T}
	pc.lap(phaseOther)
	pl, err := r.planFor(planCell("trsm", p, T), func() (*plan.Plan, error) {
		return ctx.PlanTrsm(opts)
	})
	if err != nil {
		return operand.Result{}, err
	}
	pc.lap(phasePlan)
	pend, err := ctx.TrsmEnqueueWith(pl, opts)
	return r.finishTimed(pc, rt, pend, err)
}

// Measure runs the library on the problem with tiling size T (ignored by
// BLASX and UnifiedMem) and returns the aggregated result over Reps
// repetitions: Seconds is the mean over repetitions, while the structural
// fields (T, Subkernels, BytesH2D, BytesD2H) are the per-repetition
// maxima — the repetitions differ only in noise seed, so these are
// normally identical across reps, and taking the maximum makes the
// aggregation explicit rather than silently reporting the last
// repetition's values.
//
// Results are cached by (testbed, lib, problem, T). Measure is safe for
// concurrent use, and concurrent calls for the same cell simulate it
// exactly once; errors are returned to every waiter but never cached.
//
//cocolint:hotpath
func (r *Runner) Measure(lib Lib, p Problem, T int) (operand.Result, error) {
	ck := cell(lib, p, T)
	s := r.shard(ck)
	s.mu.Lock()
	if res, ok := s.results[ck]; ok {
		s.mu.Unlock()
		r.hits.Add(1)
		return res, nil
	}
	if c, ok := s.inflight[ck]; ok {
		s.mu.Unlock()
		r.waits.Add(1)
		<-c.done
		return c.res, c.err
	}
	//lint:ignore hotpath cache miss simulates the cell (entered with s.mu held); each distinct cell pays it once per campaign
	return r.measureMiss(ck, s, lib, p, T)
}

// measureMiss is Measure's uncached path, entered with s.mu held: it
// registers the in-flight call, simulates the cell and publishes the
// result to the shard.
func (r *Runner) measureMiss(ck cellKey, s *cacheShard, lib Lib, p Problem, T int) (operand.Result, error) {
	c := &inflightCall{done: make(chan struct{})}
	s.inflight[ck] = c
	s.mu.Unlock()
	r.misses.Add(1)

	// The string key is rendered only on this miss path: it feeds the
	// per-repetition seed derivation, which must stay byte-identical.
	c.res, c.err = r.measureCell(r.key(lib, p, T), lib, p, T)

	s.mu.Lock()
	delete(s.inflight, ck)
	if c.err == nil {
		s.results[ck] = c.res
	}
	s.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// measureCell executes the repetitions of one uncached cell and aggregates
// them (see Measure for the semantics).
func (r *Runner) measureCell(key string, lib Lib, p Problem, T int) (operand.Result, error) {
	reps := r.Reps
	if reps < 1 {
		reps = 1
	}
	times := make([]float64, 0, reps)
	var res operand.Result
	for i := 0; i < reps; i++ {
		one, err := r.runOnce(lib, p, T, r.seedFor(key, i))
		if err != nil {
			return operand.Result{}, fmt.Errorf("eval: %s on %s (T=%d): %w", lib, p.Name(), T, err)
		}
		times = append(times, one.Seconds)
		if i == 0 {
			res = one
		} else {
			res.Subkernels = max(res.Subkernels, one.Subkernels)
			res.BytesH2D = max(res.BytesH2D, one.BytesH2D)
			res.BytesD2H = max(res.BytesD2H, one.BytesD2H)
		}
	}
	res.Seconds = stats.Mean(times)
	return res, nil
}

// MeasureCell names one cell of a campaign's measurement work-list.
type MeasureCell struct {
	Lib Lib
	P   Problem
	T   int
}

// MeasureBatch prefetches a work-list of cells through the pool, warming
// the cache so a subsequent sequential assembly pass hits every cell.
// Duplicate cells are deduplicated before fan-out. The first simulation
// error cancels the batch and is returned. A nil pool prefetches serially
// (the legacy execution order); the cached results are identical either
// way because every cell's noise seed derives from its key alone.
func (r *Runner) MeasureBatch(pool *parallel.Pool, cells []MeasureCell) error {
	seen := make(map[cellKey]bool, len(cells))
	uniq := make([]MeasureCell, 0, len(cells))
	for _, c := range cells {
		k := cell(c.Lib, c.P, c.T)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, c)
		}
	}
	return parallel.ForEach(pool, uniq, func(_ int, c MeasureCell) error {
		_, err := r.Measure(c.Lib, c.P, c.T)
		return err
	})
}

// CacheStats reports measurement-cache activity, mirroring
// predictor.CacheStats: hits served from the completed-result cache,
// misses that ran a simulation, and waits deduplicated onto an in-flight
// simulation of the same cell by the singleflight layer.
func (r *Runner) CacheStats() (hits, misses, waits int) {
	return int(r.hits.Load()), int(r.misses.Load()), int(r.waits.Load())
}

// EventsProcessed returns the total number of discrete events the runner's
// simulations have fired so far (across all repetitions and cells). It is
// the denominator-independent throughput counter the campaign benchmark
// reports as events/sec.
func (r *Runner) EventsProcessed() int64 { return r.events.Load() }

// FullKernelTime measures the un-tiled full-problem kernel time on the
// device (the input the CSO comparator model requires).
func (r *Runner) FullKernelTime(p Problem) float64 {
	gpu := &r.TB.GPU
	switch p.Routine {
	case "daxpy":
		return kernelmodel.AxpyTime(gpu, kernelmodel.F64, p.N)
	case "dgemv":
		return kernelmodel.GemvTime(gpu, kernelmodel.F64, p.M, p.N)
	}
	return kernelmodel.GemmTime(gpu, p.Dtype, p.M, p.N, p.K)
}

// SweepTiles returns the measured-performance tile sweep grid for a
// problem: the benchmarked tile sizes filtered by the paper's feasibility
// rule, optionally coarsened (step multiplier) for fast runs.
func SweepTiles(p Problem, grid []int, coarsen int) []int {
	if coarsen < 1 {
		coarsen = 1
	}
	prm := p.Params()
	maxT := prm.MinDim()
	if prm.Level >= 2 {
		maxT = int64(float64(prm.MinDim()) / 1.5)
	}
	var out []int
	for i, T := range grid {
		if i%coarsen != 0 {
			continue
		}
		if int64(T) <= maxT {
			out = append(out, T)
		}
	}
	return out
}
