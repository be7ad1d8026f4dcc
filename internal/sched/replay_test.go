package sched

import (
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
	"cocopelia/internal/sim"
)

// The replay tests pin the bound replay to the bare one: replaying a plan
// on a backed context with seeded operands — every transfer carrying its
// host window, every kernel its payload — must produce the identical
// simulation as replaying the same plan timing-only: same end time, same
// processed-event count, same per-direction link traffic.

// replayOperands builds a scenario's operands: seeded data on backed
// contexts, storage-free descriptors on timing-only ones. Device-resident
// data is written straight into the buffer so no setup transfer touches
// the simulation.
type replayOperands struct {
	t      *testing.T
	c      *Context
	backed bool
	rng    *rand.Rand
}

// random returns a generator of seeded rows x cols values; boost, when
// positive, is added to the diagonal of a square result.
func (r replayOperands) random(rows, cols int, boost float64) func() []float64 {
	return func() []float64 {
		d := randMat(r.rng, rows, cols)
		for j := 0; j < rows && j < cols; j++ {
			d[j+j*rows] += boost
		}
		return d
	}
}

// storage returns gen's data on backed contexts and nil otherwise, plus a
// device buffer of n elements holding it when loc is the device.
func (r replayOperands) storage(n int, loc model.Loc, gen func() []float64) ([]float64, *cudart.DevBuffer) {
	r.t.Helper()
	var data []float64
	if r.backed {
		data = gen()
	}
	if loc == model.OnHost {
		return data, nil
	}
	buf, err := r.c.rt.Malloc(kernelmodel.F64, int64(n), r.backed)
	if err != nil {
		r.t.Fatal(err)
	}
	copy(buf.F64(), data)
	return nil, buf
}

// mat builds a rows x cols matrix operand at loc.
func (r replayOperands) mat(rows, cols int, loc model.Loc, gen func() []float64) *Matrix {
	host, dev := r.storage(rows*cols, loc, gen)
	if dev != nil {
		return &Matrix{Rows: rows, Cols: cols, Loc: loc, Dev: dev, DevLd: rows}
	}
	return &Matrix{Rows: rows, Cols: cols, Loc: loc, HostF64: host, HostLd: rows}
}

// vec builds a length-n vector operand at loc.
func (r replayOperands) vec(n int, loc model.Loc) *Vector {
	host, dev := r.storage(n, loc, r.random(n, 1, 0))
	return &Vector{N: n, Loc: loc, HostF64: host, Dev: dev}
}

type replayTrace struct {
	end       sim.Time
	processed uint64
	h2d, d2h  int64 // link bytes
	transfers int64
}

// replayOnce builds a fresh noisy context, lets build produce the plan and
// its bound arguments, replays the plan's tape — with the bindings on a
// backed context, without them otherwise — and drains the simulation.
func replayOnce(t *testing.T, backed bool, build func(r replayOperands) (*plan.Plan, []plan.Arg)) replayTrace {
	t.Helper()
	c := NewContext(cudart.New(device.New(sim.New(), machine.TestbedI(), 7, false)), backed)
	p, args := build(replayOperands{t: t, c: c, backed: backed, rng: rand.New(rand.NewSource(3))})
	if !backed {
		args = nil
	}
	if _, err := c.exec.Replay(p.TapeFor(&c.rt.Device().Testbed().GPU), c.target(), args); err != nil {
		t.Fatal(err)
	}
	end, err := c.rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	lk := c.rt.Device().Link()
	h2d, d2h := lk.Stats(machine.H2D), lk.Stats(machine.D2H)
	return replayTrace{
		end:       end,
		processed: c.rt.Engine().Processed(),
		h2d:       h2d.Bytes,
		d2h:       d2h.Bytes,
		transfers: h2d.Transfers + d2h.Transfers,
	}
}

func checkBoundMatchesBare(t *testing.T, build func(r replayOperands) (*plan.Plan, []plan.Arg)) {
	t.Helper()
	bare := replayOnce(t, false, build)
	bound := replayOnce(t, true, build)
	if bound != bare {
		t.Errorf("backed replay diverged from timing-only replay:\n  timing-only %+v\n  backed      %+v", bare, bound)
	}
	if bare.processed == 0 {
		t.Error("timing-only replay processed no events")
	}
}

// replayCase is one plan scenario: build returns the plan and its operand
// bindings for a context.
type replayCase struct {
	name  string
	build func(r replayOperands) (*plan.Plan, []plan.Arg)
}

// replayCases covers every builder with host- and device-resident operands.
func replayCases(t *testing.T) []replayCase {
	H, D := model.OnHost, model.OnDevice
	gemm := func(dt kernelmodel.Dtype, transA, transB byte, m, n, k, T int, alpha, beta float64,
		locs [3]model.Loc, dispatch float64, noReuse bool) func(r replayOperands) (*plan.Plan, []plan.Arg) {
		return func(r replayOperands) (*plan.Plan, []plan.Arg) {
			r.c.SetDispatchOverhead(dispatch)
			ar, ac := m, k
			if transA == blas.Trans {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB == blas.Trans {
				br, bc = n, k
			}
			opts := GemmOpts{
				Dtype: dt, TransA: transA, TransB: transB,
				M: m, N: n, K: k, Alpha: alpha, Beta: beta, T: T,
				A: r.mat(ar, ac, locs[0], r.random(ar, ac, 0)),
				B: r.mat(br, bc, locs[1], r.random(br, bc, 0)),
				C: r.mat(m, n, locs[2], r.random(m, n, 0)),
			}
			if dt == kernelmodel.F32 {
				for _, mat := range []*Matrix{opts.A, opts.B, opts.C} {
					mat.HostF32 = make([]float32, len(mat.HostF64))
					for i, v := range mat.HostF64 {
						mat.HostF32[i] = float32(v)
					}
					mat.HostF64 = nil
				}
			}
			build := r.c.PlanGemm
			if noReuse {
				build = r.c.PlanGemmNoReuse
			}
			p, err := build(opts)
			if err != nil {
				t.Fatal(err)
			}
			return p, gemmArgs(opts)
		}
	}
	gemv := func(locX model.Loc) func(r replayOperands) (*plan.Plan, []plan.Arg) {
		return func(r replayOperands) (*plan.Plan, []plan.Arg) {
			opts := GemvOpts{
				M: 96, N: 64, Alpha: 1.25, Beta: 0.75, T: 32,
				A: r.mat(96, 64, H, r.random(96, 64, 0)),
				X: r.vec(64, locX),
				Y: r.vec(96, H),
			}
			p, err := r.c.PlanGemv(opts)
			if err != nil {
				t.Fatal(err)
			}
			return p, gemvArgs(opts)
		}
	}
	axpy := func(locX model.Loc) func(r replayOperands) (*plan.Plan, []plan.Arg) {
		return func(r replayOperands) (*plan.Plan, []plan.Arg) {
			opts := AxpyOpts{N: 1000, Alpha: 1.1, T: 256, X: r.vec(1000, locX), Y: r.vec(1000, H)}
			p, err := r.c.PlanAxpy(opts)
			if err != nil {
				t.Fatal(err)
			}
			return p, []plan.Arg{{Vec: opts.X}, {Vec: opts.Y}}
		}
	}
	cholesky := func(n int, loc model.Loc) func(r replayOperands) (*plan.Plan, []plan.Arg) {
		return func(r replayOperands) (*plan.Plan, []plan.Arg) {
			opts := CholeskyOpts{Dtype: kernelmodel.F64, N: n, T: 32,
				A: r.mat(n, n, loc, func() []float64 { return spdMatrix(r.rng, n) })}
			p, err := r.c.PlanCholesky(opts)
			if err != nil {
				t.Fatal(err)
			}
			return p, []plan.Arg{{Mat: opts.A}}
		}
	}
	lu := func(n int, loc model.Loc) func(r replayOperands) (*plan.Plan, []plan.Arg) {
		return func(r replayOperands) (*plan.Plan, []plan.Arg) {
			opts := LUOpts{Dtype: kernelmodel.F64, N: n, T: 32, A: r.mat(n, n, loc, r.random(n, n, float64(n)))}
			p, err := r.c.PlanLU(opts)
			if err != nil {
				t.Fatal(err)
			}
			return p, []plan.Arg{{Mat: opts.A}}
		}
	}
	trsm := func(locA, locB model.Loc) func(r replayOperands) (*plan.Plan, []plan.Arg) {
		return func(r replayOperands) (*plan.Plan, []plan.Arg) {
			opts := TrsmOpts{Dtype: kernelmodel.F64, M: 96, N: 64, Alpha: 0.75, T: 32,
				A: r.mat(96, 96, locA, r.random(96, 96, 96)),
				B: r.mat(96, 64, locB, r.random(96, 64, 0))}
			p, err := r.c.PlanTrsm(opts)
			if err != nil {
				t.Fatal(err)
			}
			return p, []plan.Arg{{Mat: opts.A}, {Mat: opts.B}}
		}
	}

	return []replayCase{
		{"gemm-hhh", gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 96, 64, 80, 32, 1.5, 0.5, [3]model.Loc{H, H, H}, 0, false)},
		{"gemm-dhd-beta0", gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 64, 96, 64, 32, 2, 0, [3]model.Loc{D, H, D}, 0, false)},
		{"gemm-f32-trans-dispatch", gemm(kernelmodel.F32, blas.Trans, blas.NoTrans, 64, 64, 96, 32, 1, 1, [3]model.Loc{H, H, H}, 1e-5, false)},
		{"gemm-noreuse", gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 96, 96, 64, 32, 1, 1, [3]model.Loc{H, H, H}, 0, true)},
		{"gemm-noreuse-device", gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 96, 96, 64, 32, 1, 1, [3]model.Loc{D, D, D}, 0, true)},
		{"gemv", gemv(H)},
		{"gemv-device-x", gemv(D)},
		{"axpy", axpy(H)},
		{"axpy-device-x", axpy(D)},
		{"cholesky", cholesky(100, H)},
		{"cholesky-device", cholesky(96, D)},
		{"lu", lu(100, H)},
		{"lu-device", lu(96, D)},
		{"trsm", trsm(H, H)},
		{"trsm-device", trsm(D, D)},
		{"gemm-nt-ddh", gemm(kernelmodel.F64, blas.NoTrans, blas.Trans, 80, 64, 96, 32, 1, 0.5, [3]model.Loc{D, D, H}, 0, false)},
		{"gemm-tt-hdd", gemm(kernelmodel.F64, blas.Trans, blas.Trans, 64, 80, 96, 32, 0.5, 1, [3]model.Loc{H, D, D}, 0, false)},
		{"gemm-f64-tn-dispatch-dhh", gemm(kernelmodel.F64, blas.Trans, blas.NoTrans, 96, 64, 64, 32, 1, 1, [3]model.Loc{D, H, H}, 2e-6, false)},
	}
}

func TestTapeReplayMatchesRun(t *testing.T) {
	for _, tc := range replayCases(t) {
		t.Run(tc.name, func(t *testing.T) { checkBoundMatchesBare(t, tc.build) })
	}
}

// tapeFixture builds a warm timing-only context with a compiled gemm tape:
// after one replay every free list and scratch buffer is primed.
func tapeFixture(tb testing.TB, m, n, k, T int) (*Context, *plan.Tape) {
	c := newCtx(false)
	opts := GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1, Beta: 1, T: T,
		A: &Matrix{Rows: m, Cols: k, Loc: model.OnHost, HostLd: m},
		B: &Matrix{Rows: k, Cols: n, Loc: model.OnHost, HostLd: k},
		C: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostLd: m},
	}
	p, err := c.PlanGemm(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tape := p.TapeFor(&c.rt.Device().Testbed().GPU)
	replayTapeOnce(tb, c, tape)
	return c, tape
}

// replayTapeOnce replays the tape, drains the engine and releases the
// staging buffers back to the pool.
func replayTapeOnce(tb testing.TB, c *Context, tape *plan.Tape) {
	pooled, err := c.exec.Replay(tape, c.target(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.rt.Sync(); err != nil {
		tb.Fatal(err)
	}
	for _, b := range pooled {
		c.Release(b)
	}
}

// TestReplayTapeZeroAlloc gates the batched replay loop at zero
// allocations per replay once the context is warm: the tape, the executor
// scratch, the cudart op/event free lists, the link transfer free list and
// the engine event free list must all recycle.
func TestReplayTapeZeroAlloc(t *testing.T) {
	c, tape := tapeFixture(t, 256, 256, 256, 64)
	replayTapeOnce(t, c, tape) // second warm-up: pool buckets at steady state
	allocs := testing.AllocsPerRun(10, func() {
		replayTapeOnce(t, c, tape)
	})
	if allocs != 0 {
		t.Fatalf("tape replay allocates %.1f objects per run, want 0", allocs)
	}
}

// TestBackedReplayZeroAlloc gates a warm backed replay — every transfer
// carrying its host window, every kernel its payload — at zero
// allocations per replay: the per-node bindings live in the launch
// state's scratch and the blas kernels' scratch in their pool. Each
// replay first restores the operands' data, so the in-place
// factorizations and solves always run on their original input.
func TestBackedReplayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so the blas packing and scratch buffers cannot pin 0 allocs")
	}
	for _, tc := range replayCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := oracleCtx(true)
			p, args := tc.build(replayOperands{t: t, c: c, backed: true, rng: rand.New(rand.NewSource(3))})
			data := operandStorage(args)
			saved := make([][]float64, len(data))
			for i, d := range data {
				saved[i] = append([]float64(nil), d...)
			}
			replay := func() {
				for i, d := range data {
					copy(d, saved[i])
				}
				pooled := graphReplay(t, c, p, args)
				if _, err := c.rt.Sync(); err != nil {
					t.Fatal(err)
				}
				for _, b := range pooled {
					c.Release(b)
				}
			}
			replay()
			replay() // second warm-up: pool buckets at steady state
			if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
				t.Fatalf("backed replay allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}

// operandStorage returns the float64 host and device storage of every
// bound operand.
func operandStorage(args []plan.Arg) [][]float64 {
	var out [][]float64
	for _, a := range args {
		var host []float64
		var dev *cudart.DevBuffer
		if a.Mat != nil {
			host, dev = a.Mat.HostF64, a.Mat.Dev
		} else {
			host, dev = a.Vec.HostF64, a.Vec.Dev
		}
		out = append(out, host)
		if dev != nil {
			out = append(out, dev.F64())
		}
	}
	return out
}

// BenchmarkReplay measures one full batched plan replay — tape walk plus
// simulation drain — on a warm context.
func BenchmarkReplay(b *testing.B) {
	c, tape := tapeFixture(b, 1024, 1024, 1024, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayTapeOnce(b, c, tape)
	}
}
