package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// The graph-oracle tests pin the static graph launch to the dynamic op
// path it replaces: dynamicReplay enqueues a plan one op at a time —
// each op's dependency waits, then its transfer or kernel through the
// public cudart entry points, then the tail waits — and both paths must
// produce the bit-identical trace: every kernel's (name, start, end) and
// every transfer's (direction, start, end, bytes), on a noisy device.

// traceEvent is one observed kernel or transfer interval.
type traceEvent struct {
	kernel     string // empty for transfers
	dir        machine.LinkDir
	start, end sim.Time
	bytes      int64
}

// fullTrace is everything a run leaves observable.
type fullTrace struct {
	events    []traceEvent
	marks     []sim.Time // times recorded by test callbacks
	end       sim.Time
	processed uint64
}

// observe installs trace observers on the context's device and returns
// the trace they fill.
func observe(c *Context) *fullTrace {
	tr := &fullTrace{}
	dev := c.rt.Device()
	dev.SetKernelObserver(func(name string, start, end sim.Time) {
		tr.events = append(tr.events, traceEvent{kernel: name, start: start, end: end})
	})
	dev.Link().SetObserver(func(dir machine.LinkDir, start, end sim.Time, bytes int64) {
		tr.events = append(tr.events, traceEvent{dir: dir, start: start, end: end, bytes: bytes})
	})
	return tr
}

// oracleCtx is a fresh context on a noisy Testbed I device.
func oracleCtx(backed bool) *Context {
	return NewContext(cudart.New(device.New(sim.New(), machine.TestbedI(), 7, false)), backed)
}

// dynamicReplay is the reference replay: it walks the plan's ops in order
// and enqueues each through the dynamic op path, waiting on the recorded
// dependencies' completion events first, then leaves the tail waits
// pending. args == nil replays timing-only. It returns the staging buffers
// it acquired.
func dynamicReplay(t *testing.T, c *Context, p *plan.Plan, args []plan.Arg) []*cudart.DevBuffer {
	t.Helper()
	gpu := &c.rt.Device().Testbed().GPU
	streams := c.target(p.TapeFor(gpu).Streams()).Streams
	slots := make([]*cudart.DevBuffer, len(p.Slots))
	var pooled []*cudart.DevBuffer
	events := make([]*cudart.Event, len(p.Ops))
	for i := range p.Ops {
		o := &p.Ops[i]
		if o.Kind == plan.OpAlloc {
			buf, err := c.Acquire(p.Slots[o.Slot].Dtype, p.Slots[o.Slot].Elems)
			if err != nil {
				t.Fatal(err)
			}
			slots[o.Slot] = buf
			pooled = append(pooled, buf)
			continue
		}
		s := streams[o.Stream]
		for _, d := range p.Deps(i) {
			s.WaitEvent(events[d])
		}
		var ev *cudart.Event
		var err error
		if o.Kind == plan.OpKernel {
			ev, err = dynamicKernel(s, p, o, args, slots, gpu)
		} else {
			ev, err = dynamicTransfer(s, o, args, slots[o.Slot])
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		events[i] = ev
	}
	for _, id := range p.TailH2D {
		c.h2d.WaitEvent(events[id])
	}
	for _, id := range p.TailComp {
		c.comp.WaitEvent(events[id])
	}
	return pooled
}

// dynamicTransfer enqueues a fetch or write-back through the checked copy
// entry points: the op's M x N window of its operand (N == 0: M elements
// of a vector), staged at the slot's origin with leading dimension M.
func dynamicTransfer(s *cudart.Stream, o *plan.Op, args []plan.Arg, buf *cudart.DevBuffer) (*cudart.Event, error) {
	m, n := int(o.M), int(o.N)
	var h64 []float64
	var h32 []float32
	hostLd := m
	if args != nil {
		a := args[o.A.Arg]
		if n == 0 {
			h64 = a.Vec.HostF64[o.A.Row:]
		} else {
			h64, h32 = a.Mat.HostSlices(int(o.A.Row), int(o.A.Col))
			hostLd = a.Mat.HostLd
		}
	}
	switch {
	case n == 0 && o.Kind == plan.OpFetch:
		return s.MemcpyH2DAsync(buf, 0, h64, nil, int64(m))
	case n == 0:
		return s.MemcpyD2HAsync(h64, nil, buf, 0, int64(m))
	case o.Kind == plan.OpFetch:
		return s.SetMatrixAsync(m, n, h64, h32, hostLd, buf, 0, m)
	}
	return s.GetMatrixAsync(m, n, buf, 0, m, h64, h32, hostLd)
}

// operandRef is a resolved kernel operand.
type operandRef struct {
	buf *cudart.DevBuffer
	off int64
	ld  int
}

// resolveRef maps a kernel operand reference to its device window.
func resolveRef(r plan.Ref, args []plan.Arg, slots []*cudart.DevBuffer) operandRef {
	switch {
	case r.Slot >= 0:
		return operandRef{buf: slots[r.Slot], ld: int(r.Row)}
	case r.Arg < 0:
		return operandRef{}
	}
	a := args[r.Arg]
	if a.Mat != nil {
		return operandRef{a.Mat.Dev, int64(r.Row) + int64(r.Col)*int64(a.Mat.DevLd), a.Mat.DevLd}
	}
	return operandRef{buf: a.Vec.Dev, off: int64(r.Row)}
}

// kernelAsync enqueues a kernel through the dynamic op path with its name
// and modeled duration and, when the output buffer out is backed, a
// payload running body; a failing body panics (the oracles launch only
// valid shapes).
func kernelAsync(s *cudart.Stream, name string, dur float64, out *cudart.DevBuffer, body func() error) (*cudart.Event, error) {
	if out == nil || !out.Backed() {
		return s.KernelAsync(name, dur, nil)
	}
	return s.KernelAsync(name, dur, func() {
		if err := body(); err != nil {
			panic(err)
		}
	})
}

// gemmAsync enqueues C = alpha*op(A)*op(B) + beta*C over device operands
// through the dynamic op path, named and timed as a plan's gemm kernel
// node, with the blas body as its payload on backed buffers.
func gemmAsync(s *cudart.Stream, gpu *machine.GPUSpec, transA, transB byte, m, n, k int,
	alpha float64, a *cudart.DevBuffer, offA int64, lda int,
	b *cudart.DevBuffer, offB int64, ldb int,
	beta float64, c *cudart.DevBuffer, offC int64, ldc int) (*cudart.Event, error) {
	name := "dgemm"
	if c.Dtype() == kernelmodel.F32 {
		name = "sgemm"
	}
	return kernelAsync(s, name, kernelmodel.GemmTime(gpu, c.Dtype(), m, n, k), c, func() error {
		if c.Dtype() == kernelmodel.F32 {
			return blas.Gemm(transA, transB, m, n, k, float32(alpha), a.F32()[offA:], lda,
				b.F32()[offB:], ldb, float32(beta), c.F32()[offC:], ldc)
		}
		return blas.Gemm(transA, transB, m, n, k, alpha, a.F64()[offA:], lda,
			b.F64()[offB:], ldb, beta, c.F64()[offC:], ldc)
	})
}

// gemvAsync enqueues y = alpha*op(A)*x + beta*y through the dynamic op
// path, like a plan's gemv kernel node.
func gemvAsync(s *cudart.Stream, gpu *machine.GPUSpec, trans byte, m, n int, alpha float64,
	a *cudart.DevBuffer, offA int64, lda int, x *cudart.DevBuffer, offX int64,
	beta float64, y *cudart.DevBuffer, offY int64) (*cudart.Event, error) {
	return kernelAsync(s, "gemv", kernelmodel.GemvTime(gpu, kernelmodel.F64, m, n), y, func() error {
		return blas.Gemv(trans, m, n, alpha, a.F64()[offA:], lda, x.F64()[offX:], 1, beta, y.F64()[offY:], 1)
	})
}

// axpyAsync enqueues y += alpha*x through the dynamic op path, like a
// plan's axpy kernel node.
func axpyAsync(s *cudart.Stream, gpu *machine.GPUSpec, n int, alpha float64,
	x *cudart.DevBuffer, offX int64, y *cudart.DevBuffer, offY int64) (*cudart.Event, error) {
	return kernelAsync(s, "daxpy", kernelmodel.AxpyTime(gpu, kernelmodel.F64, n), y, func() error {
		return blas.Axpy(n, alpha, x.F64()[offX:], 1, y.F64()[offY:], 1)
	})
}

// dynamicKernel enqueues a kernel op on its stream s through the dynamic
// op path: gemm, gemv and axpy through the helpers above, the rest as a
// KernelAsync with the modeled duration and, when bound, a payload
// running the reference blas kernel.
func dynamicKernel(s *cudart.Stream, p *plan.Plan, o *plan.Op, args []plan.Arg, slots []*cudart.DevBuffer, gpu *machine.GPUSpec) (*cudart.Event, error) {
	dt := p.Dtype
	alpha := map[plan.AlphaSel]float64{plan.AlphaPlan: p.Alpha, plan.AlphaOne: 1, plan.AlphaNegOne: -1}[o.Alpha]
	beta := map[plan.BetaSel]float64{plan.BetaZero: 0, plan.BetaOne: 1, plan.BetaPlan: p.Beta}[o.Beta]
	name := func(d, s string) string {
		if dt == kernelmodel.F32 {
			return s
		}
		return d
	}
	m, n, k := int(o.M), int(o.N), int(o.K)
	var a, b, cc operandRef
	if args != nil {
		a, b, cc = resolveRef(o.A, args, slots), resolveRef(o.B, args, slots), resolveRef(o.C, args, slots)
	}
	var kname string
	var dur float64
	var payload func() error
	switch o.Kernel {
	case plan.KDispatch:
		return s.KernelAsync("dispatch", p.DispatchS, nil)
	case plan.KGemm:
		if args != nil {
			return gemmAsync(s, gpu, o.TransA, o.TransB, m, n, k, alpha, a.buf, a.off, a.ld, b.buf, b.off, b.ld, beta, cc.buf, cc.off, cc.ld)
		}
		kname, dur = name("dgemm", "sgemm"), kernelmodel.GemmTime(gpu, dt, m, n, k)
	case plan.KGemv:
		if args != nil {
			return gemvAsync(s, gpu, o.TransA, m, n, alpha, a.buf, a.off, a.ld, b.buf, b.off, beta, cc.buf, cc.off)
		}
		kname, dur = "gemv", kernelmodel.GemvTime(gpu, kernelmodel.F64, m, n)
	case plan.KAxpy:
		if args != nil {
			return axpyAsync(s, gpu, n, alpha, a.buf, a.off, cc.buf, cc.off)
		}
		kname, dur = "daxpy", kernelmodel.AxpyTime(gpu, kernelmodel.F64, n)
	case plan.KPotrf:
		kname, dur = name("dpotrf", "spotrf"), kernelmodel.PotrfTime(gpu, dt, n)
		payload = func() error { return blas.Potrf(o.Uplo, n, a.buf.F64()[a.off:], a.ld) }
	case plan.KGetrf:
		kname, dur = name("dgetrf", "sgetrf"), kernelmodel.GetrfTime(gpu, dt, n)
		payload = func() error { return blas.Getrf(n, a.buf.F64()[a.off:], a.ld) }
	case plan.KTrsm:
		kname, dur = name("dtrsm", "strsm"), kernelmodel.TrsmTime(gpu, dt, o.Side, m, n)
		payload = func() error {
			return blas.Trsm(o.Side, o.Uplo, o.TransA, o.Diag, m, n, alpha, a.buf.F64()[a.off:], a.ld, b.buf.F64()[b.off:], b.ld)
		}
	case plan.KSyrk:
		kname, dur = name("dsyrk", "ssyrk"), kernelmodel.SyrkTime(gpu, dt, n, k)
		payload = func() error {
			return blas.Syrk(o.TransA, n, k, alpha, a.buf.F64()[a.off:], a.ld, beta, cc.buf.F64()[cc.off:], cc.ld)
		}
	default:
		return nil, fmt.Errorf("unknown kernel kind %d", o.Kernel)
	}
	if args == nil || payload == nil {
		return s.KernelAsync(kname, dur, nil)
	}
	return s.KernelAsync(kname, dur, func() {
		if err := payload(); err != nil {
			panic(err)
		}
	})
}

// graphReplay launches the plan through the context's executor.
func graphReplay(t *testing.T, c *Context, p *plan.Plan, args []plan.Arg) []*cudart.DevBuffer {
	t.Helper()
	tp := p.TapeFor(&c.rt.Device().Testbed().GPU)
	pooled, err := c.exec.Replay(tp, c.target(tp.Streams()), args)
	if err != nil {
		t.Fatal(err)
	}
	return pooled
}

// replayFn is one of the two replay paths.
type replayFn func(t *testing.T, c *Context, p *plan.Plan, args []plan.Arg) []*cudart.DevBuffer

// operandData snapshots every bound operand's host and device storage.
func operandData(args []plan.Arg) [][]float64 {
	var out [][]float64
	for _, a := range args {
		if a.Mat != nil {
			f32 := make([]float64, len(a.Mat.HostF32))
			for i, v := range a.Mat.HostF32 {
				f32[i] = float64(v)
			}
			out = append(out, append([]float64(nil), a.Mat.HostF64...), f32)
			if a.Mat.Dev != nil {
				out = append(out, append([]float64(nil), a.Mat.Dev.F64()...))
			}
		} else {
			out = append(out, append([]float64(nil), a.Vec.HostF64...))
			if a.Vec.Dev != nil {
				out = append(out, append([]float64(nil), a.Vec.Dev.F64()...))
			}
		}
	}
	return out
}

// runScenario builds a fresh noisy context, lets setup enqueue work with
// the replay path under test, drains it and returns the full trace plus
// the operand data setup returns.
func runScenario(t *testing.T, backed bool, replay replayFn,
	setup func(c *Context, replay replayFn, tr *fullTrace) func() [][]float64) (*fullTrace, [][]float64) {
	t.Helper()
	c := oracleCtx(backed)
	tr := observe(c)
	data := setup(c, replay, tr)
	end, err := c.rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	tr.end, tr.processed = end, c.rt.Engine().Processed()
	return tr, data()
}

// compareTraces demands bit-identical traces and operand data.
func compareTraces(t *testing.T, graph, dyn *fullTrace, gData, dData [][]float64) {
	t.Helper()
	if len(graph.events) == 0 {
		t.Fatal("graph launch traced nothing")
	}
	if len(graph.events) != len(dyn.events) {
		t.Fatalf("graph traced %d intervals, dynamic %d", len(graph.events), len(dyn.events))
	}
	for i := range graph.events {
		if graph.events[i] != dyn.events[i] {
			t.Fatalf("interval %d diverged:\n  graph   %+v\n  dynamic %+v", i, graph.events[i], dyn.events[i])
		}
	}
	if !reflect.DeepEqual(graph.marks, dyn.marks) {
		t.Fatalf("callback times diverged: graph %v, dynamic %v", graph.marks, dyn.marks)
	}
	if graph.end != dyn.end || graph.processed != dyn.processed {
		t.Fatalf("graph ended at %v after %d events, dynamic at %v after %d",
			graph.end, graph.processed, dyn.end, dyn.processed)
	}
	if len(gData) != len(dData) {
		t.Fatalf("operand count diverged: %d vs %d", len(gData), len(dData))
	}
	for i := range gData {
		for j := range gData[i] {
			if math.Float64bits(gData[i][j]) != math.Float64bits(dData[i][j]) {
				t.Fatalf("operand %d diverged at %d: %v vs %v", i, j, gData[i][j], dData[i][j])
			}
		}
	}
}

// checkGraphMatchesDynamic runs setup with both replay paths, timing-only
// and backed, and compares the traces.
func checkGraphMatchesDynamic(t *testing.T, setup func(c *Context, replay replayFn, tr *fullTrace) func() [][]float64) {
	t.Helper()
	for _, backed := range []bool{false, true} {
		t.Run(fmt.Sprintf("backed=%v", backed), func(t *testing.T) {
			g, gData := runScenario(t, backed, graphReplay, setup)
			d, dData := runScenario(t, backed, dynamicReplay, setup)
			compareTraces(t, g, d, gData, dData)
		})
	}
}

// planSetup replays one case's plan: built with the same seeded operands
// on both paths, bound only on backed contexts.
func planSetup(t *testing.T, tc replayCase) func(c *Context, replay replayFn, tr *fullTrace) func() [][]float64 {
	return func(c *Context, replay replayFn, tr *fullTrace) func() [][]float64 {
		p, args := tc.build(replayOperands{t: t, c: c, backed: c.backed, rng: rand.New(rand.NewSource(3))})
		bind := args
		if !c.backed {
			bind = nil
		}
		replay(t, c, p, bind)
		return func() [][]float64 { return operandData(bind) }
	}
}

// TestGraphLaunchMatchesDynamicReplay is the full-trace oracle over every
// builder: gemm (all transpose combinations, dispatch overhead, no-reuse),
// gemv, axpy, cholesky, lu and trsm, with host- and device-resident
// operands, timing-only and backed.
func TestGraphLaunchMatchesDynamicReplay(t *testing.T) {
	for _, tc := range replayCases(t) {
		t.Run(tc.name, func(t *testing.T) { checkGraphMatchesDynamic(t, planSetup(t, tc)) })
	}
}

// TestGraphLaunchBoundary pins the graph's boundary against the dynamic
// path: a launch onto streams that already hold work and pending waits,
// follow-on work behind the launch's stream tails and tail waits (Record,
// OnDrained, dynamic ops on the same streams), and two plans enqueued
// before one Sync.
func TestGraphLaunchBoundary(t *testing.T) {
	cases := replayCases(t)
	byName := func(name string) replayCase {
		for _, tc := range cases {
			if tc.name == name {
				return tc
			}
		}
		t.Fatalf("no case %q", name)
		return replayCase{}
	}
	mark := func(c *Context, tr *fullTrace) func() {
		return func() { tr.marks = append(tr.marks, c.rt.Now()) }
	}
	// Every builder with tail waits or multi-stream tails exercises the
	// boundary; cholesky leaves compute-stream tail waits.
	for _, name := range []string{"gemm-hhh", "gemm-f32-trans-dispatch", "gemv", "cholesky", "lu", "trsm"} {
		tc := byName(name)
		inner := planSetup(t, tc)
		t.Run(name+"/prior-work", func(t *testing.T) {
			checkGraphMatchesDynamic(t, func(c *Context, replay replayFn, tr *fullTrace) func() [][]float64 {
				// Outstanding work on every stream, and a pending h2d wait
				// on the compute stream's kernel.
				buf, err := c.rt.Malloc(kernelmodel.F64, 4096, false)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.h2d.MemcpyH2DAsync(buf, 0, nil, nil, 4096); err != nil {
					t.Fatal(err)
				}
				k, err := c.comp.KernelAsync("prior", 3e-5, nil)
				if err != nil {
					t.Fatal(err)
				}
				c.h2d.WaitEvent(k)
				c.d2h.WaitEvent(c.h2d.Record())
				c.comp.WaitEvent(c.h2d.Record())
				return inner(c, replay, tr)
			})
		})
		t.Run(name+"/follow-on", func(t *testing.T) {
			checkGraphMatchesDynamic(t, func(c *Context, replay replayFn, tr *fullTrace) func() [][]float64 {
				data := inner(c, replay, tr)
				buf, err := c.rt.Malloc(kernelmodel.F64, 1024, false)
				if err != nil {
					t.Fatal(err)
				}
				// Another stream behind each launch tail, competing for the
				// engines the launch's own successors of that tail use.
				for _, ev := range []*cudart.Event{c.comp.Record(), c.h2d.Record(), c.d2h.Record()} {
					s := c.rt.NewStream()
					s.WaitEvent(ev)
					if _, err := s.MemcpyD2HAsync(nil, nil, buf, 0, 512); err != nil {
						t.Fatal(err)
					}
					if _, err := s.KernelAsync("tail", 2e-6, nil); err != nil {
						t.Fatal(err)
					}
					s.Callback(mark(c, tr))
				}
				c.OnDrained(mark(c, tr))
				// Dynamic ops on the launch's own streams consume its tails
				// and tail waits.
				if _, err := c.h2d.MemcpyH2DAsync(buf, 0, nil, nil, 1024); err != nil {
					t.Fatal(err)
				}
				c.h2d.Callback(mark(c, tr))
				if _, err := c.comp.KernelAsync("after", 1e-5, nil); err != nil {
					t.Fatal(err)
				}
				c.comp.Callback(mark(c, tr))
				if _, err := c.d2h.MemcpyD2HAsync(nil, nil, buf, 0, 1024); err != nil {
					t.Fatal(err)
				}
				c.d2h.Callback(mark(c, tr))
				return data
			})
		})
	}
	t.Run("two-plans-one-sync", func(t *testing.T) {
		checkGraphMatchesDynamic(t, func(c *Context, replay replayFn, tr *fullTrace) func() [][]float64 {
			first := planSetup(t, byName("gemm-hhh"))(c, replay, tr)
			c.OnDrained(mark(c, tr))
			second := planSetup(t, byName("gemm-dhd-beta0"))(c, replay, tr)
			c.OnDrained(mark(c, tr))
			return func() [][]float64 { return append(first(), second()...) }
		})
	})
}

// TestGemmEnqueueWithTwiceBeforeSync enqueues two plans on one context
// through the public enqueue path before a single Sync and requires the
// same trace as the dynamic reference, with each pending run keeping its
// own staging buffers.
func TestGemmEnqueueWithTwiceBeforeSync(t *testing.T) {
	const m, n, k, T = 96, 64, 80, 32
	host := func(r, cc int) *Matrix {
		return &Matrix{Rows: r, Cols: cc, Loc: model.OnHost, HostLd: r}
	}
	opts := GemmOpts{Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1, Beta: 1, T: T,
		A: host(m, k), B: host(k, n), C: host(m, n)}
	run := func(graph bool) *fullTrace {
		c := oracleCtx(false)
		tr := observe(c)
		p, err := c.PlanGemm(opts)
		if err != nil {
			t.Fatal(err)
		}
		var pooled [2][]*cudart.DevBuffer
		var pend [2]*PendingGemm
		for i := range pend {
			if graph {
				if pend[i], err = c.GemmEnqueueWith(p, opts); err != nil {
					t.Fatal(err)
				}
				pooled[i] = append([]*cudart.DevBuffer(nil), pend[i].pooled...)
			} else {
				pooled[i] = dynamicReplay(t, c, p, nil)
			}
		}
		end, err := c.rt.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if graph {
			for i := range pend {
				if !reflect.DeepEqual(pend[i].pooled, pooled[i]) {
					t.Fatalf("pending run %d lost its staging buffers to the later enqueue", i)
				}
			}
			for i := range pooled[0] {
				for j := range pooled[1] {
					if pooled[0][i] == pooled[1][j] {
						t.Fatal("two in-flight replays share a staging buffer")
					}
				}
			}
			for _, pd := range pend {
				pd.Finish(end)
			}
		}
		tr.end, tr.processed = end, c.rt.Engine().Processed()
		return tr
	}
	compareTraces(t, run(true), run(false), nil, nil)
}
