// Package cudart provides the CUDA-runtime-like programming model that all
// GPU BLAS libraries in this repository are written against: in-order
// streams, events, asynchronous host-device copies and asynchronous kernel
// launches, on top of the discrete-event device simulator.
//
// Semantics mirror the CUDA runtime closely:
//
//   - operations submitted to one stream execute in submission order;
//   - operations in different streams may overlap, subject to engine
//     availability (one h2d copy engine, one d2h copy engine, one compute
//     engine);
//   - Stream.WaitEvent orders all subsequently submitted work in the
//     stream after the event;
//   - Stream.Record returns an event that completes when all work
//     submitted to the stream so far has completed.
//
// Every operation optionally carries a functional payload that performs the
// real arithmetic/data movement on backed buffers, so schedulers are
// verified numerically and timed by the same code path.
//
// Work reaches the hardware along one production path: the static
// dependency graph (graph.go). Every plan replay — the CoCoPeLia and
// no-reuse schedules, the factorization task graphs and the cuBLASXt,
// BLASX and unified-memory comparators — launches a whole graph known in
// advance, with index-addressed completion and real events only at its
// boundary.
//
// A small dynamic op path remains, one op at a time with a completion
// event and waiter edges, for the uses that are not a plan:
//
//   - Record, WaitEvent and Callback, which sched.OnDrained uses to
//     timestamp a pending run inside a larger batch;
//   - the checked 1-D copies, which the public cocopelia DeviceMatrix
//     helpers use to move whole operands;
//   - the bridges that connect a graph's first nodes to earlier work on
//     their streams;
//   - SetMatrixAsync, GetMatrixAsync and KernelAsync(name, dur, func()),
//     the checked entry points the test references drive to pin the graph
//     launch against op-by-op enqueueing.
//
// The dynamic path is allocation-free in steady state: per-launch op
// objects and their completion events come from runtime-owned free lists,
// transfer operands live in fields of the op (dispatched by kind) instead
// of per-call closures, and the dependency-edge slices reuse their
// backing arrays. Ops recycle as soon as their hardware work completes;
// events recycle at the next successful Sync, which is also when every
// stream's tail is reset to the shared pre-completed event.
package cudart

import (
	"errors"
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
	"cocopelia/internal/sim"
)

// Event is a completion marker, as in CUDA. The zero value is not useful;
// events come from Stream.Record or are pre-completed via DoneEvent.
//
// Lifetime: an *Event returned by this package is valid until the
// Runtime.Sync call that drains it returns successfully; at that point the
// runtime recycles the object for later launches and holders must drop
// their references (every scheduler in this repository consumes its events
// within one enqueue+Sync cycle).
// Nearly every event has exactly one waiter — the next op chained on a
// stream tail — so the first waiter lives in an inline slot and only
// fan-outs of two or more touch the overflow slice. Steady-state replays
// therefore allocate no waiter arrays at all.
type Event struct {
	done    bool
	w0      *op   // first registered waiter (fires before the overflow)
	waiters []*op // second and later waiters, in registration order
}

// doneEvent is the shared pre-completed event. It is immutable in effect:
// fire is a no-op on a done event and addWaiter never appends to one.
var doneEvent = &Event{done: true}

// DoneEvent returns an already-completed event.
func DoneEvent() *Event { return doneEvent }

// Done reports whether the event has completed.
func (e *Event) Done() bool { return e.done }

// opKind selects what an op does when its dependencies are satisfied. The
// operands live in fields of the op itself, so enqueueing an operation
// allocates no per-call closures.
type opKind uint8

const (
	opCallback opKind = iota // host function, zero duration
	opKernel                 // compute-engine kernel
	opTransfer               // link transfer in direction dir
	opBridge                 // a graph's wait on prior stream work; runs payload when satisfied
)

// op is one scheduled stream operation. Ops are recycled through the
// runtime free list the moment their hardware work completes.
//
// The fields depSatisfied, launch and finish read (pointers first, then
// the packed small scalars) sit together at the front, and the host
// window of a backed transfer lives behind the host pointer in a
// separately pooled object, so timing-only ops stay small.
type op struct {
	rt       *Runtime
	complete *Event

	// depFn and hwDone are method values created once per op object; they
	// survive free-list recycling, so the steady-state launch path pays no
	// closure allocations.
	depFn  func()
	hwDone func()

	payload func()
	host    *window // functional transfer operands; nil when timing-only

	// deps is the outstanding-dependency count (valid between enqueue and
	// launch).
	deps int32
	kind opKind
	dir  machine.LinkDir

	// kernel and callback operands.
	duration float64
	name     string

	bytes int64 // transfer volume
}

// Window is the host side of a functional transfer: a Rows x Cols
// column-major window of the host slice matching the device buffer's
// dtype (leading dimension HostLd), copied to or from the device buffer
// at element offset DevOff with leading dimension DevLd. A 1-D copy of n
// elements is the single column Rows = n, Cols = 1.
type Window struct {
	F64        []float64
	F32        []float32
	HostLd     int
	Rows, Cols int
	DevOff     int64
	DevLd      int
}

// window is a Window bound to its device buffer for the lifetime of one
// in-flight transfer; it recycles through the runtime's window free list.
type window struct {
	Window
	buf *DevBuffer
}

// copy moves the window's data in direction dir.
func (w *window) copy(dir machine.LinkDir) {
	b, rows := w.buf, int64(w.Rows)
	for j := 0; j < w.Cols; j++ {
		d := w.DevOff + int64(j)*int64(w.DevLd)
		h := int64(j) * int64(w.HostLd)
		switch {
		case b.f64 != nil && w.F64 != nil:
			if dir == machine.H2D {
				copy(b.f64[d:d+rows], w.F64[h:h+rows])
			} else {
				copy(w.F64[h:h+rows], b.f64[d:d+rows])
			}
		case b.f32 != nil && w.F32 != nil:
			if dir == machine.H2D {
				copy(b.f32[d:d+rows], w.F32[h:h+rows])
			} else {
				copy(w.F32[h:h+rows], b.f32[d:d+rows])
			}
		}
	}
}

//cocolint:hotpath
func (o *op) depSatisfied() {
	o.deps--
	if o.deps == 0 {
		o.rt.launch(o)
	}
}

// hwComplete is the hardware-completion callback: it performs the data
// movement of a backed transfer (kernel payloads run inside the device
// model) and then finishes the op. Timing-only transfers carry no window:
// there is nothing to move, and paper-scale sweeps issue millions of them.
//
//cocolint:hotpath
func (o *op) hwComplete() {
	if o.host != nil {
		o.host.copy(o.dir)
	}
	o.finish()
}

// finish retires a completed op: it is recycled before its completion event
// fires, so waiters launched by the event can reuse the object immediately.
//
//cocolint:hotpath
func (o *op) finish() {
	rt := o.rt
	rt.outstanding--
	ev := o.complete
	rt.recycleOp(o)
	fire(ev)
}

// Runtime owns the streams and buffers of one simulated process.
type Runtime struct {
	dev         *device.Device
	outstanding int
	streamList  []*Stream
	payloadPool *parallel.Pool
	// payloadPolicy selects the CPU kernel numerics for backed payloads:
	// the default blas.KernelExact keeps the bitwise oracle contract;
	// blas.KernelFMA opts into the fused (ULP-bounded) micro-kernels.
	payloadPolicy blas.KernelPolicy
	// payloadErr is the first error a kernel payload returned since the
	// last Sync; the simulation drains regardless and Sync reports it.
	payloadErr error
	// epoch counts Resets, so a graph launch state abandoned by a Reset
	// knows it is free again.
	epoch uint64

	// opFree recycles op objects the moment their hardware work completes;
	// evFree recycles completion events at Sync, with evLive tracking the
	// events handed out since the last Sync. Fresh events are carved from
	// evSlab blocks rather than allocated individually: a replay keeps up to
	// ~10^5 events live at once, and contiguous slabs make the fire/wait
	// paths' event touches neighbours instead of scattered heap objects.
	// Fresh ops are carved from contiguous opSlab blocks, like events: the
	// dependency-firing path chases op pointers hundreds of thousands of
	// times per replay, and slab-packed neighbours keep it in cache where
	// individually allocated ops scatter across the heap.
	opFree  []*op
	opSlab  []op
	evFree  []*Event
	evLive  []*Event
	evSlab  []Event
	winFree []*window
}

// New creates a runtime bound to a device.
func New(dev *device.Device) *Runtime { return &Runtime{dev: dev} }

// Reset rebinds the runtime to a fresh device while keeping its warmed
// object pools: the op, event and window free lists. Streams of the
// previous run are dropped. Operations still pending (after a failed Sync)
// are abandoned exactly as discarding the runtime would abandon them, with
// their live events recycled; graph launch states they ran in become
// Idle. After Reset the runtime behaves identically to New(dev); only
// allocation behaviour differs.
func (rt *Runtime) Reset(dev *device.Device) {
	rt.dev = dev
	rt.epoch++
	rt.payloadErr = nil
	rt.outstanding = 0
	rt.payloadPool = nil
	rt.payloadPolicy = blas.KernelExact
	for i := range rt.streamList {
		rt.streamList[i] = nil
	}
	rt.streamList = rt.streamList[:0]
	for i, e := range rt.evLive {
		rt.evLive[i] = nil
		e.done = false
		e.w0 = nil
		e.waiters = e.waiters[:0]
		rt.evFree = append(rt.evFree, e)
	}
	rt.evLive = rt.evLive[:0]
}

// SetPayloadPool installs a worker pool for the functional GEMM payloads
// of backed buffers. The blocked engine is bitwise deterministic across
// worker counts, so the pool changes only wall-clock time, never results.
// A nil pool (the default) runs payloads inline.
func (rt *Runtime) SetPayloadPool(p *parallel.Pool) { rt.payloadPool = p }

// SetPayloadPolicy selects the CPU kernel numerics for backed payloads.
// The default blas.KernelExact reproduces the GemmNaive oracle bit for
// bit; blas.KernelFMA routes to the fused micro-kernels (FMA/NEON),
// which are ULP-bounded against the oracle and still bitwise
// reproducible across worker counts. Reset restores the default.
func (rt *Runtime) SetPayloadPolicy(p blas.KernelPolicy) { rt.payloadPolicy = p }

// PayloadPolicy reports the kernel policy applied to backed payloads.
func (rt *Runtime) PayloadPolicy() blas.KernelPolicy { return rt.payloadPolicy }

// Device returns the underlying simulated device.
func (rt *Runtime) Device() *device.Device { return rt.dev }

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.dev.Engine() }

// Now returns the current virtual time.
func (rt *Runtime) Now() sim.Time { return rt.dev.Engine().Now() }

// allocOp returns a recycled (or fresh) op of the given kind with a live
// completion event attached.
func (rt *Runtime) allocOp(kind opKind) *op {
	o := rt.newOp(kind)
	o.complete = rt.allocEvent()
	return o
}

// allocBridge returns an op that runs release once every event it is
// registered on (the caller counts them in deps) has fired. It has no
// completion event and is not an outstanding operation.
func (rt *Runtime) allocBridge(release func()) *op {
	o := rt.newOp(opBridge)
	o.payload = release
	return o
}

// newOp pops a recycled op, or carves a fresh one from the slab.
func (rt *Runtime) newOp(kind opKind) *op {
	var o *op
	if n := len(rt.opFree); n > 0 {
		o = rt.opFree[n-1]
		rt.opFree[n-1] = nil
		rt.opFree = rt.opFree[:n-1]
	} else {
		if len(rt.opSlab) == 0 {
			rt.opSlab = make([]op, 512)
		}
		o = &rt.opSlab[0]
		rt.opSlab = rt.opSlab[1:]
		o.rt = rt
		o.depFn = o.depSatisfied
		o.hwDone = o.hwComplete
	}
	o.kind = kind
	o.deps = 0
	return o
}

// recycleOp clears an op's references and parks it on the free list,
// returning any transfer window to its pool.
func (rt *Runtime) recycleOp(o *op) {
	o.complete = nil
	o.name = ""
	o.payload = nil
	if w := o.host; w != nil {
		o.host = nil
		*w = window{}
		rt.winFree = append(rt.winFree, w)
	}
	rt.opFree = append(rt.opFree, o)
}

// allocWindow returns a recycled (or fresh) transfer window holding a copy
// of w bound to buf.
func (rt *Runtime) allocWindow(buf *DevBuffer, w *Window) *window {
	var b *window
	if n := len(rt.winFree); n > 0 {
		b = rt.winFree[n-1]
		rt.winFree[n-1] = nil
		rt.winFree = rt.winFree[:n-1]
	} else {
		b = &window{}
	}
	b.Window, b.buf = *w, buf
	return b
}

// needsWindow reports whether a transfer between buf and the given host
// slices can move data (backed buffer and a host side present) and so needs
// its operands carried on the op.
func needsWindow(buf *DevBuffer, hostF64 []float64, hostF32 []float32) bool {
	return buf.Backed() && (hostF64 != nil || hostF32 != nil)
}

// allocEvent returns a recycled (or fresh) incomplete event, tracked for
// recycling at the next successful Sync.
func (rt *Runtime) allocEvent() *Event {
	var e *Event
	if n := len(rt.evFree); n > 0 {
		e = rt.evFree[n-1]
		rt.evFree[n-1] = nil
		rt.evFree = rt.evFree[:n-1]
		e.done = false
	} else {
		if len(rt.evSlab) == 0 {
			rt.evSlab = make([]Event, 1024)
		}
		e = &rt.evSlab[0]
		rt.evSlab = rt.evSlab[1:]
	}
	rt.evLive = append(rt.evLive, e)
	return e
}

// launch hands a ready op to the hardware.
//
//cocolint:hotpath
func (rt *Runtime) launch(o *op) {
	switch o.kind {
	case opCallback:
		if o.payload != nil {
			//lint:ignore hotpath callback payloads are caller-provided host functions; schedulers keep them off the steady-state replay path
			o.payload()
		}
		o.finish()
	case opKernel:
		rt.dev.LaunchKernel(o.name, o.duration, o.payload, o.hwDone)
	case opBridge:
		release := o.payload
		rt.recycleOp(o)
		//lint:ignore hotpath a bridge's payload is always a GraphExec.extFn, a closure created once per launch state that calls the hot root (*GraphExec).release
		release()
	default:
		rt.dev.Link().Submit(o.dir, o.bytes, o.hwDone)
	}
}

// fire completes an event and releases its waiters, decrementing their
// dependency counters and launching every op that reaches zero. The waiters
// backing array is kept for reuse: no appends can race the drain because a
// done event never accepts new waiters.
//
//cocolint:hotpath
func fire(e *Event) {
	if e.done {
		return
	}
	e.done = true
	if w := e.w0; w != nil {
		e.w0 = nil
		w.depSatisfied()
	}
	if len(e.waiters) > 0 {
		ws := e.waiters
		e.waiters = e.waiters[:0]
		for _, o := range ws {
			o.depSatisfied()
		}
	}
}

// addWaiter registers o to run after e (no-op when e already completed;
// the caller must have counted the dependency before calling). The first
// waiter takes the inline slot; registration order is preserved because
// fire drains the slot before the overflow slice.
func addWaiter(e *Event, o *op) bool {
	if e == nil || e.done {
		return false
	}
	if e.w0 == nil && len(e.waiters) == 0 {
		e.w0 = o
		return true
	}
	e.waiters = append(e.waiters, o)
	return true
}

// Stream is an in-order command queue.
type Stream struct {
	rt    *Runtime
	tail  *Event
	waits []*Event
}

// NewStream creates a stream. The runtime tracks it so Sync can reset its
// tail when the completed batch's events are recycled.
func (rt *Runtime) NewStream() *Stream {
	s := &Stream{rt: rt, tail: doneEvent}
	rt.streamList = append(rt.streamList, s)
	return s
}

// WaitEvent orders all work submitted to s after this call behind ev.
//
//cocolint:hotpath
func (s *Stream) WaitEvent(ev *Event) {
	if ev == nil || ev.done {
		return
	}
	//lint:ignore hotpath waits drains back to length zero at every enqueue; the backing array grows only to the widest wait fan-in
	s.waits = append(s.waits, ev)
}

// Record returns an event that completes when all work submitted to s so
// far has completed.
func (s *Stream) Record() *Event { return s.tail }

// enqueue appends a filled op to the stream, wiring its dependency edges.
//
//cocolint:hotpath
func (s *Stream) enqueue(o *op) *Event {
	rt := s.rt
	rt.outstanding++
	deps := int32(0)
	if addWaiter(s.tail, o) {
		deps++
	}
	for _, w := range s.waits {
		if addWaiter(w, o) {
			deps++
		}
	}
	s.waits = s.waits[:0]
	s.tail = o.complete
	if deps == 0 {
		o.deps = 1
		// Defer through the engine so submission order among independent
		// ops is preserved and callers never re-enter the hardware model.
		rt.Engine().After(0, o.depFn)
	} else {
		o.deps = deps
	}
	return o.complete
}

// transferOp enqueues a pre-validated transfer: bytes move in direction
// dir through device buffer buf. A non-nil w whose host side and buffer
// both carry data makes the transfer functional — the window's elements
// are copied when the link finishes; otherwise the transfer is
// timing-only. The checked Memcpy/SetMatrix/GetMatrix entry points all
// enqueue through here.
//
//cocolint:hotpath
func (s *Stream) transferOp(dir machine.LinkDir, bytes int64, buf *DevBuffer, w *Window) *Event {
	o := s.rt.allocOp(opTransfer)
	o.dir, o.bytes = dir, bytes
	if w != nil && needsWindow(buf, w.F64, w.F32) {
		//lint:ignore hotpath window free-list pop; timing-only replays pass a nil window and never reach it
		o.host = s.rt.allocWindow(buf, w)
	}
	return s.enqueue(o)
}

// Callback enqueues a zero-duration host function that runs in stream
// order (like cudaLaunchHostFunc).
func (s *Stream) Callback(fn func()) *Event {
	o := s.rt.allocOp(opCallback)
	o.payload = fn
	return s.enqueue(o)
}

// Sync runs the simulation until every submitted operation has completed.
// It returns the virtual time, or an error if operations remain blocked on
// dependencies that can never fire (a scheduling bug: a dependency cycle or
// an event that is never recorded).
//
// Once the simulation has drained, the completed batch's events are
// recycled and every stream's tail resets to the pre-completed event, so
// event handles returned before this call must not be used afterwards. If
// a kernel payload failed during the batch (for example a factorization
// meeting a singular tile), the batch still ran to completion and Sync
// returns the first payload error, wrapping the blas error; the runtime
// stays usable.
//
//cocolint:hotpath
func (rt *Runtime) Sync() (sim.Time, error) {
	end := rt.Engine().Run()
	if rt.outstanding != 0 {
		//lint:ignore hotpath deadlock is a scheduling bug; this error path runs at most once per failed batch
		return end, fmt.Errorf("cudart: deadlock: %d operations still blocked after drain", rt.outstanding)
	}
	for i, e := range rt.evLive {
		rt.evLive[i] = nil
		e.w0 = nil
		e.waiters = e.waiters[:0]
		//lint:ignore hotpath evFree reuses its backing array; it grows only until the deepest batch of the run
		rt.evFree = append(rt.evFree, e)
	}
	rt.evLive = rt.evLive[:0]
	for _, s := range rt.streamList {
		s.tail = doneEvent
		s.waits = s.waits[:0]
	}
	if err := rt.payloadErr; err != nil {
		rt.payloadErr = nil
		return end, err
	}
	return end, nil
}

// DevBuffer is typed device memory. Backed buffers carry real element
// storage for functional runs; unbacked buffers are accounting-only and are
// used for paper-scale timing runs.
type DevBuffer struct {
	mem   *device.Buffer
	dt    kernelmodel.Dtype
	elems int64
	f64   []float64
	f32   []float32
}

// Dtype returns the buffer element type.
func (b *DevBuffer) Dtype() kernelmodel.Dtype { return b.dt }

// Elems returns the buffer capacity in elements.
func (b *DevBuffer) Elems() int64 { return b.elems }

// Backed reports whether the buffer carries real storage.
func (b *DevBuffer) Backed() bool { return b.f64 != nil || b.f32 != nil }

// F64 exposes the backing storage of a backed float64 buffer (nil
// otherwise). Intended for test verification, not scheduler logic.
func (b *DevBuffer) F64() []float64 { return b.f64 }

// F32 exposes the backing storage of a backed float32 buffer.
func (b *DevBuffer) F32() []float32 { return b.f32 }

// Malloc allocates a device buffer of elems elements. When backed is true
// the buffer carries real storage (functional mode).
func (rt *Runtime) Malloc(dt kernelmodel.Dtype, elems int64, backed bool) (*DevBuffer, error) {
	if elems < 0 {
		return nil, fmt.Errorf("cudart: negative element count %d", elems)
	}
	mem, err := rt.dev.Malloc(elems * dt.Size())
	if err != nil {
		return nil, err
	}
	b := &DevBuffer{mem: mem, dt: dt, elems: elems}
	if backed {
		if dt == kernelmodel.F64 {
			b.f64 = make([]float64, elems)
		} else {
			b.f32 = make([]float32, elems)
		}
	}
	return b, nil
}

// Free releases a device buffer.
func (rt *Runtime) Free(b *DevBuffer) error {
	if b == nil {
		return errors.New("cudart: free of nil buffer")
	}
	b.f64, b.f32 = nil, nil
	return rt.dev.Free(b.mem)
}

// memcpyBounds validates an elems-sized access at off into b.
func memcpyBounds(b *DevBuffer, off, elems int64, what string) error {
	if b == nil {
		return fmt.Errorf("cudart: %s: nil device buffer", what)
	}
	if off < 0 || elems < 0 || off+elems > b.elems {
		return fmt.Errorf("cudart: %s: range [%d, %d) outside buffer of %d elems",
			what, off, off+elems, b.elems)
	}
	return nil
}

// ErrHostWindow reports a 1-D copy whose host side cannot carry the data:
// the host slice matching the backed buffer's dtype is missing or shorter
// than the copy.
var ErrHostWindow = errors.New("cudart: host slice does not cover the copy")

// checkHostWindow validates the host side of a 1-D copy of elems elements
// to or from buf. Only a copy that builds a host window (see needsWindow)
// moves data, so only such a copy is checked.
func checkHostWindow(buf *DevBuffer, hostF64 []float64, hostF32 []float32, elems int64, what string) error {
	if !needsWindow(buf, hostF64, hostF32) {
		return nil
	}
	have, ok := int64(len(hostF32)), hostF32 != nil
	if buf.f64 != nil {
		have, ok = int64(len(hostF64)), hostF64 != nil
	}
	if !ok {
		return fmt.Errorf("%w: %s: no %s host slice for a %s buffer", ErrHostWindow, what, buf.dt, buf.dt)
	}
	if have < elems {
		return fmt.Errorf("%w: %s: host slice of %d elems, copy needs %d", ErrHostWindow, what, have, elems)
	}
	return nil
}

// MemcpyH2DAsync enqueues a 1-D host-to-device copy of elems elements from
// hostF64/hostF32 (per the buffer dtype) into dst at dstOff.
func (s *Stream) MemcpyH2DAsync(dst *DevBuffer, dstOff int64, hostF64 []float64, hostF32 []float32, elems int64) (*Event, error) {
	if err := memcpyBounds(dst, dstOff, elems, "h2d"); err != nil {
		return nil, err
	}
	if err := checkHostWindow(dst, hostF64, hostF32, elems, "h2d"); err != nil {
		return nil, err
	}
	w := Window{F64: hostF64, F32: hostF32, Rows: int(elems), Cols: 1, DevOff: dstOff}
	return s.transferOp(machine.H2D, elems*dst.dt.Size(), dst, &w), nil
}

// MemcpyD2HAsync enqueues a 1-D device-to-host copy.
func (s *Stream) MemcpyD2HAsync(hostF64 []float64, hostF32 []float32, src *DevBuffer, srcOff, elems int64) (*Event, error) {
	if err := memcpyBounds(src, srcOff, elems, "d2h"); err != nil {
		return nil, err
	}
	if err := checkHostWindow(src, hostF64, hostF32, elems, "d2h"); err != nil {
		return nil, err
	}
	w := Window{F64: hostF64, F32: hostF32, Rows: int(elems), Cols: 1, DevOff: srcOff}
	return s.transferOp(machine.D2H, elems*src.dt.Size(), src, &w), nil
}

// check2D validates one side of a 2-D (sub)matrix copy, in the manner of
// cublasSetMatrixAsync / cublasGetMatrixAsync: rows x cols elements,
// column-major with a leading dimension.
func check2D(rows, cols int, ld int, what, side string) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("cudart: %s %s: negative dims %dx%d", what, side, rows, cols)
	}
	if ld < max(1, rows) {
		return fmt.Errorf("cudart: %s %s: ld %d < rows %d", what, side, ld, rows)
	}
	return nil
}

// matrix2D validates a 2-D copy of the window w through device buffer buf
// and enqueues it in direction dir.
func (s *Stream) matrix2D(dir machine.LinkDir, buf *DevBuffer, w *Window, what string) (*Event, error) {
	if err := check2D(w.Rows, w.Cols, w.HostLd, what, "host"); err != nil {
		return nil, err
	}
	if err := check2D(w.Rows, w.Cols, w.DevLd, what, "device"); err != nil {
		return nil, err
	}
	need := int64(0)
	if w.Cols > 0 {
		need = int64(w.Cols-1)*int64(w.DevLd) + int64(w.Rows)
	}
	if err := memcpyBounds(buf, w.DevOff, need, what); err != nil {
		return nil, err
	}
	return s.transferOp(dir, int64(w.Rows)*int64(w.Cols)*buf.dt.Size(), buf, w), nil
}

// SetMatrixAsync enqueues a 2-D h2d copy of a rows x cols column-major
// submatrix from host (leading dimension ldh) into dst at element offset
// dstOff with leading dimension ldd. Exactly one of hostF64/hostF32 must
// match the buffer dtype in functional runs.
func (s *Stream) SetMatrixAsync(rows, cols int, hostF64 []float64, hostF32 []float32, ldh int, dst *DevBuffer, dstOff int64, ldd int) (*Event, error) {
	w := Window{F64: hostF64, F32: hostF32, HostLd: ldh, Rows: rows, Cols: cols, DevOff: dstOff, DevLd: ldd}
	return s.matrix2D(machine.H2D, dst, &w, "setmatrix")
}

// GetMatrixAsync enqueues a 2-D d2h copy (the cublasGetMatrixAsync analog).
func (s *Stream) GetMatrixAsync(rows, cols int, src *DevBuffer, srcOff int64, lds int, hostF64 []float64, hostF32 []float32, ldh int) (*Event, error) {
	w := Window{F64: hostF64, F32: hostF32, HostLd: ldh, Rows: rows, Cols: cols, DevOff: srcOff, DevLd: lds}
	return s.matrix2D(machine.D2H, src, &w, "getmatrix")
}

// KernelAsync enqueues a kernel with an explicit duration and an optional
// functional payload that runs when the kernel completes.
func (s *Stream) KernelAsync(name string, duration float64, payload func()) (*Event, error) {
	if duration < 0 {
		return nil, fmt.Errorf("cudart: negative kernel duration %g", duration)
	}
	o := s.rt.allocOp(opKernel)
	o.name, o.duration, o.payload = name, duration, payload
	return s.enqueue(o), nil
}
