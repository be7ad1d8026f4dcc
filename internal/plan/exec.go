package plan

import (
	"fmt"

	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/operand"
)

// Allocator is the staging-buffer pool a plan replays against (implemented
// by sched.Context).
type Allocator interface {
	Acquire(dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error)
	Release(b *cudart.DevBuffer)
}

// Target is the execution surface a plan replays onto: the streams and the
// staging allocator of one scheduler context. Streams holds one stream per
// stream slot in slot order — h2d, d2h and compute, then any further slots
// the replayed tapes use (see Tape.Streams).
type Target struct {
	Streams []*cudart.Stream
	Alloc   Allocator
}

// Arg binds one plan operand at replay time: exactly one of Mat/Vec is set,
// per the plan routine's argument list.
type Arg struct {
	Mat *operand.Matrix
	Vec *operand.Vector
}

// Executor replays plan tapes onto a target. Each replay runs in a launch
// state that owns the graph launch's counters and bindings, the slot
// bindings and the acquired-buffer list, so replay allocates nothing once
// warm. A launch state is reused once its graph has completed; a replay
// issued while an earlier one is still in flight (two plans enqueued
// before one Sync) takes a second state.
type Executor struct {
	launches []*launch
}

// launch is the scratch of one replay.
type launch struct {
	x      cudart.GraphExec
	slots  []*cudart.DevBuffer
	pooled []*cudart.DevBuffer
}

// idle returns a launch state with no replay in flight.
func (e *Executor) idle() *launch {
	for _, l := range e.launches {
		if l.x.Idle() {
			return l
		}
	}
	l := &launch{}
	e.launches = append(e.launches, l)
	return l
}

// Replay launches a compiled tape onto tgt: it acquires the plan's staging
// slots in plan order, then launches the tape's dependency graph after the
// work already on the target's streams. The launch issues the transfers
// and kernels direct scheduling would have issued, in the same order, so
// the simulation's event order is preserved. Every decision that does not
// depend on the operands (stream, byte volume, kernel name and duration,
// dependency counts) was taken when the tape was compiled.
//
// args binds the plan operands in argument order. With bindings, each
// transfer carries its host window and each kernel its payload, so backed
// buffers receive real data and arithmetic. Timing-only callers pass nil
// and launch bare transfers and kernels. The caller validates the bound
// operands against the plan (sched does so before every replay).
//
// Replay returns the staging buffers acquired from the allocator; the
// caller releases them after the engine drains. On error nothing has been
// enqueued and every acquired buffer has already been released.
//
//cocolint:hotpath
func (e *Executor) Replay(t *Tape, tgt Target, args []Arg) ([]*cudart.DevBuffer, error) {
	p := t.p
	if args != nil && len(args) != p.NumArgs() {
		//lint:ignore hotpath error path: a malformed binding is rejected before anything is enqueued
		return nil, fmt.Errorf("plan: %s plan wants %d operands, got %d", p.Routine, p.NumArgs(), len(args))
	}
	if len(tgt.Streams) < t.Streams() {
		//lint:ignore hotpath error path: a target short of streams is rejected before anything is enqueued
		return nil, fmt.Errorf("plan: %s tape needs %d streams, target has %d", p.Routine, t.Streams(), len(tgt.Streams))
	}
	//lint:ignore hotpath grows the launch-state list only when a replay starts while every earlier one is still in flight
	l := e.idle()
	if cap(l.slots) < len(p.Slots) {
		//lint:ignore hotpath grow-once scratch: reallocated only when a replay needs more staging slots than any before it
		l.slots = make([]*cudart.DevBuffer, len(p.Slots))
	}
	l.slots = l.slots[:len(p.Slots)]
	l.pooled = l.pooled[:0]
	for _, slot := range t.allocs {
		s := p.Slots[slot]
		//lint:ignore hotpath Alloc is an interface by design; the sched.Pool implementation's Acquire is proved free at its own hot root
		buf, err := tgt.Alloc.Acquire(s.Dtype, s.Elems)
		if err != nil {
			for _, b := range l.pooled {
				//lint:ignore hotpath acquire-failure unwind runs at most once per failed replay
				tgt.Alloc.Release(b)
			}
			l.pooled = l.pooled[:0]
			return nil, err
		}
		l.slots[slot] = buf
		//lint:ignore hotpath pooled reuses its backing array across replays; it grows only to the widest plan's slot count
		l.pooled = append(l.pooled, buf)
	}
	if args != nil {
		//lint:ignore hotpath backed replays only: binding copies each op's window or payload into the launch state's per-node scratch
		l.bind(t, args)
	}
	l.x.Launch(t.graph, tgt.Streams, args != nil)
	return l.pooled, nil
}

// bind resolves every transfer's host window and every kernel's payload
// against the operands and the acquired slots, node by node.
func (l *launch) bind(t *Tape, args []Arg) {
	p := t.p
	l.x.Bind(t.graph)
	node := int32(0)
	for i := range p.Ops {
		o := &p.Ops[i]
		switch o.Kind {
		case OpAlloc:
			continue
		case OpFetch, OpWriteback:
			w := window(o, args)
			l.x.BindWindow(node, l.slots[o.Slot], &w)
		case OpKernel:
			if o.Kernel != KDispatch {
				pl := p.payload(o, args, l.slots)
				l.x.BindPayload(node, &pl)
			}
		}
		node++
	}
}

// window binds a transfer op's host side: the op's M x N element window of
// its bound operand (N == 0: M elements of a vector), staged at the slot's
// origin with leading dimension M.
func window(o *Op, args []Arg) cudart.Window {
	a := args[o.A.Arg]
	if o.N == 0 {
		w := cudart.Window{Rows: int(o.M), Cols: 1}
		if a.Vec.HostF64 != nil {
			w.F64 = a.Vec.HostF64[o.A.Row:]
		}
		return w
	}
	h64, h32 := a.Mat.HostSlices(int(o.A.Row), int(o.A.Col))
	return cudart.Window{F64: h64, F32: h32, HostLd: a.Mat.HostLd,
		Rows: int(o.M), Cols: int(o.N), DevLd: int(o.M)}
}

// payloadKinds maps each payload-carrying kernel kind to its cudart body.
var payloadKinds = [...]cudart.PayloadKind{
	KGemm:  cudart.PayloadGemm,
	KGemv:  cudart.PayloadGemv,
	KAxpy:  cudart.PayloadAxpy,
	KPotrf: cudart.PayloadPotrf,
	KGetrf: cudart.PayloadGetrf,
	KTrsm:  cudart.PayloadTrsm,
	KSyrk:  cudart.PayloadSyrk,
}

// payload binds a kernel op's arithmetic: the launch shape and flags, the
// resolved scalars and the three operand references.
func (p *Plan) payload(o *Op, args []Arg, slots []*cudart.DevBuffer) cudart.Payload {
	return cudart.Payload{
		Kind:   payloadKinds[o.Kernel],
		TransA: o.TransA, TransB: o.TransB, Side: o.Side, Uplo: o.Uplo, Diag: o.Diag,
		M: int(o.M), N: int(o.N), K: int(o.K),
		Alpha: p.opAlpha(o), Beta: p.opBeta(o),
		A: resolve(o.A, args, slots), B: resolve(o.B, args, slots), C: resolve(o.C, args, slots),
	}
}

// resolve maps a kernel operand reference to its device window: a staging
// slot's buffer, a window of a bound device-resident operand, or nothing
// for a reference the kernel kind does not use.
func resolve(r Ref, args []Arg, slots []*cudart.DevBuffer) cudart.Operand {
	switch {
	case r.Slot >= 0:
		return cudart.Operand{Buf: slots[r.Slot], Ld: int(r.Row)} // a slot ref's Row carries the ld
	case r.Arg < 0:
		return cudart.Operand{}
	}
	a := args[r.Arg]
	if a.Mat != nil {
		return cudart.Operand{Buf: a.Mat.Dev, Off: int64(r.Row) + int64(r.Col)*int64(a.Mat.DevLd), Ld: a.Mat.DevLd}
	}
	return cudart.Operand{Buf: a.Vec.Dev, Off: int64(r.Row)}
}
