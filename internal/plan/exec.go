package plan

import (
	"fmt"

	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/operand"
)

// Allocator is the staging-buffer pool a plan replays against (implemented
// by sched.Context).
type Allocator interface {
	Acquire(dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error)
	Release(b *cudart.DevBuffer)
}

// Target is the execution surface a plan replays onto: the three operation
// streams and the staging allocator of one scheduler context.
type Target struct {
	H2D, D2H, Comp *cudart.Stream
	Alloc          Allocator
}

// Arg binds one plan operand at replay time: exactly one of Mat/Vec is set,
// per the plan routine's argument list.
type Arg struct {
	Mat *operand.Matrix
	Vec *operand.Vector
}

// Executor replays plan tapes onto a target. It owns reusable scratch (the
// completion-event table, the slot bindings and the acquired-buffer list),
// so replay allocates nothing once warm; like the scheduler context whose
// scratch it replaces, one executor supports one in-flight replay at a
// time.
type Executor struct {
	events []*cudart.Event
	slots  []*cudart.DevBuffer
	pooled []*cudart.DevBuffer
}

// Replay replays a compiled tape onto tgt. It issues the plan's stream
// calls in op order — each op's dependency waits first, in their recorded
// order, then the transfer or kernel — which is exactly the call sequence
// the direct scheduler produced, so the simulation's event order is
// preserved. Every decision that does not depend on the operands (stream,
// byte volume, kernel name and duration, event slots) was taken when the
// tape was compiled.
//
// args binds the plan operands in argument order. With bindings, each
// transfer carries its host window and each kernel its payload, so backed
// buffers receive real data and arithmetic. Timing-only callers pass nil
// and replay bare transfers and kernels. The caller validates the bound
// operands against the plan (sched does so before every replay).
//
// Replay returns the staging buffers acquired from the allocator; the
// caller releases them after the engine drains. On error every acquired
// buffer has already been released.
//
//cocolint:hotpath
func (e *Executor) Replay(t *Tape, tgt Target, args []Arg) ([]*cudart.DevBuffer, error) {
	p := t.p
	if args != nil && len(args) != p.NumArgs() {
		//lint:ignore hotpath error path: a malformed binding is rejected before anything is enqueued
		return nil, fmt.Errorf("plan: %s plan wants %d operands, got %d", p.Routine, p.NumArgs(), len(args))
	}
	// Event slots need no clearing between replays: a dependency edge always
	// references an op emitted earlier in the tape, so every slot is written
	// before it is read (stale pointers from a previous replay are never
	// observed). The replay property tests pin this.
	if cap(e.events) < p.EvSlots {
		//lint:ignore hotpath grow-once scratch: reallocated only when a replay needs more event slots than any before it
		e.events = make([]*cudart.Event, p.EvSlots)
	}
	e.events = e.events[:p.EvSlots]
	if cap(e.slots) < len(p.Slots) {
		//lint:ignore hotpath grow-once scratch: reallocated only when a replay needs more staging slots than any before it
		e.slots = make([]*cudart.DevBuffer, len(p.Slots))
	}
	e.slots = e.slots[:len(p.Slots)]
	e.pooled = e.pooled[:0]

	// Hoist the hot-loop state into locals: the loop body runs hundreds of
	// thousands of times per replay and the compiler cannot otherwise prove
	// these loads loop-invariant across the stream calls.
	events, deps, comp := e.events, t.deps, tgt.Comp
	link := [2]*cudart.Stream{machine.H2D: tgt.H2D, machine.D2H: tgt.D2H}
	for i := range t.ops {
		o := &t.ops[i]
		switch o.code {
		case tAlloc:
			s := p.Slots[o.slot]
			//lint:ignore hotpath Alloc is an interface by design; the sched.Pool implementation's Acquire is proved free at its own hot root
			buf, err := tgt.Alloc.Acquire(s.Dtype, s.Elems)
			if err != nil {
				for _, b := range e.pooled {
					//lint:ignore hotpath acquire-failure unwind runs at most once per failed replay
					tgt.Alloc.Release(b)
				}
				e.pooled = e.pooled[:0]
				return nil, err
			}
			e.slots[o.slot] = buf
			//lint:ignore hotpath pooled reuses its backing array across replays; it grows only to the widest plan's slot count
			e.pooled = append(e.pooled, buf)
		case tTransfer:
			s := link[o.dir]
			for _, d := range deps[o.depOff : o.depOff+o.depN] {
				s.WaitEvent(events[d])
			}
			var w *cudart.Window
			if args != nil {
				win := window(&p.Ops[i], args)
				w = &win
			}
			ev := s.TransferOp(o.dir, o.bytes, e.slots[o.slot], w)
			if o.ev >= 0 {
				events[o.ev] = ev
			}
		case tKernel:
			for _, d := range deps[o.depOff : o.depOff+o.depN] {
				comp.WaitEvent(events[d])
			}
			var pl *cudart.Payload
			if args != nil && o.name != nDispatch {
				bound := p.payload(&p.Ops[i], args, e.slots)
				pl = &bound
			}
			ev := comp.KernelOp(tapeNames[o.name], o.dur, pl)
			if o.ev >= 0 {
				events[o.ev] = ev
			}
		}
	}

	// Leave the streams in the exact state direct scheduling left them:
	// waits the schedule registered but never consumed stay pending.
	for _, s := range t.tailH2D {
		tgt.H2D.WaitEvent(e.events[s])
	}
	for _, s := range t.tailCmp {
		tgt.Comp.WaitEvent(e.events[s])
	}
	return e.pooled, nil
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
