package plan

import (
	"sync/atomic"

	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
)

// Tape is a plan lowered for replay on one GPU model: a flat instruction
// array with every operand-independent decision already taken — stream,
// byte volume, kernel name and duration, dependency event slots — stored
// in contiguous slices, so replay is a tight loop over plain data with one
// switch on the precomputed code. It is the only lowering of a plan:
// Executor.Replay runs it timing-only, or with operand bindings that
// attach host windows and kernel payloads from the plan's op list.
type Tape struct {
	gpu     *machine.GPUSpec // kernel durations are GPU-model-specific
	p       *Plan            // source of the operand references bindings resolve
	ops     []tapeOp
	deps    []int32 // dependency edges as completion-event slots
	tailH2D []int32 // tail waits as completion-event slots
	tailCmp []int32
}

// tapeOp codes: which stream the op runs on and what it enqueues.
const (
	tAlloc uint8 = iota
	tTransfer
	tKernel
)

// tapeNames is the kernel-name table tapeOp.name indexes into; keeping the
// string out of the op makes the instruction array pointer-free, so tapes
// are never scanned by the garbage collector and their arenas zero faster.
var tapeNames = [...]string{"dispatch", "dgemm", "sgemm", "gemv", "daxpy",
	"dpotrf", "spotrf", "dgetrf", "sgetrf", "dtrsm", "strsm", "dsyrk", "ssyrk"}

const (
	nDispatch uint8 = iota
	nDgemm
	nSgemm
	nGemv
	nDaxpy
	nDpotrf
	nSpotrf
	nDgetrf
	nSgetrf
	nDtrsm
	nStrsm
	nDsyrk
	nSsyrk
)

// dtypeName picks the float64 or float32 member of a d/s kernel-name pair.
func dtypeName(dt kernelmodel.Dtype, d, s uint8) uint8 {
	if dt == kernelmodel.F32 {
		return s
	}
	return d
}

// tapeOp is one precompiled instruction.
type tapeOp struct {
	bytes        int64   // transfer volume
	dur          float64 // kernel duration
	slot         int32   // staging-slot index of alloc/transfer ops
	ev           int32   // completion-event slot, -1 when nothing waits
	depOff, depN int32   // window into Tape.deps
	code         uint8
	name         uint8           // kernel-name index into tapeNames
	dir          machine.LinkDir // transfer direction, which picks the stream
}

// TapeFor returns the plan's replay tape for the given GPU model,
// compiling and caching it on first use. The cache is a single atomic
// slot: every runner replays a plan on one testbed, and a racing
// recompile produces an identical tape (compilation is pure), so last
// write wins safely.
func (p *Plan) TapeFor(gpu *machine.GPUSpec) *Tape {
	if t := p.tape.Load(); t != nil && t.gpu == gpu {
		return t
	}
	t := compileTape(p, gpu)
	p.tape.Store(t)
	return t
}

// tapeMemo is a tiny linear-scan memo for kernel-duration evaluations
// during one tape compilation: a tiled plan launches thousands of kernels
// with only a handful of distinct shapes (full tiles plus edge tiles), and
// the model's exp/log/cbrt evaluation dominates otherwise.
type tapeMemo struct {
	keys []int64
	durs []float64
}

func (m *tapeMemo) get(key int64, eval func() float64) float64 {
	for i, k := range m.keys {
		if k == key {
			return m.durs[i]
		}
	}
	d := eval()
	m.keys = append(m.keys, key)
	m.durs = append(m.durs, d)
	return d
}

// compileTape lowers a plan to its flat enqueue tape, evaluating each
// kernel's duration once per distinct shape.
func compileTape(p *Plan, gpu *machine.GPUSpec) *Tape {
	t := &Tape{
		gpu:     gpu,
		p:       p,
		ops:     make([]tapeOp, len(p.Ops)),
		deps:    make([]int32, len(p.deps)),
		tailH2D: evSlotsOf(p, p.TailH2D),
		tailCmp: evSlotsOf(p, p.TailComp),
	}
	for i, d := range p.deps {
		t.deps[i] = p.Ops[d].Ev
	}
	// One memo per kernel kind: factorization plans mix GEMM, TRSM, SYRK and
	// the diagonal kernels in a single op list, and their shape keys (two or
	// three packed dims) would collide across kinds in a shared table.
	var memos [KSyrk + 1]tapeMemo
	for i := range p.Ops {
		o := &p.Ops[i]
		to := &t.ops[i]
		to.ev, to.depOff, to.depN, to.slot = o.Ev, o.depOff, o.depN, o.Slot
		switch o.Kind {
		case OpAlloc:
			to.code = tAlloc
		case OpFetch:
			to.code, to.dir = tTransfer, machine.H2D
			to.bytes = tapeBytes(p, o)
		case OpWriteback:
			to.code, to.dir = tTransfer, machine.D2H
			to.bytes = tapeBytes(p, o)
		case OpKernel:
			to.code = tKernel
			switch o.Kernel {
			case KDispatch:
				to.name, to.dur = nDispatch, p.DispatchS
			case KGemm:
				to.name = dtypeName(p.Dtype, nDgemm, nSgemm)
				to.dur = memos[KGemm].get(int64(o.M)<<42|int64(o.N)<<21|int64(o.K), func() float64 {
					return kernelmodel.GemmTime(gpu, p.Dtype, int(o.M), int(o.N), int(o.K))
				})
			case KGemv:
				to.name = nGemv
				to.dur = memos[KGemv].get(int64(o.M)<<21|int64(o.N), func() float64 {
					return kernelmodel.GemvTime(gpu, kernelmodel.F64, int(o.M), int(o.N))
				})
			case KAxpy:
				to.name = nDaxpy
				to.dur = memos[KAxpy].get(int64(o.N), func() float64 {
					return kernelmodel.AxpyTime(gpu, kernelmodel.F64, int(o.N))
				})
			case KPotrf:
				to.name = dtypeName(p.Dtype, nDpotrf, nSpotrf)
				to.dur = memos[KPotrf].get(int64(o.N), func() float64 {
					return kernelmodel.PotrfTime(gpu, p.Dtype, int(o.N))
				})
			case KGetrf:
				to.name = dtypeName(p.Dtype, nDgetrf, nSgetrf)
				to.dur = memos[KGetrf].get(int64(o.N), func() float64 {
					return kernelmodel.GetrfTime(gpu, p.Dtype, int(o.N))
				})
			case KTrsm:
				to.name = dtypeName(p.Dtype, nDtrsm, nStrsm)
				// Side changes the flop/byte shape, so it is part of the key.
				to.dur = memos[KTrsm].get(int64(o.Side)<<42|int64(o.M)<<21|int64(o.N), func() float64 {
					return kernelmodel.TrsmTime(gpu, p.Dtype, o.Side, int(o.M), int(o.N))
				})
			case KSyrk:
				to.name = dtypeName(p.Dtype, nDsyrk, nSsyrk)
				to.dur = memos[KSyrk].get(int64(o.N)<<21|int64(o.K), func() float64 {
					return kernelmodel.SyrkTime(gpu, p.Dtype, int(o.N), int(o.K))
				})
			}
		}
	}
	return t
}

// tapeBytes is the byte volume the checked transfer entry points would
// compute: window elements times the staging slot's element size.
func tapeBytes(p *Plan, o *Op) int64 {
	elems := int64(o.M)
	if o.N != 0 {
		elems *= int64(o.N)
	}
	return elems * p.Slots[o.Slot].Dtype.Size()
}

// evSlotsOf maps op ids to their completion-event slots.
func evSlotsOf(p *Plan, ids []int32) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = p.Ops[id].Ev
	}
	return out
}

// kernelSeconds sums the tape's kernel durations in op order.
func (t *Tape) kernelSeconds() float64 {
	sum := 0.0
	for i := range t.ops {
		if t.ops[i].code == tKernel {
			sum += t.ops[i].dur
		}
	}
	return sum
}

// tapeSlot is the Plan field backing TapeFor's cache. The alias lives here
// (not in plan.go) so the atomic dependency stays with the tape code.
type tapeSlot = atomic.Pointer[Tape]
