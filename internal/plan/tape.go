package plan

import (
	"fmt"
	"sync/atomic"

	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
)

// Tape is a plan lowered for replay on one GPU model: the staging slots in
// acquisition order, plus a static dependency graph with every
// operand-independent decision already taken — stream, byte volume, kernel
// name and duration, dependency counts and successor lists. It is the only
// lowering of a plan: Executor.Replay launches its graph timing-only, or
// with operand bindings that attach host windows and kernel payloads from
// the plan's op list.
type Tape struct {
	gpu    *machine.GPUSpec // kernel durations are GPU-model-specific
	p      *Plan            // source of the operand references bindings resolve
	allocs []int32          // staging slots, in the plan's acquisition order
	graph  *cudart.Graph    // one node per transfer and kernel, in op order
}

// tapeNames is the kernel-name table graph kernel nodes index into;
// keeping the string out of the node makes the node array pointer-free, so
// tapes are never scanned by the garbage collector.
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

// compileTape lowers a plan to its tape, evaluating each kernel's duration
// once per distinct shape. Graph nodes are the plan's transfer and kernel
// ops in op order, on their ops' stream slots (at least the three default
// ones); each node's dependencies are its op's recorded dependencies, in
// order, and its stream predecessor is the previous op on the same stream
// — exactly the waits the stream calls of direct scheduling register.
func compileTape(p *Plan, gpu *machine.GPUSpec) *Tape {
	allocs, streams := 0, int(sComp)+1
	for i := range p.Ops {
		if o := &p.Ops[i]; o.Kind == OpAlloc {
			allocs++
		} else if int(o.Stream) >= streams {
			streams = int(o.Stream) + 1
		}
	}
	t := &Tape{gpu: gpu, p: p, allocs: make([]int32, 0, allocs),
		graph: cudart.NewGraph(tapeNames[:], streams, len(p.Ops)-allocs, len(p.deps))}
	node := make([]int32, len(p.Ops)) // op id -> graph node, -1 for allocs
	var deps []int32
	// One memo per kernel kind: factorization plans mix GEMM, TRSM, SYRK and
	// the diagonal kernels in a single op list, and their shape keys (two or
	// three packed dims) would collide across kinds in a shared table.
	var memos [KSyrk + 1]tapeMemo
	for i := range p.Ops {
		o := &p.Ops[i]
		if o.Kind == OpAlloc {
			node[i] = -1
			t.allocs = append(t.allocs, o.Slot)
			continue
		}
		deps = deps[:0]
		for _, d := range p.Deps(i) {
			if node[d] < 0 {
				panic(fmt.Sprintf("plan: %s op %d depends on allocation op %d", p.Routine, i, d))
			}
			deps = append(deps, node[d])
		}
		switch o.Kind {
		case OpFetch:
			node[i] = t.graph.AddTransfer(int(o.Stream), machine.H2D, tapeBytes(p, o), deps)
		case OpWriteback:
			node[i] = t.graph.AddTransfer(int(o.Stream), machine.D2H, tapeBytes(p, o), deps)
		case OpKernel:
			name, dur := kernelOf(p, o, gpu, &memos)
			node[i] = t.graph.AddKernel(int(o.Stream), name, dur, deps)
		}
	}
	for _, id := range p.TailH2D {
		t.graph.TailWait(int(sH2D), node[id])
	}
	for _, id := range p.TailComp {
		t.graph.TailWait(sComp, node[id])
	}
	t.graph.Seal()
	return t
}

// kernelOf returns a kernel op's name index and modeled duration on gpu.
func kernelOf(p *Plan, o *Op, gpu *machine.GPUSpec, memos *[KSyrk + 1]tapeMemo) (uint8, float64) {
	switch o.Kernel {
	case KDispatch:
		return nDispatch, p.DispatchS
	case KGemm:
		return dtypeName(p.Dtype, nDgemm, nSgemm), memos[KGemm].get(int64(o.M)<<42|int64(o.N)<<21|int64(o.K), func() float64 {
			return kernelmodel.GemmTime(gpu, p.Dtype, int(o.M), int(o.N), int(o.K))
		})
	case KGemv:
		return nGemv, memos[KGemv].get(int64(o.M)<<21|int64(o.N), func() float64 {
			return kernelmodel.GemvTime(gpu, kernelmodel.F64, int(o.M), int(o.N))
		})
	case KAxpy:
		return nDaxpy, memos[KAxpy].get(int64(o.N), func() float64 {
			return kernelmodel.AxpyTime(gpu, kernelmodel.F64, int(o.N))
		})
	case KPotrf:
		return dtypeName(p.Dtype, nDpotrf, nSpotrf), memos[KPotrf].get(int64(o.N), func() float64 {
			return kernelmodel.PotrfTime(gpu, p.Dtype, int(o.N))
		})
	case KGetrf:
		return dtypeName(p.Dtype, nDgetrf, nSgetrf), memos[KGetrf].get(int64(o.N), func() float64 {
			return kernelmodel.GetrfTime(gpu, p.Dtype, int(o.N))
		})
	case KTrsm:
		// Side changes the flop/byte shape, so it is part of the key.
		return dtypeName(p.Dtype, nDtrsm, nStrsm), memos[KTrsm].get(int64(o.Side)<<42|int64(o.M)<<21|int64(o.N), func() float64 {
			return kernelmodel.TrsmTime(gpu, p.Dtype, o.Side, int(o.M), int(o.N))
		})
	}
	return dtypeName(p.Dtype, nDsyrk, nSsyrk), memos[KSyrk].get(int64(o.N)<<21|int64(o.K), func() float64 {
		return kernelmodel.SyrkTime(gpu, p.Dtype, int(o.N), int(o.K))
	})
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

// Streams returns the number of stream slots the tape's graph spreads over;
// a replay target must supply a stream for each.
func (t *Tape) Streams() int { return t.graph.Streams() }

// kernelSeconds sums the tape's kernel durations in op order.
func (t *Tape) kernelSeconds() float64 { return t.graph.KernelSeconds() }

// tapeSlot is the Plan field backing TapeFor's cache. The alias lives here
// (not in plan.go) so the atomic dependency stays with the tape code.
type tapeSlot = atomic.Pointer[Tape]
