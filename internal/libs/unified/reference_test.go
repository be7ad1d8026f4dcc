package unified

// This file keeps the unified-memory comparator's original imperative
// loop — full-length managed mirrors and three private streams driven op
// by op through the dynamic cudart entry points — as the oracle of the
// plan it became: both must produce the bit-identical kernel and transfer
// traces, end time, processed-event count, Result and output bits on a
// noisy device.

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

// axpyAsync enqueues y += alpha*x through the dynamic op path, named and
// timed as the plan's axpy kernel node, with the blas body as its payload
// on a backed output.
func axpyAsync(s *cudart.Stream, gpu *machine.GPUSpec, n int, alpha float64,
	x *cudart.DevBuffer, offX int64, y *cudart.DevBuffer, offY int64) (*cudart.Event, error) {
	var payload func()
	if y.Backed() {
		payload = func() {
			if err := blas.Axpy(n, alpha, x.F64()[offX:], 1, y.F64()[offY:], 1); err != nil {
				panic(err)
			}
		}
	}
	return s.KernelAsync("daxpy", kernelmodel.AxpyTime(gpu, kernelmodel.F64, n), payload)
}

// refDaxpy is the original loop, with the prefetch granularity a
// parameter.
func refDaxpy(rt *cudart.Runtime, n int, alpha float64, x, y *operand.Vector, backed bool, PrefetchElems int) (operand.Result, error) {
	if n <= 0 {
		return operand.Result{}, fmt.Errorf("unified: non-positive length %d", n)
	}
	if err := x.Validate("x", backed); err != nil {
		return operand.Result{}, err
	}
	if err := y.Validate("y", backed); err != nil {
		return operand.Result{}, err
	}
	if x.N != n || y.N != n {
		return operand.Result{}, errors.New("unified: vector lengths inconsistent with n")
	}

	res := operand.Result{T: PrefetchElems}
	start := rt.Now()
	prefetch := rt.NewStream()
	compute := rt.NewStream()
	writeback := rt.NewStream()

	// Managed mirrors of host-resident operands.
	var xBuf, yBuf *cudart.DevBuffer
	var err error
	if x.Loc == model.OnDevice {
		xBuf = x.Dev
	} else if xBuf, err = rt.Malloc(kernelmodel.F64, int64(n), backed); err != nil {
		return operand.Result{}, err
	}
	if y.Loc == model.OnDevice {
		yBuf = y.Dev
	} else if yBuf, err = rt.Malloc(kernelmodel.F64, int64(n), backed); err != nil {
		return operand.Result{}, err
	}

	chunks := (n + PrefetchElems - 1) / PrefetchElems
	for ci := 0; ci < chunks; ci++ {
		off := ci * PrefetchElems
		cn := min(PrefetchElems, n-off)

		ready := cudart.DoneEvent()
		// Prefetch the chunk's pages of every host-resident operand.
		if x.Loc == model.OnHost {
			var host []float64
			if x.HostF64 != nil {
				host = x.HostF64[off:]
			}
			if _, err := prefetch.MemcpyH2DAsync(xBuf, int64(off), host, nil, int64(cn)); err != nil {
				return operand.Result{}, err
			}
			res.BytesH2D += int64(cn) * 8
			ready = prefetch.Record()
		}
		if y.Loc == model.OnHost {
			var host []float64
			if y.HostF64 != nil {
				host = y.HostF64[off:]
			}
			if _, err := prefetch.MemcpyH2DAsync(yBuf, int64(off), host, nil, int64(cn)); err != nil {
				return operand.Result{}, err
			}
			res.BytesH2D += int64(cn) * 8
			ready = prefetch.Record()
		}
		compute.WaitEvent(ready)
		if _, err := axpyAsync(compute, &rt.Device().Testbed().GPU, cn, alpha, xBuf, int64(off), yBuf, int64(off)); err != nil {
			return operand.Result{}, err
		}
		res.Subkernels++
	}

	// On-demand migration back: the host touches y only after the whole
	// kernel sequence, so the d2h chunks all queue behind the final
	// kernel — no overlap with compute.
	if y.Loc == model.OnHost {
		writeback.WaitEvent(compute.Record())
		for ci := 0; ci < chunks; ci++ {
			off := ci * PrefetchElems
			cn := min(PrefetchElems, n-off)
			var host []float64
			if y.HostF64 != nil {
				host = y.HostF64[off:]
			}
			if _, err := writeback.MemcpyD2HAsync(host, nil, yBuf, int64(off), int64(cn)); err != nil {
				return operand.Result{}, err
			}
			res.BytesD2H += int64(cn) * 8
		}
	}

	end, err := rt.Sync()
	if err != nil {
		return operand.Result{}, err
	}
	// Managed mirrors are transient per call.
	if x.Loc == model.OnHost {
		if err := rt.Free(xBuf); err != nil {
			return operand.Result{}, err
		}
	}
	if y.Loc == model.OnHost {
		if err := rt.Free(yBuf); err != nil {
			return operand.Result{}, err
		}
	}
	res.Seconds = end - start
	return res, nil
}

// traced is everything one run leaves observable.
type traced struct {
	log       []string // kernel (name, start, end) and transfer (dir, start, end, bytes) intervals
	end       sim.Time
	processed uint64
	res       operand.Result
	out       []uint64 // output bits
}

// runCase runs a daxpy of n elements with x and y at the given locations
// on a fresh noisy Testbed II device, through Daxpy (ref false) or the
// reference loop, and records its trace.
func runCase(t *testing.T, n int, locX, locY model.Loc, backed, ref bool) traced {
	t.Helper()
	var tr traced
	dev := device.New(sim.New(), machine.TestbedII(), 7, false)
	dev.SetKernelObserver(func(name string, start, end sim.Time) {
		tr.log = append(tr.log, fmt.Sprintf("kernel %s %x %x", name, start, end))
	})
	dev.Link().SetObserver(func(dir machine.LinkDir, start, end sim.Time, bytes int64) {
		tr.log = append(tr.log, fmt.Sprintf("link %v %x %x %d", dir, start, end, bytes))
	})
	rt := cudart.New(dev)
	rng := rand.New(rand.NewSource(int64(n)))
	vec := func(loc model.Loc) *operand.Vector {
		var data []float64
		if backed {
			data = make([]float64, n)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
		}
		if loc == model.OnHost {
			return &operand.Vector{N: n, Loc: loc, HostF64: data}
		}
		buf, err := rt.Malloc(kernelmodel.F64, int64(n), backed)
		if err != nil {
			t.Fatal(err)
		}
		copy(buf.F64(), data)
		return &operand.Vector{N: n, Loc: loc, Dev: buf}
	}
	x, y := vec(locX), vec(locY)
	var err error
	if ref {
		tr.res, err = refDaxpy(rt, n, 0.75, x, y, backed, PrefetchElems)
	} else {
		tr.res, err = Daxpy(sched.NewContext(rt, backed), n, 0.75, x, y)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr.end, tr.processed = rt.Now(), dev.Engine().Processed()
	out := y.HostF64
	if y.Loc == model.OnDevice {
		out = y.Dev.F64()
	}
	for _, v := range out {
		tr.out = append(tr.out, math.Float64bits(v))
	}
	return tr
}

// TestPlanMatchesReferenceLoop pins the unified-memory plan to the
// original loop for every operand location combination, with a ragged
// last prefetch chunk, timing-only and backed.
func TestPlanMatchesReferenceLoop(t *testing.T) {
	n := 5*PrefetchElems/2 + 3
	for _, combo := range model.LocCombos(2) {
		for _, backed := range []bool{false, true} {
			t.Run(fmt.Sprintf("locs=%v/backed=%v", combo, backed), func(t *testing.T) {
				got, want := runCase(t, n, combo[0], combo[1], backed, false), runCase(t, n, combo[0], combo[1], backed, true)
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

// TestFailedDaxpyKeepsNoDeviceMemory runs a daxpy whose two managed
// mirrors together exceed device memory by 16 bytes: the y mirror's last
// chunk is out of memory. The call must fail with device.ErrOutOfMemory,
// and once the context pool is released the device must hold exactly what
// it held before the call.
func TestFailedDaxpyKeepsNoDeviceMemory(t *testing.T) {
	ctx := sched.NewContext(cudart.New(device.New(sim.New(), machine.TestbedI(), 1, true)), false)
	dev := ctx.Runtime().Device()
	n := int(dev.Testbed().GPU.MemBytes/16) + 1
	before := dev.MemUsed()
	_, err := Daxpy(ctx, n, 1, operand.HostVector(n, nil), operand.HostVector(n, nil))
	if !errors.Is(err, device.ErrOutOfMemory) {
		t.Fatalf("daxpy with mirrors beyond device memory: err = %v, want out of memory", err)
	}
	if err := ctx.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if used := dev.MemUsed(); used != before {
		t.Fatalf("failed call left %d bytes allocated outside the context pool", used-before)
	}
}
