package cudart

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
	"cocopelia/internal/sim"
)

func newRT() *Runtime {
	eng := sim.New()
	return New(device.New(eng, machine.TestbedI(), 1, true))
}

// launchKernel enqueues one kernel on s as a one-node backed graph launch
// that runs p when the kernel completes: the path every kernel of a backed
// plan replay takes.
func launchKernel(s *Stream, name string, dur float64, p Payload) {
	g := NewGraph([]string{name}, 1, 1, 0)
	g.AddKernel(0, 0, dur, nil)
	g.Seal()
	x := &GraphExec{}
	x.Bind(g)
	x.BindPayload(0, &p)
	x.Launch(g, []*Stream{s}, true)
}

// gemmAsync enqueues C = alpha*A*B on s for packed column-major operands,
// timed by the kernel model.
func gemmAsync(s *Stream, m, n, k int, alpha float64, a, b, c *DevBuffer) {
	dur := kernelmodel.GemmTime(&s.rt.Device().Testbed().GPU, c.Dtype(), m, n, k)
	launchKernel(s, "dgemm", dur, Payload{Kind: PayloadGemm, TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: m, N: n, K: k, Alpha: alpha, A: Operand{a, 0, m}, B: Operand{b, 0, k}, C: Operand{c, 0, m}})
}

func TestStreamOrdering(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Callback(func() { order = append(order, i) })
	}
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("stream order violated: %v", order)
		}
	}
}

func TestCrossStreamEventOrdering(t *testing.T) {
	rt := newRT()
	s1, s2 := rt.NewStream(), rt.NewStream()
	var order []string
	s1.Callback(func() { order = append(order, "a") })
	ev := s1.Record()
	s2.WaitEvent(ev)
	s2.Callback(func() { order = append(order, "b") })
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("cross-stream order: %v", order)
	}
}

func TestWaitOnDoneEventIsNoop(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	s.WaitEvent(DoneEvent())
	s.WaitEvent(nil)
	ran := false
	s.Callback(func() { ran = true })
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("callback after done-event wait did not run")
	}
}

func TestMemcpyRoundTrip(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	n := int64(1000)
	buf, err := rt.Malloc(kernelmodel.F64, n, true)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, n)
	if _, err := s.MemcpyH2DAsync(buf, 0, src, nil, n); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MemcpyD2HAsync(dst, nil, buf, 0, n); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestMemcpyBounds(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	buf, _ := rt.Malloc(kernelmodel.F64, 10, false)
	if _, err := s.MemcpyH2DAsync(buf, 5, nil, nil, 6); err == nil {
		t.Error("out-of-range h2d should error")
	}
	if _, err := s.MemcpyH2DAsync(nil, 0, nil, nil, 1); err == nil {
		t.Error("nil buffer should error")
	}
	if _, err := s.MemcpyD2HAsync(nil, nil, buf, -1, 2); err == nil {
		t.Error("negative offset should error")
	}
}

func TestMemcpyTiming(t *testing.T) {
	rt := newRT()
	tb := rt.Device().Testbed()
	s := rt.NewStream()
	buf, _ := rt.Malloc(kernelmodel.F64, 1<<20, false)
	start := rt.Now()
	if _, err := s.MemcpyH2DAsync(buf, 0, nil, nil, 1<<20); err != nil {
		t.Fatal(err)
	}
	end, err := rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	want := tb.H2D.LatencyS + float64(8<<20)/tb.H2D.BandwidthBps
	if math.Abs((end-start)-want) > 1e-9 {
		t.Errorf("h2d took %g, want %g", end-start, want)
	}
}

func TestSetGetMatrixSubmatrix(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	// Host matrix 4x4 col-major; copy its 2x3 submatrix starting at (1,1).
	host := make([]float64, 16)
	for i := range host {
		host[i] = float64(i)
	}
	dev, _ := rt.Malloc(kernelmodel.F64, 6, true)
	sub := host[1+4:] // offset (1,1), ld 4
	if _, err := s.SetMatrixAsync(2, 3, sub, nil, 4, dev, 0, 2); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 6)
	if _, err := s.GetMatrixAsync(2, 3, dev, 0, 2, out, nil, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 9, 10, 13, 14}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("submatrix copy: got %v, want %v", out, want)
		}
	}
}

func TestSetMatrixValidation(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	dev, _ := rt.Malloc(kernelmodel.F64, 6, false)
	if _, err := s.SetMatrixAsync(4, 2, nil, nil, 2, dev, 0, 4); err == nil {
		t.Error("host ld < rows should error")
	}
	if _, err := s.SetMatrixAsync(2, 4, nil, nil, 2, dev, 0, 2); err == nil {
		t.Error("device overflow should error")
	}
	if _, err := s.SetMatrixAsync(-1, 2, nil, nil, 2, dev, 0, 2); err == nil {
		t.Error("negative rows should error")
	}
}

func TestGemmAsyncFunctional(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	m, n, k := 4, 3, 5
	rng := rand.New(rand.NewSource(9))
	hostA := make([]float64, m*k)
	hostB := make([]float64, k*n)
	hostC := make([]float64, m*n)
	for i := range hostA {
		hostA[i] = rng.NormFloat64()
	}
	for i := range hostB {
		hostB[i] = rng.NormFloat64()
	}
	dA, _ := rt.Malloc(kernelmodel.F64, int64(m*k), true)
	dB, _ := rt.Malloc(kernelmodel.F64, int64(k*n), true)
	dC, _ := rt.Malloc(kernelmodel.F64, int64(m*n), true)
	_, _ = s.MemcpyH2DAsync(dA, 0, hostA, nil, int64(m*k))
	_, _ = s.MemcpyH2DAsync(dB, 0, hostB, nil, int64(k*n))
	gemmAsync(s, m, n, k, 1, dA, dB, dC)
	_, _ = s.MemcpyD2HAsync(hostC, nil, dC, 0, int64(m*n))
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, m*n)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, hostA, m, hostB, k, 0, ref, m); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(hostC[i]-ref[i]) > 1e-12 {
			t.Fatalf("gemm async mismatch at %d: %g vs %g", i, hostC[i], ref[i])
		}
	}
}

// TestGemmAsyncPayloadPoolBitwise runs the same GEMM payload serially and
// through a worker pool installed with SetPayloadPool: the blocked engine
// guarantees bitwise identical results at any worker count.
func TestGemmAsyncPayloadPoolBitwise(t *testing.T) {
	m, n, k := 130, 70, 65
	rng := rand.New(rand.NewSource(41))
	hostA := make([]float64, m*k)
	hostB := make([]float64, k*n)
	for i := range hostA {
		hostA[i] = rng.NormFloat64()
	}
	for i := range hostB {
		hostB[i] = rng.NormFloat64()
	}
	run := func(pool *parallel.Pool) []float64 {
		rt := newRT()
		rt.SetPayloadPool(pool)
		s := rt.NewStream()
		dA, _ := rt.Malloc(kernelmodel.F64, int64(m*k), true)
		dB, _ := rt.Malloc(kernelmodel.F64, int64(k*n), true)
		dC, _ := rt.Malloc(kernelmodel.F64, int64(m*n), true)
		_, _ = s.MemcpyH2DAsync(dA, 0, hostA, nil, int64(m*k))
		_, _ = s.MemcpyH2DAsync(dB, 0, hostB, nil, int64(k*n))
		gemmAsync(s, m, n, k, 1.25, dA, dB, dC)
		out := make([]float64, m*n)
		_, _ = s.MemcpyD2HAsync(out, nil, dC, 0, int64(m*n))
		if _, err := rt.Sync(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(nil)
	for _, w := range []int{2, 8} {
		pooled := run(parallel.NewPool(w))
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(pooled[i]) {
				t.Fatalf("workers=%d: payload differs from serial at %d: %v != %v",
					w, i, pooled[i], serial[i])
			}
		}
	}
}

// TestGemmAsyncPayloadPolicy opts payloads into the fused kernels with
// SetPayloadPolicy: the result must stay within a k-scaled ULP bound of
// the exact engine, be bitwise identical across worker counts, and the
// policy must revert to exact on Reset.
func TestGemmAsyncPayloadPolicy(t *testing.T) {
	m, n, k := 130, 70, 65
	rng := rand.New(rand.NewSource(43))
	hostA := make([]float64, m*k)
	hostB := make([]float64, k*n)
	for i := range hostA {
		hostA[i] = rng.NormFloat64()
	}
	for i := range hostB {
		hostB[i] = rng.NormFloat64()
	}
	run := func(policy blas.KernelPolicy, pool *parallel.Pool) []float64 {
		rt := newRT()
		rt.SetPayloadPool(pool)
		rt.SetPayloadPolicy(policy)
		s := rt.NewStream()
		dA, _ := rt.Malloc(kernelmodel.F64, int64(m*k), true)
		dB, _ := rt.Malloc(kernelmodel.F64, int64(k*n), true)
		dC, _ := rt.Malloc(kernelmodel.F64, int64(m*n), true)
		_, _ = s.MemcpyH2DAsync(dA, 0, hostA, nil, int64(m*k))
		_, _ = s.MemcpyH2DAsync(dB, 0, hostB, nil, int64(k*n))
		gemmAsync(s, m, n, k, 1.25, dA, dB, dC)
		out := make([]float64, m*n)
		_, _ = s.MemcpyD2HAsync(out, nil, dC, 0, int64(m*n))
		if _, err := rt.Sync(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	exact := run(blas.KernelExact, nil)
	fused := run(blas.KernelFMA, nil)
	// Magnitude bound per element: 1.25 * sum_l |A[i,l]||B[l,j]|, computed
	// on the host (cancellation makes |exact| itself too small a yardstick).
	absA := make([]float64, len(hostA))
	absB := make([]float64, len(hostB))
	for i, v := range hostA {
		absA[i] = math.Abs(v)
	}
	for i, v := range hostB {
		absB[i] = math.Abs(v)
	}
	mag := make([]float64, m*n)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1.25, absA, m, absB, k, 0, mag, m); err != nil {
		t.Fatal(err)
	}
	bound := 4 * float64(k+2) * 0x1p-52
	for i := range exact {
		if diff := math.Abs(fused[i] - exact[i]); diff > bound*mag[i] {
			t.Fatalf("fused payload element %d outside ULP bound: %v vs %v", i, fused[i], exact[i])
		}
	}
	for _, w := range []int{2, 8} {
		pooled := run(blas.KernelFMA, parallel.NewPool(w))
		for i := range fused {
			if math.Float64bits(fused[i]) != math.Float64bits(pooled[i]) {
				t.Fatalf("workers=%d: fused payload differs from serial at %d", w, i)
			}
		}
	}
	rt := newRT()
	rt.SetPayloadPolicy(blas.KernelFMA)
	if got := rt.PayloadPolicy(); got != blas.KernelFMA {
		t.Fatalf("PayloadPolicy after set: %v", got)
	}
	rt.Reset(rt.Device())
	if got := rt.PayloadPolicy(); got != blas.KernelExact {
		t.Fatalf("PayloadPolicy after Reset: %v, want exact", got)
	}
}

// TestGemmDtypeMismatch launches a backed gemm whose B operand has the
// wrong dtype: the payload runner must report it from Sync, not panic.
func TestGemmDtypeMismatch(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	d64, _ := rt.Malloc(kernelmodel.F64, 16, true)
	d32, _ := rt.Malloc(kernelmodel.F32, 16, true)
	launchKernel(s, "dgemm", 1e-6, Payload{Kind: PayloadGemm, TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: 2, N: 2, K: 2, Alpha: 1, A: Operand{d64, 0, 2}, B: Operand{d32, 0, 2}, C: Operand{d64, 0, 2}})
	if _, err := rt.Sync(); err == nil {
		t.Error("dtype mismatch should error")
	}
}

func TestAxpyAsyncFunctional(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = 1
	}
	dX, _ := rt.Malloc(kernelmodel.F64, int64(n), true)
	dY, _ := rt.Malloc(kernelmodel.F64, int64(n), true)
	_, _ = s.MemcpyH2DAsync(dX, 0, x, nil, int64(n))
	_, _ = s.MemcpyH2DAsync(dY, 0, y, nil, int64(n))
	axpy := func(n int, alpha float64) {
		launchKernel(s, "daxpy", 1e-6, Payload{Kind: PayloadAxpy, N: n, Alpha: alpha,
			A: Operand{Buf: dX}, C: Operand{Buf: dY}})
	}
	axpy(n, 2)
	out := make([]float64, n)
	_, _ = s.MemcpyD2HAsync(out, nil, dY, 0, int64(n))
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 1+2*float64(i) {
			t.Fatalf("axpy mismatch at %d: %g", i, out[i])
		}
	}
	axpy(200, 1)
	if _, err := rt.Sync(); err == nil {
		t.Error("axpy out of range should error")
	}
}

func TestGemvAsyncFunctional(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	m, n := 3, 2
	a := []float64{1, 2, 3, 4, 5, 6} // 3x2 col-major
	x := []float64{1, 1}
	dA, _ := rt.Malloc(kernelmodel.F64, 6, true)
	dX, _ := rt.Malloc(kernelmodel.F64, 2, true)
	dY, _ := rt.Malloc(kernelmodel.F64, 3, true)
	_, _ = s.MemcpyH2DAsync(dA, 0, a, nil, 6)
	_, _ = s.MemcpyH2DAsync(dX, 0, x, nil, 2)
	launchKernel(s, "gemv", 1e-6, Payload{Kind: PayloadGemv, TransA: blas.NoTrans, M: m, N: n, Alpha: 1,
		A: Operand{dA, 0, m}, B: Operand{Buf: dX}, C: Operand{Buf: dY}})
	out := make([]float64, 3)
	_, _ = s.MemcpyD2HAsync(out, nil, dY, 0, 3)
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 7, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("gemv: got %v, want %v", out, want)
		}
	}
}

func TestThreeWayOverlap(t *testing.T) {
	// The core 3-way concurrency behaviour: an h2d copy, a kernel and a
	// d2h copy on three streams overlap; makespan ~ max of the three, not
	// their sum.
	rt := newRT()
	tb := rt.Device().Testbed()
	sIn, sK, sOut := rt.NewStream(), rt.NewStream(), rt.NewStream()
	elems := int64(16 << 20)
	in, _ := rt.Malloc(kernelmodel.F64, elems, false)
	out, _ := rt.Malloc(kernelmodel.F64, elems, false)
	_, _ = sIn.MemcpyH2DAsync(in, 0, nil, nil, elems)
	gemmAsync(sK, 2048, 2048, 2048, 1, in, in, out)
	_, _ = sOut.MemcpyD2HAsync(nil, nil, out, 0, elems)
	end, err := rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	bytes := float64(elems * 8)
	tH2D := bytes / (tb.H2D.BandwidthBps / tb.H2D.BidSlowdown)
	tD2H := bytes / (tb.D2H.BandwidthBps / tb.D2H.BidSlowdown)
	tK := kernelmodel.GemmTime(&tb.GPU, kernelmodel.F64, 2048, 2048, 2048)
	serial := tH2D + tD2H + tK
	if end >= serial*0.95 {
		t.Errorf("no overlap: makespan %g vs serial %g", end, serial)
	}
}

func TestSyncDetectsDeadlock(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	never := &Event{} // recorded nowhere, never fires
	s.WaitEvent(never)
	s.Callback(func() {})
	if _, err := rt.Sync(); err == nil {
		t.Error("Sync should report blocked operations")
	}
}

func TestMallocFree(t *testing.T) {
	rt := newRT()
	b, err := rt.Malloc(kernelmodel.F32, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dtype() != kernelmodel.F32 || b.Elems() != 100 || !b.Backed() {
		t.Error("buffer metadata wrong")
	}
	if b.F32() == nil || b.F64() != nil {
		t.Error("backing storage wrong")
	}
	if rt.Device().MemUsed() != 400 {
		t.Errorf("mem used %d, want 400", rt.Device().MemUsed())
	}
	if err := rt.Free(b); err != nil {
		t.Fatal(err)
	}
	if rt.Device().MemUsed() != 0 {
		t.Error("free did not release")
	}
	if err := rt.Free(nil); err == nil {
		t.Error("nil free should error")
	}
	if _, err := rt.Malloc(kernelmodel.F64, -1, false); err == nil {
		t.Error("negative malloc should error")
	}
}

// TestLaunchSyncSteadyStateDoesNotAllocate pins the zero-allocation
// invariant of the timing-only launch path: once the op, event, kernel-task
// and transfer free lists are warm, a full enqueue+Sync cycle over all
// three engines allocates nothing (the cudart analog of the sim package's
// TestScheduleSteadyStateDoesNotAllocateEvents).
func TestLaunchSyncSteadyStateDoesNotAllocate(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	buf, err := rt.Malloc(kernelmodel.F64, 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := s.MemcpyH2DAsync(buf, 0, nil, nil, 1024); err != nil {
			t.Fatal(err)
		}
		if _, err := s.KernelAsync("k", 1e-6, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MemcpyD2HAsync(nil, nil, buf, 0, 1024); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs != 0 {
		t.Errorf("steady-state launch+sync allocates %.1f objects/op, want 0", allocs)
	}
}
