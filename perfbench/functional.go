package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"

	"cocopelia"
	"cocopelia/internal/blas"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/predictor"
)

// mixRoutines are the library entry points of the functional mix.
var mixRoutines = []string{"dgemm", "sgemm", "dgemv", "daxpy", "dpotrf", "dgetrf", "dtrsm"}

// sizeClasses spread the mix from working sets that fit in a core's cache
// to ones that spill it: each class's sizes appear reps times per routine
// in every block, so small calls dominate the count and large ones the
// time. The sizes are a fine grid rather than a few values, so the
// block's latency distribution has no wide gaps for its median to jump
// across; the small class repeats, so the predictor's selection cache
// sees repeated shapes as it would in an application.
var sizeClasses = []struct {
	sizes []int
	reps  int
}{
	{[]int{256, 272, 288, 304, 320, 336, 352, 368, 384}, 2},
	{[]int{448, 472, 496, 520, 544, 568}, 1},
	{[]int{640, 704, 768}, 1},
}

// call is one library call of the functional stream. N is the matrix
// order (daxpy runs on vectors of N*N elements); Seed seeds its data.
type call struct {
	Routine     string
	N           int
	Alpha, Beta float64
	Seed        int64
}

// mixBlock returns one block of the closed-loop call stream: every routine
// at every class size, reps times each, in seeded order with seeded
// scalars and data. The multiset of (routine, size) pairs is the same for
// every seed, so every seed does the same work and the latency
// percentiles compare across seeds; the seed draws the order, the scalars
// and the data.
func mixBlock(seed int64) []call {
	rng := rand.New(rand.NewSource(seed))
	var block []call
	for _, r := range mixRoutines {
		for _, cl := range sizeClasses {
			for _, n := range cl.sizes {
				for rep := 0; rep < cl.reps; rep++ {
					block = append(block, call{
						Routine: r, N: n,
						Alpha: 0.5 + rng.Float64(), Beta: 0.5 + rng.Float64(),
						Seed: rng.Int63(),
					})
				}
			}
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// job is one prepared call: seeded host operands, the host reference
// computed from copies of them, and closures that run the call on a
// session.
type job struct {
	c     call
	flops float64
	// auto runs the call with automatic tile selection, as a user would.
	auto func(l *cocopelia.Library) (cocopelia.Result, error)
	// pick runs only the call's tile selection, on the operands auto
	// passes (the path auto takes).
	pick func(l *cocopelia.Library) (int, error)
	// tile runs the call at tile T; without data the operands carry no
	// storage, for timing-only sessions.
	tile func(l *cocopelia.Library, T int, data bool) (cocopelia.Result, error)
	// mirror repeats the selection's predictor query on p (nil for the
	// factorizations, which select from the plan's overlap bound).
	mirror func(p *predictor.Predictor)
	// check compares the output left in the operands with the reference.
	check func() error
}

// eps64 and eps32 are the unit roundoffs of the ULP bound.
const (
	eps64 = 0x1p-52
	eps32 = 0x1p-23
)

// ulpBound is the bound the repository's blas differential tests apply:
// |got-ref| <= 4*(k+2)*eps*mag, with k the inner dimension. Here mag is a
// normwise magnitude of the operation (see each routine in prepare).
func ulpBound(k int, eps, mag float64) float64 { return 4 * float64(k+2) * eps * mag }

// compare checks got against ref element-wise under bound.
func compare[F float32 | float64](got, ref []F, bound float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("output has %d elements, reference %d", len(got), len(ref))
	}
	for i := range got {
		if d := math.Abs(float64(got[i]) - float64(ref[i])); !(d <= bound) {
			return fmt.Errorf("element %d is %g, reference %g (|diff| %.3g > bound %.3g)", i, got[i], ref[i], d, bound)
		}
	}
	return nil
}

// lowerTriangle returns the lower triangle of the n x n matrix a, column
// by column.
func lowerTriangle(a []float64, n int) []float64 {
	out := make([]float64, 0, n*(n+1)/2)
	for col := 0; col < n; col++ {
		out = append(out, a[col+col*n:(col+1)*n]...)
	}
	return out
}

func randSlice(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

func maxAbs[F float32 | float64](x []F) float64 {
	m := 0.0
	for _, v := range x {
		m = max(m, math.Abs(float64(v)))
	}
	return m
}

// maxColSum returns the largest column absolute sum of the n x n matrix a.
func maxColSum[F float32 | float64](a []F, n int) float64 {
	m := 0.0
	for j := 0; j < n; j++ {
		s := 0.0
		for _, v := range a[j*n : (j+1)*n] {
			s += math.Abs(float64(v))
		}
		m = max(m, s)
	}
	return m
}

// selectedTile applies the library's fallback for problems below the
// benchmarked tile grid: they run as one tile of size whole.
func selectedTile(sel cocopelia.Selection, err error, whole int) (int, error) {
	if errors.Is(err, model.ErrNoCandidates) {
		return whole, nil
	}
	return sel.T, err
}

// prepare builds call c's operands and reference. Work here is untimed.
func prepare(c call) (*job, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	n := c.N
	j := &job{c: c}
	host := func(a []float64, data bool) *cocopelia.Matrix {
		if !data {
			a = nil
		}
		return cocopelia.HostMatrix(n, n, a)
	}
	switch c.Routine {
	case "dgemm":
		a, b, cm := randSlice(rng, n*n), randSlice(rng, n*n), randSlice(rng, n*n)
		ref := append([]float64(nil), cm...)
		// The reference runs on the fused kernels, the library on the exact
		// ones; the ULP bound is the one the blas tests hold between them.
		if err := blas.GemmPolicy(blas.KernelFMA, blas.NoTrans, blas.NoTrans, n, n, n, c.Alpha, a, n, b, n, c.Beta, ref, n); err != nil {
			return nil, err
		}
		// |alpha|*|A|*|B| + |beta|*|C| bounded by its largest row max
		// times column sum.
		bound := ulpBound(n, eps64, c.Alpha*maxAbs(a)*maxColSum(b, n)+c.Beta*maxAbs(cm))
		j.flops = 2 * float64(n) * float64(n) * float64(n)
		j.auto = func(l *cocopelia.Library) (cocopelia.Result, error) {
			return l.Dgemm(n, n, n, c.Alpha, host(a, true), host(b, true), c.Beta, host(cm, true))
		}
		j.pick = func(l *cocopelia.Library) (int, error) {
			sel, err := l.SelectGemmTile("dgemm", n, n, n, host(a, true), host(b, true), host(cm, true))
			return selectedTile(sel, err, n)
		}
		j.tile = func(l *cocopelia.Library, T int, data bool) (cocopelia.Result, error) {
			return l.DgemmTile(n, n, n, c.Alpha, host(a, data), host(b, data), c.Beta, host(cm, data), T)
		}
		j.mirror = func(p *predictor.Predictor) {
			prm := model.GemmParams("dgemm", 8, int64(n), int64(n), int64(n), model.OnHost, model.OnHost, model.OnHost)
			_, _ = p.Select(model.DR, &prm)
		}
		j.check = func() error { return compare(cm, ref, bound) }
	case "sgemm":
		f32 := func() []float32 {
			x := make([]float32, n*n)
			for i := range x {
				x[i] = float32(2*rng.Float64() - 1)
			}
			return x
		}
		a, b, cm := f32(), f32(), f32()
		ref := append([]float32(nil), cm...)
		// As for dgemm; for float32 the fused kernel is also ~20x faster.
		if err := blas.GemmPolicy(blas.KernelFMA, blas.NoTrans, blas.NoTrans, n, n, n, float32(c.Alpha), a, n, b, n, float32(c.Beta), ref, n); err != nil {
			return nil, err
		}
		bound := ulpBound(n, eps32, c.Alpha*maxAbs(a)*maxColSum(b, n)+c.Beta*maxAbs(cm))
		host32 := func(x []float32, data bool) *cocopelia.Matrix {
			if !data {
				x = nil
			}
			return cocopelia.HostMatrixF32(n, n, x)
		}
		j.flops = 2 * float64(n) * float64(n) * float64(n)
		j.auto = func(l *cocopelia.Library) (cocopelia.Result, error) {
			return l.Sgemm(n, n, n, c.Alpha, host32(a, true), host32(b, true), c.Beta, host32(cm, true))
		}
		j.pick = func(l *cocopelia.Library) (int, error) {
			sel, err := l.SelectGemmTile("sgemm", n, n, n, host32(a, true), host32(b, true), host32(cm, true))
			return selectedTile(sel, err, n)
		}
		j.tile = func(l *cocopelia.Library, T int, data bool) (cocopelia.Result, error) {
			return l.SgemmTile(n, n, n, c.Alpha, host32(a, data), host32(b, data), c.Beta, host32(cm, data), T)
		}
		j.mirror = func(p *predictor.Predictor) {
			prm := model.GemmParams("sgemm", 4, int64(n), int64(n), int64(n), model.OnHost, model.OnHost, model.OnHost)
			_, _ = p.Select(model.DR, &prm)
		}
		j.check = func() error { return compare(cm, ref, bound) }
	case "dgemv":
		a, x, y := randSlice(rng, n*n), randSlice(rng, n), randSlice(rng, n)
		ref := append([]float64(nil), y...)
		if err := blas.Dgemv(blas.NoTrans, n, n, c.Alpha, a, n, x, 1, c.Beta, ref, 1); err != nil {
			return nil, err
		}
		bound := ulpBound(n, eps64, c.Alpha*maxAbs(a)*float64(n)*maxAbs(x)+c.Beta*maxAbs(y))
		vec := func(v []float64, data bool) *cocopelia.Vector {
			if !data {
				v = nil
			}
			return cocopelia.HostVector(n, v)
		}
		j.flops = 2 * float64(n) * float64(n)
		j.auto = func(l *cocopelia.Library) (cocopelia.Result, error) {
			return l.Dgemv(n, n, c.Alpha, host(a, true), vec(x, true), c.Beta, vec(y, true))
		}
		j.pick = func(l *cocopelia.Library) (int, error) {
			sel, err := l.SelectGemvTile(n, n, host(a, true), vec(x, true), vec(y, true))
			return selectedTile(sel, err, n)
		}
		j.tile = func(l *cocopelia.Library, T int, data bool) (cocopelia.Result, error) {
			return l.DgemvTile(n, n, c.Alpha, host(a, data), vec(x, data), c.Beta, vec(y, data), T)
		}
		j.mirror = func(p *predictor.Predictor) {
			prm := model.GemvParams("dgemv", 8, int64(n), int64(n), model.OnHost, model.OnHost, model.OnHost)
			_, _ = p.Select(model.BTS, &prm)
		}
		j.check = func() error { return compare(y, ref, bound) }
	case "daxpy":
		length := n * n
		x, y := randSlice(rng, length), randSlice(rng, length)
		ref := append([]float64(nil), y...)
		if err := blas.Daxpy(length, c.Alpha, x, 1, ref, 1); err != nil {
			return nil, err
		}
		bound := ulpBound(1, eps64, c.Alpha*maxAbs(x)+maxAbs(y))
		vec := func(v []float64, data bool) *cocopelia.Vector {
			if !data {
				v = nil
			}
			return cocopelia.HostVector(length, v)
		}
		j.flops = 2 * float64(length)
		j.auto = func(l *cocopelia.Library) (cocopelia.Result, error) {
			return l.Daxpy(length, c.Alpha, vec(x, true), vec(y, true))
		}
		j.pick = func(l *cocopelia.Library) (int, error) {
			sel, err := l.SelectAxpyTile(length, vec(x, true), vec(y, true))
			return selectedTile(sel, err, length)
		}
		j.tile = func(l *cocopelia.Library, T int, data bool) (cocopelia.Result, error) {
			return l.DaxpyTile(length, c.Alpha, vec(x, data), vec(y, data), T)
		}
		j.mirror = func(p *predictor.Predictor) {
			prm := model.AxpyParams("daxpy", 8, int64(length), model.OnHost, model.OnHost)
			_, _ = p.Select(model.BTS, &prm)
		}
		j.check = func() error { return compare(y, ref, bound) }
	case "dpotrf", "dgetrf":
		// Symmetric (for Cholesky) and diagonally dominant, so the
		// unpivoted factorizations are stable.
		a := randSlice(rng, n*n)
		for col := 0; col < n; col++ {
			if c.Routine == "dpotrf" {
				for row := 0; row < col; row++ {
					a[col+row*n] = a[row+col*n]
				}
			}
			a[col+col*n] += float64(n)
		}
		ref := append([]float64(nil), a...)
		var err error
		if c.Routine == "dpotrf" {
			j.flops = float64(n) * float64(n) * float64(n) / 3
			err = blas.Potrf(blas.Lower, n, ref, n)
		} else {
			j.flops = 2 * float64(n) * float64(n) * float64(n) / 3
			err = blas.Getrf(n, ref, n)
		}
		if err != nil {
			return nil, err
		}
		bound := ulpBound(n, eps64, maxAbs(a))
		auto, run := (*cocopelia.Library).Dpotrf, (*cocopelia.Library).DpotrfTile
		if c.Routine == "dgetrf" {
			auto, run = (*cocopelia.Library).Dgetrf, (*cocopelia.Library).DgetrfTile
		}
		j.auto = func(l *cocopelia.Library) (cocopelia.Result, error) { return auto(l, n, host(a, true)) }
		j.pick = func(l *cocopelia.Library) (int, error) {
			sel, err := l.SelectFactorTile(c.Routine, n, n, host(a, true), nil)
			return sel.T, err
		}
		j.tile = func(l *cocopelia.Library, T int, data bool) (cocopelia.Result, error) {
			return run(l, n, host(a, data), T)
		}
		j.check = func() error {
			if c.Routine == "dgetrf" {
				return compare(a, ref, bound)
			}
			// Cholesky defines only the lower triangle; the library may
			// use the upper part of diagonal tiles as scratch.
			return compare(lowerTriangle(a, n), lowerTriangle(ref, n), bound)
		}
	case "dtrsm":
		// A lower triangular with a dominant diagonal: a well-conditioned
		// solve.
		a, b := randSlice(rng, n*n), randSlice(rng, n*n)
		for col := 0; col < n; col++ {
			for row := 0; row < col; row++ {
				a[row+col*n] = 0
			}
			a[col+col*n] += float64(n)
		}
		ref := append([]float64(nil), b...)
		if err := blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, n, n, c.Alpha, a, n, ref, n); err != nil {
			return nil, err
		}
		bound := ulpBound(n, eps64, c.Alpha*maxAbs(b))
		j.flops = float64(n) * float64(n) * float64(n)
		j.auto = func(l *cocopelia.Library) (cocopelia.Result, error) {
			return l.Dtrsm(blas.NonUnit, n, n, c.Alpha, host(a, true), host(b, true))
		}
		j.pick = func(l *cocopelia.Library) (int, error) {
			sel, err := l.SelectFactorTile("dtrsm", n, n, host(a, true), host(b, true))
			return sel.T, err
		}
		j.tile = func(l *cocopelia.Library, T int, data bool) (cocopelia.Result, error) {
			return l.DtrsmTile(blas.NonUnit, n, n, c.Alpha, host(a, data), host(b, data), T)
		}
		j.check = func() error { return compare(b, ref, bound) }
	default:
		return nil, fmt.Errorf("unknown routine %q", c.Routine)
	}
	return j, nil
}

// checkCall counts one library call: it must succeed, report a
// plausible result and leave the reference output within the ULP bound.
func checkCall(out *outcome, i int, j *job, res cocopelia.Result, err error) {
	if err == nil && (res.T <= 0 || !(res.Seconds > 0)) {
		err = fmt.Errorf("implausible result T=%d seconds=%v", res.T, res.Seconds)
	}
	if err == nil {
		err = j.check()
	}
	out.check(err == nil, "functional call %d (%s n=%d): %v", i, j.c.Routine, j.c.N, err)
}

// hashResult folds a call's simulated result into h.
func hashResult(h io.Writer, res cocopelia.Result) {
	fmt.Fprintf(h, "%d|%x|%d|%d|%d\n", res.T, math.Float64bits(res.Seconds), res.Subkernels, res.BytesH2D, res.BytesD2H)
}

// functionalSetup deploys CoCoPeLia on Testbed II (running the
// micro-benchmark phase) and opens a backed session.
func functionalSetup(workers int) (*cocopelia.Library, *microbench.Deployment, error) {
	cfg := microbench.DefaultConfig()
	cfg.Workers = workers
	dep := microbench.Run(cocopelia.TestbedII(), cfg)
	lib, err := cocopelia.Open(cocopelia.TestbedII(), cocopelia.Options{Deployment: dep, Backed: true})
	return lib, dep, err
}

// functionalSetupReps is how many times a run sets up, for a steady
// set-up median.
const functionalSetupReps = 15

// runFunctional is the functional workload: one caller in a closed loop
// over whole blocks of mixBlock(seed) on one backed Testbed II session,
// starting a block only while it is expected to end within the run length
// (at least one). Traced, it runs the first block untraced and then again
// split into selection and tile-call spans, each call repeated on a
// timing-only session for the payload share.
func runFunctional(cfg config, out *outcome, tr *tracer) error {
	var setups []float64
	var lib *cocopelia.Library
	var first *microbench.Deployment
	for i := 0; i < functionalSetupReps; i++ {
		if lib != nil {
			_ = lib.Close()
		}
		runtime.GC()
		t0 := now()
		l, dep, err := functionalSetup(cfg.workers)
		setups = append(setups, since(t0).Seconds())
		if err != nil {
			return err
		}
		lib = l
		if first == nil {
			first = dep
		}
		out.check(reflect.DeepEqual(dep, first), "deployment %d differs from the first", i)
	}
	defer lib.Close()
	block := mixBlock(cfg.seed)

	// runBlock runs the block on lib with automatic tiles, returning the
	// per-call latencies, the flops and the output hash.
	runBlock := func(lib *cocopelia.Library) (lat []float64, flops float64, hash uint64, err error) {
		h := fnv.New64a()
		for i, c := range block {
			j, err := prepare(c)
			if err != nil {
				return nil, 0, 0, err
			}
			t := now()
			res, err := j.auto(lib)
			lat = append(lat, since(t).Seconds())
			checkCall(out, i, j, res, err)
			flops += j.flops
			hashResult(h, res)
		}
		return lat, flops, h.Sum64(), nil
	}

	if tr == nil {
		var walls, rates, lat, blockSec []float64
		hp := startHeapPeak()
		start := now()
		for len(walls) == 0 || since(start).Seconds()+median(blockSec) <= cfg.seconds {
			runtime.GC() // see runSweepPass
			t := now()
			bl, flops, hash, err := runBlock(lib)
			blockSec = append(blockSec, since(t).Seconds())
			if err != nil {
				return err
			}
			wall := sum(bl)
			walls = append(walls, wall)
			rates = append(rates, float64(len(bl))/wall)
			lat = append(lat, bl...)
			out.hash("block", hash)
			fmt.Fprintf(os.Stderr, "perfbench: functional block at %.2f GFLOP/s\n", flops/wall/1e9)
		}
		peak := hp.stopMB()
		return setEndToEnd(out, setups, walls, rates, lat, peak)
	}
	return traceFunctional(cfg, out, tr, lib, block, runBlock)
}

// traceFunctional is the traced functional run. The first block runs once
// untraced on the set-up session; then a fresh backed session runs it
// again with each call split into a predictor.select span (the Select*Tile
// call auto makes) and a library.tile span (the *Tile call it makes next),
// and a timing-only session repeats each call at the same tile, outside
// the spans, so the difference is the host payload. Both runs must
// simulate identical results.
func traceFunctional(cfg config, out *outcome, tr *tracer, lib *cocopelia.Library, block []call,
	runBlock func(*cocopelia.Library) ([]float64, float64, uint64, error)) error {
	plain, flops, plainHash, err := runBlock(lib)
	if err != nil {
		return err
	}
	out.hash("block", plainHash)
	var dep *microbench.Deployment
	var backed *cocopelia.Library
	err = tr.do("microbench.deploy", 0, func() (err error) {
		backed, dep, err = functionalSetup(cfg.workers)
		return err
	})
	if err != nil {
		return err
	}
	defer backed.Close()
	timing, err := cocopelia.Open(cocopelia.TestbedII(), cocopelia.Options{Deployment: dep})
	if err != nil {
		return err
	}
	defer timing.Close()
	mirror := predictor.New(dep)

	h := fnv.New64a()
	tiles := map[string][]float64{}
	payload := 0.0
	for i, c := range block {
		j, err := prepare(c)
		if err != nil {
			return err
		}
		var T int
		var res cocopelia.Result
		var tileSec float64
		s := tr.begin("call", i)
		err = tr.do("predictor.select", i, func() (err error) {
			T, err = j.pick(backed)
			return err
		})
		if err == nil {
			t := now()
			err = tr.do("library.tile", i, func() (err error) {
				res, err = j.tile(backed, T, true)
				return err
			})
			tileSec = since(t).Seconds()
		}
		tr.end(s)
		checkCall(out, i, j, res, err)
		hashResult(h, res)
		if err != nil {
			continue
		}
		t := now()
		_, err = j.tile(timing, T, false)
		payload += tileSec - since(t).Seconds()
		out.check(err == nil, "timing-only call %d (%s n=%d T=%d): %v", i, c.Routine, c.N, T, err)
		if j.mirror != nil {
			j.mirror(mirror)
		}
		tiles[c.Routine] = append(tiles[c.Routine], float64(T))
	}
	out.check(h.Sum64() == plainHash, "traced block output hash %016x differs from the untraced block's %016x", h.Sum64(), plainHash)

	wall := sum(plain)
	p90, ok := percentile(plain, 0.9)
	if !ok {
		return fmt.Errorf("%d calls are too few for a p90", len(plain))
	}
	out.set("library.call_ms_p90", p90*1e3, "ms")
	out.set("blas.functional_gflops", flops/wall/1e9, "GFLOP/s")
	out.set("trace.overhead_ratio", tr.total("call")/wall, "ratio")
	sel := tr.durations("predictor.select")
	p50, ok := percentile(sel, 0.5)
	if !ok {
		return fmt.Errorf("%d selections are too few for a median", len(sel))
	}
	out.set("predictor.select_s", sum(sel), "s")
	out.set("predictor.select_us_p50", p50*1e6, "us")
	hits, misses := mirror.CacheStats()
	out.set("predictor.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	out.set("blas.payload_s", payload, "s")
	out.set("microbench.deploy_s", tr.total("microbench.deploy"), "s")
	return setBlasLayers(out, tiles)
}

// blasReps is how many times each direct blas call is timed.
const blasReps = 3

// setBlasLayers times direct internal/blas calls at each routine's median
// tile T in the mix — the kernel shape the library's payload runs — and
// reports their GFLOP/s (median of blasReps calls on fresh copies).
func setBlasLayers(out *outcome, tiles map[string][]float64) error {
	rng := rand.New(rand.NewSource(defaultSeed))
	for _, r := range []struct {
		routine, metric string
		flops           func(t float64) float64
		run             func(T int, a, b, c []float64, a32, b32, c32 []float32) error
	}{
		{"dgemm", "blas.dgemm_gflops", func(t float64) float64 { return 2 * t * t * t },
			func(T int, a, b, c []float64, _, _, _ []float32) error {
				return blas.Dgemm(blas.NoTrans, blas.NoTrans, T, T, T, 1, a, T, b, T, 1, c, T)
			}},
		{"sgemm", "blas.sgemm_gflops", func(t float64) float64 { return 2 * t * t * t },
			func(T int, _, _, _ []float64, a, b, c []float32) error {
				return blas.Sgemm(blas.NoTrans, blas.NoTrans, T, T, T, 1, a, T, b, T, 1, c, T)
			}},
		{"dpotrf", "blas.potrf_gflops", func(t float64) float64 { return t * t * t / 3 },
			func(T int, a, _, _ []float64, _, _, _ []float32) error { return blas.Potrf(blas.Lower, T, a, T) }},
		{"dgetrf", "blas.getrf_gflops", func(t float64) float64 { return 2 * t * t * t / 3 },
			func(T int, a, _, _ []float64, _, _, _ []float32) error { return blas.Getrf(T, a, T) }},
		{"dtrsm", "blas.trsm_gflops", func(t float64) float64 { return t * t * t },
			func(T int, a, b, _ []float64, _, _, _ []float32) error {
				return blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, T, T, 1, a, T, b, T)
			}},
	} {
		if len(tiles[r.routine]) == 0 {
			return fmt.Errorf("no %s calls in the mix", r.routine)
		}
		T := int(median(tiles[r.routine]))
		// A symmetric, diagonally dominant, lower-triangular-friendly A
		// serves every routine: potrf reads its lower triangle, getrf
		// needs no pivots, trsm solves with its lower triangle.
		a := randSlice(rng, T*T)
		for col := 0; col < T; col++ {
			for row := 0; row < col; row++ {
				a[col+row*T] = a[row+col*T]
			}
			a[col+col*T] += float64(T)
		}
		b, c := randSlice(rng, T*T), randSlice(rng, T*T)
		to32 := func(x []float64) []float32 {
			y := make([]float32, len(x))
			for i, v := range x {
				y[i] = float32(v)
			}
			return y
		}
		var rates []float64
		for rep := 0; rep < blasReps; rep++ {
			ac, bc, cc := append([]float64(nil), a...), append([]float64(nil), b...), append([]float64(nil), c...)
			a32, b32, c32 := to32(a), to32(b), to32(c)
			t := now()
			err := r.run(T, ac, bc, cc, a32, b32, c32)
			d := since(t).Seconds()
			out.check(err == nil, "direct %s T=%d: %v", r.routine, T, err)
			rates = append(rates, r.flops(float64(T))/d/1e9)
		}
		out.set(r.metric, median(rates), "GFLOP/s")
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
