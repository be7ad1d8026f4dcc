package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"

	"cocopelia/internal/eval"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/parallel"
)

// sweepPlanBudget holds every plan of the campaign work-list, so nothing
// is evicted and the plan counters are a pure function of the work-list
// at any worker count (the budget cocobench -campaign uses).
const sweepPlanBudget = 1 << 22

// campaignCells is the reference DES campaign work-list of cocobench
// -campaign: a tile sweep of every level-3 library over square dgemm
// problems across three location combinations, plus a CoCoPeLia daxpy
// sweep. It is rebuilt here because cmd/cocobench is a main package.
func campaignCells() []eval.MeasureCell {
	sizes := []int{2048, 4096, 8192}
	tiles := map[int][]int{
		2048: {256, 512, 1024},
		4096: {256, 512, 1024, 2048},
		8192: {256, 512, 1024, 2048},
	}
	combos := [][]model.Loc{
		{model.OnHost, model.OnHost, model.OnHost},
		{model.OnDevice, model.OnHost, model.OnHost},
		{model.OnDevice, model.OnDevice, model.OnHost},
	}
	libs := []eval.Lib{eval.LibCoCoPeLia, eval.LibNoReuse, eval.LibCuBLASXt}
	var cells []eval.MeasureCell
	for _, s := range sizes {
		for _, locs := range combos {
			p := eval.Problem{
				Routine: "dgemm", Dtype: kernelmodel.F64, M: s, N: s, K: s,
				Locs: append([]model.Loc(nil), locs...), Tag: "square",
			}
			for _, lib := range libs {
				for _, T := range tiles[s] {
					cells = append(cells, eval.MeasureCell{Lib: lib, P: p, T: T})
				}
			}
			cells = append(cells, eval.MeasureCell{Lib: eval.LibBLASX, P: p, T: 0})
		}
	}
	for _, locs := range model.LocCombos(2) {
		p := eval.Problem{
			Routine: "daxpy", Dtype: kernelmodel.F64, N: 32 << 20,
			Locs: append([]model.Loc(nil), locs...), Tag: "vector",
		}
		for _, T := range []int{1 << 20, 4 << 20} {
			cells = append(cells, eval.MeasureCell{Lib: eval.LibCoCoPeLia, P: p, T: T})
		}
	}
	return cells
}

// factorCells is the cocobench -factor sweep: the factorization set at
// T in {512, 1024}.
func factorCells() []eval.MeasureCell {
	var cells []eval.MeasureCell
	for _, p := range eval.FactorSet(false) {
		for _, T := range []int{512, 1024} {
			cells = append(cells, eval.MeasureCell{Lib: eval.LibCoCoPeLia, P: p, T: T})
		}
	}
	return cells
}

// sweepPass is one cold pass over both work-lists with fresh runners.
type sweepPass struct {
	setup, wall float64
	cellSec     []float64 // wall latency of each Measure call
	utilization float64
	hash        uint64
	camp, fact  *eval.Runner
	cells       []eval.MeasureCell
	nCamp       int
	// counts is read right after the timed region, before the result
	// read-back of outputHash adds cache hits.
	counts layerCounts
}

// runSweepPass measures the campaign cells on one runner and the factor
// cells on a second, through a pool of workers (none when workers is 1).
// A traced pass runs on one worker with the runners' phase clock
// installed and a span around every Measure call. Every cell is one
// attempted operation in out.
func runSweepPass(seed int64, workers int, tr *tracer, out *outcome) (*sweepPass, error) {
	if tr != nil && workers != 1 {
		return nil, fmt.Errorf("traced sweep passes run on one worker, not %d", workers)
	}
	t0 := now()
	tb := machine.TestbedI()
	sp := &sweepPass{cells: campaignCells()}
	sp.nCamp = len(sp.cells)
	sp.cells = append(sp.cells, factorCells()...)
	sp.camp = eval.NewRunner(tb)
	sp.camp.SeedBase = seed
	sp.camp.PlanOpsBudget = sweepPlanBudget
	sp.fact = eval.NewRunner(tb)
	sp.fact.SeedBase = seed
	if tr != nil {
		sp.camp.Clock = now
		sp.fact.Clock = now
	}
	var pool *parallel.Pool
	if workers > 1 {
		pool = parallel.NewPool(workers)
	}
	sp.setup = since(t0).Seconds()
	// Start every pass from the same collected heap, as a fresh process
	// would, so one pass's garbage is not collected on the next's clock.
	runtime.GC()

	sp.cellSec = make([]float64, len(sp.cells))
	errs := make([]error, len(sp.cells))
	base := len(tr.durations("measure"))
	start := now()
	// Errors are kept per cell rather than returned, so one failing cell
	// does not cancel the rest of the pass.
	_ = parallel.ForEach(pool, sp.cells, func(i int, c eval.MeasureCell) error {
		s := tr.begin("measure", base+i)
		t := now()
		_, errs[i] = sp.runner(i).Measure(c.Lib, c.P, c.T)
		sp.cellSec[i] = since(t).Seconds()
		tr.end(s)
		return nil
	})
	wall := since(start)
	sp.wall = wall.Seconds()
	sp.utilization = pool.Utilization(wall)

	sp.counts.add(sp.camp)
	sp.counts.add(sp.fact)

	for i, err := range errs {
		out.check(err == nil, "sweep cell %s %s T=%d: %v", sp.cells[i].Lib, sp.cells[i].P.Name(), sp.cells[i].T, err)
	}
	sp.hash = sp.outputHash()
	return sp, nil
}

func (sp *sweepPass) runner(i int) *eval.Runner {
	if i < sp.nCamp {
		return sp.camp
	}
	return sp.fact
}

// result reads cell i back from its runner's cache.
func (sp *sweepPass) result(i int) (operand.Result, error) {
	c := sp.cells[i]
	return sp.runner(i).Measure(c.Lib, c.P, c.T)
}

// outputHash digests everything the pass simulated: every cell's result
// in work-list order, the event counts and the plan-cache counters.
func (sp *sweepPass) outputHash() uint64 {
	h := fnv.New64a()
	for i, c := range sp.cells {
		res, err := sp.result(i)
		fmt.Fprintf(h, "%s|%s|%d|%v|%x|%d|%d|%d|%d\n", c.Lib, c.P.Name(), c.T, err,
			math.Float64bits(res.Seconds), res.T, res.Subkernels, res.BytesH2D, res.BytesD2H)
	}
	c := sp.counts
	fmt.Fprintf(h, "%d|%d|%d|%d|%d\n", sp.camp.EventsProcessed(), sp.fact.EventsProcessed(),
		c.planHits, c.planMisses, c.planEvictions)
	return h.Sum64()
}

// campaignBaseline is the reference row of results/bench-campaign.json.
type campaignBaseline struct {
	Reference struct {
		Cells         int   `json:"cells"`
		Events        int64 `json:"events"`
		PlanHits      int   `json:"plan_hits"`
		PlanMisses    int   `json:"plan_misses"`
		PlanEvictions int   `json:"plan_evictions"`
	} `json:"reference"`
}

// factorBaseline is results/bench-factor.json.
type factorBaseline struct {
	Events int64 `json:"events"`
	Rows   []struct {
		Routine    string  `json:"routine"`
		N          int     `json:"n"`
		Tile       int     `json:"tile"`
		SimSeconds float64 `json:"sim_seconds"`
		Subkernels int64   `json:"subkernels"`
		BytesH2D   int64   `json:"bytes_h2d"`
		BytesD2H   int64   `json:"bytes_d2h"`
	} `json:"rows"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// sweepGates checks a pass against the committed baselines, which hold
// at the default seed only.
type sweepGates struct {
	camp campaignBaseline
	fact factorBaseline
}

func loadSweepGates() (*sweepGates, error) {
	g := &sweepGates{}
	if err := readJSON("results/bench-campaign.json", &g.camp); err != nil {
		return nil, err
	}
	if err := readJSON("results/bench-factor.json", &g.fact); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *sweepGates) check(sp *sweepPass, out *outcome) {
	ref := g.camp.Reference
	out.check(sp.nCamp == ref.Cells, "campaign work-list has %d cells, baseline %d", sp.nCamp, ref.Cells)
	ev := sp.camp.EventsProcessed()
	out.check(ev == ref.Events, "campaign fired %d events, baseline %d", ev, ref.Events)
	ph, pm, pe := sp.camp.PlanCacheStats()
	out.check(ph == ref.PlanHits && pm == ref.PlanMisses && pe == ref.PlanEvictions,
		"campaign plan counters %d/%d/%d, baseline %d/%d/%d", ph, pm, pe, ref.PlanHits, ref.PlanMisses, ref.PlanEvictions)

	rows := g.fact.Rows
	out.check(len(sp.cells)-sp.nCamp == len(rows), "factor sweep has %d cells, baseline %d rows", len(sp.cells)-sp.nCamp, len(rows))
	for j := 0; j < len(rows) && sp.nCamp+j < len(sp.cells); j++ {
		c, b := sp.cells[sp.nCamp+j], rows[j]
		res, err := sp.result(sp.nCamp + j)
		out.check(err == nil && c.P.Routine == b.Routine && c.P.N == b.N && c.T == b.Tile &&
			math.Float64bits(res.Seconds) == math.Float64bits(b.SimSeconds) &&
			res.Subkernels == b.Subkernels && res.BytesH2D == b.BytesH2D && res.BytesD2H == b.BytesD2H,
			"factor %s n=%d T=%d: sim=%v kernels=%d h2d=%d d2h=%d err=%v, baseline %s n=%d T=%d sim=%v kernels=%d h2d=%d d2h=%d",
			c.P.Routine, c.P.N, c.T, res.Seconds, res.Subkernels, res.BytesH2D, res.BytesD2H, err,
			b.Routine, b.N, b.Tile, b.SimSeconds, b.Subkernels, b.BytesH2D, b.BytesD2H)
	}
	fev := sp.fact.EventsProcessed()
	out.check(fev == g.fact.Events, "factor sweep fired %d events, baseline %d", fev, g.fact.Events)
}

// runSweep is the sweep workload. Untraced, it repeats cold passes at
// min(nproc, 2) workers for the run length. Traced, it alternates
// untraced and traced one-worker passes until the traced cells support a
// p99, then runs one pass at the full worker count for the pool's
// utilization; every pass must simulate the identical output.
func runSweep(cfg config, out *outcome, tr *tracer) error {
	var gates *sweepGates
	if cfg.seed == defaultSeed {
		var err error
		if gates, err = loadSweepGates(); err != nil {
			return err
		}
	}
	var first uint64
	pass := func(workers int, t *tracer) (*sweepPass, error) {
		sp, err := runSweepPass(cfg.seed, workers, t, out)
		if err != nil {
			return nil, err
		}
		if gates != nil {
			gates.check(sp, out)
		}
		if first == 0 {
			first = sp.hash
			out.hash("pass", first)
		}
		out.check(sp.hash == first, "sweep pass (workers=%d, traced=%v) output hash %016x differs from the first pass's %016x",
			workers, t != nil, sp.hash, first)
		return sp, nil
	}

	if tr == nil {
		var setups, walls, rates, cellSec []float64
		hp := startHeapPeak()
		start := now()
		for len(walls) < 3 || since(start).Seconds() < cfg.seconds {
			sp, err := pass(cfg.workers, nil)
			if err != nil {
				return err
			}
			setups = append(setups, sp.setup)
			walls = append(walls, sp.wall)
			rates = append(rates, float64(len(sp.cells))/sp.wall)
			cellSec = append(cellSec, sp.cellSec...)
		}
		peak := hp.stopMB()
		return setEndToEnd(out, setups, walls, rates, cellSec, peak)
	}

	need := samplesFor(0.99)
	var plain, traced []float64
	var tp []*sweepPass
	for n := 0; n < need || len(tp) < 3; n += len(tp[len(tp)-1].cells) {
		sp, err := pass(1, nil)
		if err != nil {
			return err
		}
		plain = append(plain, sp.wall)
		if sp, err = pass(1, tr); err != nil {
			return err
		}
		traced = append(traced, sp.wall)
		tp = append(tp, sp)
	}
	wide, err := pass(cfg.workers, nil)
	if err != nil {
		return err
	}
	out.set("parallel.utilization", wide.utilization, "ratio")
	out.set("trace.overhead_ratio", median(traced)/median(plain), "ratio")

	var lc layerCounts
	for _, sp := range tp {
		lc.merge(sp.counts)
	}
	lc.report(out, float64(len(tp)))
	if err := setCellPercentiles(out, tr.durations("measure")); err != nil {
		return err
	}

	// Re-drive a fixed sample of the first traced pass's cells stage by
	// stage, against that pass's cached results.
	sp := tp[0]
	for _, i := range redriveSample(sp.cells, 12) {
		redrive(machine.TestbedI(), cfg.seed, sp.runner(i), sp.cells[i], tr, i, out)
	}
	out.set("plan.tape_compile_s", tr.total("plan.tape"), "s")
	return nil
}
