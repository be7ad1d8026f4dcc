package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cocopelia/internal/eval"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/parallel"
)

// itemClock is the injected clock of the campaign's one-worker pool. The
// pool samples it serially right before and right after each work item,
// so consecutive samples pair up into item latencies. An item that made
// the campaign runner simulate — its result-cache misses grew — is one
// simulated measurement cell, and its latency is recorded; items served
// from the cache, items of other runners (the ablation's no-bidirectional
// runner) and the sensitivity experiment's per-scale sub-campaigns are not.
type itemClock struct {
	runner *eval.Runner
	on     bool
	odd    bool
	start  time.Time
	misses int
	lat    []float64
	tr     *tracer
}

func (c *itemClock) now() time.Time {
	t := now()
	_, misses, _ := c.runner.CacheStats()
	if !c.odd {
		c.start, c.misses = t, misses
	} else if c.on && misses > c.misses {
		c.lat = append(c.lat, t.Sub(c.start).Seconds())
		c.tr.add("cell", len(c.lat)-1, c.start, t)
	}
	c.odd = !c.odd
	return t
}

// slug is the file-name form of a testbed name ("Testbed I" → "testbed-i").
func slug(tb *machine.Testbed) string {
	return strings.ReplaceAll(strings.ToLower(tb.Name), " ", "-")
}

// figIteration is one testbed's full reproduction.
type figIteration struct {
	tb          *machine.Testbed
	setup, wall float64
	cellSec     []float64
	csvs        map[string][]byte // committed file name → content
	hash        uint64
	campaign    *eval.Campaign
	counts      layerCounts
}

// figuresSetup loads the testbed's committed deployment and builds its
// campaign: fast problem sets, one worker, noise seeded by seed.
func figuresSetup(tb *machine.Testbed, seed int64, clock *itemClock, tr *tracer) (*eval.Campaign, *microbench.Deployment, error) {
	var dep *microbench.Deployment
	err := tr.do("microbench.load", 0, func() (err error) {
		dep, err = microbench.Load(filepath.Join("results", "deploy-"+slug(tb)+".json"))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	c := eval.NewCampaignWithDeployment(tb, dep, true)
	c.Runner.SeedBase = seed
	clock.runner = c.Runner
	// A one-worker pool runs every batch inline, in order, exactly like
	// the serial (nil) pool, and samples clock around each cell.
	c.Pool = parallel.NewPoolClock(1, clock.now)
	if tr != nil {
		c.Runner.Clock = now
	}
	return c, dep, nil
}

// csvBytes renders a table exactly as eval.WriteCSV writes it.
func csvBytes(header []string, rows [][]string) ([]byte, error) {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	if err := w.Write(header); err != nil {
		return nil, err
	}
	if err := w.WriteAll(rows); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// figuresIteration runs every experiment `cocoeval -exp all` runs, in its
// order, for one testbed. Each experiment call is one attempted operation
// and, traced, one span.
func figuresIteration(tb *machine.Testbed, seed int64, tr *tracer, out *outcome) (*figIteration, error) {
	it := &figIteration{tb: tb, csvs: map[string][]byte{}}
	clock := &itemClock{on: true, tr: tr}
	t0 := now()
	c, dep, err := figuresSetup(tb, seed, clock, tr)
	if err != nil {
		return nil, err
	}
	it.setup = since(t0).Seconds()
	it.campaign = c
	// Start every iteration from the same collected heap (see runSweepPass).
	runtime.GC()

	var text strings.Builder
	sl := slug(tb)
	addCSV := func(name string, header []string, rows [][]string) error {
		b, err := csvBytes(header, rows)
		it.csvs[name+"-"+sl+".csv"] = b
		return err
	}
	var fig7 = map[string][]eval.Fig7Row{}
	experiments := []struct {
		name string
		run  func() error
	}{
		{"table2", func() error {
			text.WriteString(microbench.TableII(dep))
			return nil
		}},
		{"fig1", func() error {
			rows, err := c.Fig1()
			if err != nil {
				return err
			}
			text.WriteString(eval.RenderFig1(rows))
			h, cells := eval.Fig1CSV(rows)
			return addCSV("fig1", h, cells)
		}},
		{"fig2", func() error {
			gantt, phases, err := c.Fig2(8192, 1024, 100)
			text.WriteString(gantt)
			for _, ph := range phases {
				fmt.Fprintf(&text, "[%.3fs..%.3fs] %s\n", ph.Start, ph.End, ph.Dominant)
			}
			return err
		}},
		{"fig4", func() error {
			samples, err := c.Fig4()
			if err != nil {
				return err
			}
			gemv, err := c.Fig4Gemv()
			if err != nil {
				return err
			}
			samples = append(samples, gemv...)
			text.WriteString(eval.RenderErrSummary("Fig. 4", samples))
			h, cells := eval.ErrCSV(samples)
			return addCSV("fig4", h, cells)
		}},
		{"fig5", func() error {
			samples, err := c.Fig5()
			if err != nil {
				return err
			}
			text.WriteString(eval.RenderErrSummary("Fig. 5", samples))
			h, cells := eval.ErrCSV(samples)
			return addCSV("fig5", h, cells)
		}},
		{"fig6", func() error {
			for _, routine := range []string{"dgemm", "sgemm"} {
				rows, err := c.Fig6(routine)
				if err != nil {
					return err
				}
				text.WriteString(eval.RenderFig6(routine, rows))
				h, cells := eval.Fig6CSV(rows)
				if err := addCSV("fig6-"+routine, h, cells); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig7", func() error {
			gemmLibs := []eval.Lib{eval.LibCoCoPeLia, eval.LibCuBLASXt, eval.LibBLASX}
			for _, routine := range []string{"dgemm", "sgemm"} {
				rows, err := c.Fig7Gemm(routine)
				if err != nil {
					return err
				}
				fig7[routine] = rows
				text.WriteString(eval.RenderFig7(tb.Name+" "+routine, rows, gemmLibs))
				h, cells := eval.Fig7CSV(rows, gemmLibs)
				if err := addCSV("fig7-"+routine, h, cells); err != nil {
					return err
				}
			}
			rows, err := c.Fig7Daxpy()
			if err != nil {
				return err
			}
			fig7["daxpy"] = rows
			axpyLibs := []eval.Lib{eval.LibCoCoPeLia, eval.LibUnified}
			text.WriteString(eval.RenderFig7(tb.Name+" daxpy", rows, axpyLibs))
			h, cells := eval.Fig7CSV(rows, axpyLibs)
			return addCSV("fig7-daxpy", h, cells)
		}},
		{"ablation", func() error {
			text.WriteString(c.AblationSlowdownFit())
			rows, err := c.AblationReuse("dgemm")
			if err != nil {
				return err
			}
			text.WriteString(eval.RenderAblationReuse("dgemm", rows))
			crows, err := c.AblationContention("dgemm")
			if err != nil {
				return err
			}
			text.WriteString(eval.RenderAblationContention("dgemm", crows))
			samples, err := c.AblationModelVariants("dgemm")
			if err != nil {
				return err
			}
			text.WriteString(eval.RenderErrSummary("ablation", samples))
			h, cells := eval.ErrCSV(samples)
			return addCSV("ablation-models", h, cells)
		}},
		{"sensitivity", func() error {
			clock.on = false
			defer func() { clock.on = true }()
			rows, err := c.Sensitivity(8192, []float64{0.125, 0.25, 0.5, 1, 2, 4, 8, 16})
			text.WriteString(eval.RenderSensitivity(tb.Name, 8192, rows))
			return err
		}},
		{"table4", func() error {
			var all []eval.Table4Row
			for _, routine := range []string{"dgemm", "sgemm", "daxpy"} {
				all = append(all, eval.Table4(tb.Name, routine, fig7[routine])...)
			}
			text.WriteString(eval.RenderTable4(all))
			return nil
		}},
	}

	start := now()
	for _, e := range experiments {
		err := tr.do(e.name, 0, e.run)
		out.check(err == nil, "%s on %s: %v", e.name, tb.Name, err)
	}
	it.wall = since(start).Seconds()
	it.cellSec = clock.lat
	it.counts.add(c.Runner)

	h := fnv.New64a()
	h.Write([]byte(text.String()))
	for _, name := range sortedKeys(it.csvs) {
		h.Write([]byte(name))
		h.Write(it.csvs[name])
	}
	it.hash = h.Sum64()
	return it, nil
}

// checkCommitted compares the iteration's CSVs byte for byte with the
// committed results/ files (valid at the default seed). The committed
// eval-output.txt is not compared: its sensitivity section is stale.
func (it *figIteration) checkCommitted(out *outcome) {
	for _, name := range sortedKeys(it.csvs) {
		want, err := os.ReadFile(filepath.Join("results", name))
		out.check(err == nil && bytes.Equal(it.csvs[name], want),
			"%s differs from the committed results/%s (read error: %v)", name, name, err)
	}
}

// figuresIterations is the number of untraced iterations a run of the
// given length makes: one per testbed for every 20 seconds, at least one
// each. A fixed, even count gives every run the same work, equally split
// between the testbeds (an iteration takes 8-10 s on a 2-vCPU host).
func figuresIterations(seconds float64) int {
	return 2 * max(1, int(seconds/20))
}

// figuresSetupReps is how many extra set-ups an untraced run times.
const figuresSetupReps = 40

// figuresTestbeds alternates the two testbeds: iteration i reproduces
// testbed i mod 2, so any two consecutive iterations cover all 18 CSVs.
var figuresTestbeds = []func() *machine.Testbed{machine.TestbedI, machine.TestbedII}

// runFigures is the figures workload. Untraced, it reproduces the paper
// one testbed at a time, alternating I and II, figuresIterations times.
// Traced, it runs Testbed I once untraced, then traced iterations, then
// re-drives a sample of the figures' cells.
func runFigures(cfg config, out *outcome, tr *tracer) error {
	hashes := map[string]uint64{}
	iteration := func(i int, t *tracer) (*figIteration, error) {
		it, err := figuresIteration(figuresTestbeds[i%2](), cfg.seed, t, out)
		if err != nil {
			return nil, err
		}
		if cfg.seed == defaultSeed {
			it.checkCommitted(out)
		}
		if h, ok := hashes[it.tb.Name]; ok {
			out.check(h == it.hash, "%s output hash %016x differs from the first iteration's %016x", it.tb.Name, it.hash, h)
		} else {
			hashes[it.tb.Name] = it.hash
			out.hash(it.tb.Name, it.hash)
		}
		return it, nil
	}

	if tr == nil {
		// Set-up takes about a millisecond, so it is repeated for a
		// steady median.
		var setups, walls, rates, cellSec []float64
		for i := 0; i < figuresSetupReps; i++ {
			runtime.GC()
			t0 := now()
			if _, _, err := figuresSetup(figuresTestbeds[i%2](), cfg.seed, &itemClock{}, nil); err != nil {
				return err
			}
			setups = append(setups, since(t0).Seconds())
		}
		hp := startHeapPeak()
		for i := 0; i < figuresIterations(cfg.seconds); i++ {
			it, err := iteration(i, nil)
			if err != nil {
				return err
			}
			setups = append(setups, it.setup)
			walls = append(walls, it.wall)
			rates = append(rates, float64(len(it.cellSec))/it.wall)
			cellSec = append(cellSec, it.cellSec...)
		}
		peak := hp.stopMB()
		return setEndToEnd(out, setups, walls, rates, cellSec, peak)
	}

	// Traced iterations alternate testbeds like untraced ones, until the
	// traced cells support a p99; layer numbers are per iteration.
	plain, err := iteration(0, nil)
	if err != nil {
		return err
	}
	var traced []*figIteration
	var lc layerCounts
	var cellSec []float64
	var hits, misses int
	for len(traced) == 0 || len(cellSec) < samplesFor(0.99) {
		it, err := iteration(len(traced), tr)
		if err != nil {
			return err
		}
		traced = append(traced, it)
		lc.merge(it.counts)
		cellSec = append(cellSec, it.cellSec...)
		h, m := it.campaign.Pred.CacheStats()
		hits, misses = hits+h, misses+m
	}
	n := float64(len(traced))
	out.set("trace.overhead_ratio", traced[0].wall/plain.wall, "ratio")
	lc.report(out, n)
	if err := setCellPercentiles(out, cellSec); err != nil {
		return err
	}
	out.set("predictor.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	out.set("microbench.deploy_s", tr.total("microbench.load")/n, "s")
	rest := 0.0
	for _, it := range traced {
		rest += it.wall
	}
	for _, name := range []string{"fig1", "fig4", "fig5", "fig7", "sensitivity"} {
		d := tr.total(name)
		out.set("eval."+name+"_s", d/n, "s")
		rest -= d
	}
	out.set("eval.rest_s", rest/n, "s")

	// Re-drive a fixed sample of the figures' validation cells.
	tb := traced[0].tb
	r := eval.NewRunner(tb)
	r.Reps = 1
	r.SeedBase = cfg.seed
	cells := figuresCells(traced[0].campaign.Coarsen)
	for _, i := range redriveSample(cells, 12) {
		redrive(tb, cfg.seed, r, cells[i], tr, i, out)
	}
	out.set("plan.tape_compile_s", tr.total("plan.tape"), "s")
	return nil
}

// figuresCells lists cells the figures measure: the first two swept tiles
// of the first problem of each fast validation set.
func figuresCells(coarsen int) []eval.MeasureCell {
	sets := [][]eval.Problem{
		eval.GemmValidationSet("dgemm", true),
		eval.GemmValidationSet("sgemm", true),
		eval.GemvValidationSet(true),
		eval.DaxpyValidationSet(true),
	}
	var cells []eval.MeasureCell
	for _, set := range sets {
		p := set[0]
		grid := microbench.GemmTileGrid()
		if p.Routine == "daxpy" {
			grid = microbench.AxpyTileGrid()
		}
		tiles := eval.SweepTiles(p, grid, coarsen)
		for _, T := range tiles[:min(2, len(tiles))] {
			for _, lib := range []eval.Lib{eval.LibCoCoPeLia, eval.LibNoReuse} {
				if lib == eval.LibNoReuse && p.Routine != "dgemm" && p.Routine != "sgemm" {
					continue
				}
				cells = append(cells, eval.MeasureCell{Lib: lib, P: p, T: T})
			}
		}
	}
	return cells
}
