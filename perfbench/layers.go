package main

import (
	"fmt"

	"cocopelia/internal/eval"
)

// layerCounts sums what eval.Runner reports about the layers under it:
// its result cache, its plan cache, the wall time its injected clock
// attributes to each phase, and the events its simulations fired.
type layerCounts struct {
	hits, misses, waits                 int
	planHits, planMisses, planEvictions int
	planS, enqueueS, advanceS, otherS   float64
	events                              int64
}

// add folds in a runner's counters. Read them before any result read-back,
// which adds cache hits.
func (lc *layerCounts) add(r *eval.Runner) {
	h, m, w := r.CacheStats()
	lc.hits, lc.misses, lc.waits = lc.hits+h, lc.misses+m, lc.waits+w
	ph, pm, pe := r.PlanCacheStats()
	lc.planHits, lc.planMisses, lc.planEvictions = lc.planHits+ph, lc.planMisses+pm, lc.planEvictions+pe
	pb, enq, adv, other := r.PhaseSeconds()
	lc.planS, lc.enqueueS, lc.advanceS, lc.otherS = lc.planS+pb, lc.enqueueS+enq, lc.advanceS+adv, lc.otherS+other
	lc.events += r.EventsProcessed()
}

func (lc *layerCounts) merge(o layerCounts) {
	lc.hits, lc.misses, lc.waits = lc.hits+o.hits, lc.misses+o.misses, lc.waits+o.waits
	lc.planHits, lc.planMisses, lc.planEvictions = lc.planHits+o.planHits, lc.planMisses+o.planMisses, lc.planEvictions+o.planEvictions
	lc.planS, lc.enqueueS, lc.advanceS, lc.otherS = lc.planS+o.planS, lc.enqueueS+o.enqueueS, lc.advanceS+o.advanceS, lc.otherS+o.otherS
	lc.events += o.events
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report sets the eval, plan, sched, sim and libs layer metrics, with
// counts and times per unit of work (passes or iterations summed in lc).
func (lc layerCounts) report(out *outcome, units float64) {
	out.set("eval.cells_simulated", float64(lc.misses)/units, "count")
	out.set("eval.result_cache_hit_ratio", ratio(float64(lc.hits), float64(lc.hits+lc.misses)), "ratio")
	out.set("eval.inflight_waits", float64(lc.waits)/units, "count")
	out.set("eval.plan_cache_hit_ratio", ratio(float64(lc.planHits), float64(lc.planHits+lc.planMisses)), "ratio")
	out.set("eval.plan_cache_evictions", float64(lc.planEvictions)/units, "count")
	out.set("plan.build_s", lc.planS/units, "s")
	out.set("plan.builds", float64(lc.planMisses)/units, "count")
	out.set("sched.enqueue_s", lc.enqueueS/units, "s")
	out.set("sim.advance_s", lc.advanceS/units, "s")
	out.set("sim.events", float64(lc.events)/units, "count")
	out.set("sim.ns_per_event", ratio(lc.advanceS*1e9, float64(lc.events)), "ns")
	out.set("libs.comparator_s", lc.otherS/units, "s")
}

// setCellPercentiles reports the per-cell latency layer metrics.
func setCellPercentiles(out *outcome, cellSec []float64) error {
	p50, ok50 := percentile(cellSec, 0.50)
	p99, ok99 := percentile(cellSec, 0.99)
	if !ok50 || !ok99 {
		return fmt.Errorf("%d cell samples are too few for a p99", len(cellSec))
	}
	out.set("eval.cell_ms_p50", p50*1e3, "ms")
	out.set("eval.cell_ms_p99", p99*1e3, "ms")
	return nil
}

// setEndToEnd reports the end-to-end metrics from per-unit samples: set-up
// times, unit wall times, per-unit item rates and per-item latencies.
func setEndToEnd(out *outcome, setups, walls, rates, itemSec []float64, peakMB float64) error {
	p50, ok := percentile(itemSec, 0.50)
	if !ok {
		return fmt.Errorf("%d item samples are too few for a median", len(itemSec))
	}
	out.set("setup_s", median(setups), "s")
	out.set("wall_s", median(walls), "s")
	out.set("cells_per_s", median(rates), "1/s")
	out.set("call_ms_p50", p50*1e3, "ms")
	out.set("peak_heap_mb", peakMB, "MB")
	return nil
}
