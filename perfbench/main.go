// Command perfbench is the repository benchmark. It runs one of three
// workloads through the public entry points of the reproduction
// (eval.Campaign, eval.Runner and cocopelia.Library), checks every output,
// and prints one JSON result line as the last line of standard output:
//
//	perfbench --workload figures|sweep|functional --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. Build and run
// it through run.sh from the repository root; README.md lists the
// workloads, the metrics and the layers each metric attributes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// defaultSeed is the repository's default noise seed (eval.NewRunner's
// SeedBase): at this seed the committed results/ artifacts are reproduced
// exactly and checked byte for byte.
const defaultSeed = 1

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// workers bounds the worker goroutines of the parallel workload:
	// min(nproc, 2).
	workers int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates what one run attempted, what failed and what it
// measured. Every operation the workload runs and every correctness gate
// it evaluates is one attempt; an error or a wrong output is one failure.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	// hashes digests the simulated outputs, per testbed or pass kind, so
	// runs of one set can be compared for identical outputs.
	hashes map[string]string
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]metric{}, hashes: map[string]string{}}
}

// hash records the output hash of one kind of unit.
func (o *outcome) hash(kind string, h uint64) { o.hashes[kind] = fmt.Sprintf("%016x", h) }

// check records one attempted operation or gate; a false ok counts it as
// failed and keeps the message for the report.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// set records a metric.
func (o *outcome) set(name string, value float64, unit string) {
	o.Metrics[name] = metric{Value: value, Unit: unit}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: figures, sweep or functional")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	cfg.traced = trace == 1
	cfg.workers = min(runtime.NumCPU(), 2)
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes the configured workload and prints the report and result
// lines. Errors here are about the benchmark itself (bad flags, missing
// inputs); failures of the measured program are counted in the result.
func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	fp, err := hostFingerprint()
	if err != nil {
		return err
	}
	out := newOutcome()
	tr := (*tracer)(nil)
	if cfg.traced {
		tr = newTracer()
	}
	switch cfg.workload {
	case "figures":
		err = runFigures(cfg, out, tr)
	case "sweep":
		err = runSweep(cfg, out, tr)
	case "functional":
		err = runFunctional(cfg, out, tr)
	default:
		return fmt.Errorf("unknown --workload %q (want figures, sweep or functional)", cfg.workload)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	if err != nil {
		return err
	}
	if cfg.traced {
		fillPerLayer(out)
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0

	report := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.traced,
		"fingerprint": fp,
		"output_hash": out.hashes,
	}
	if tr != nil {
		path, err := tr.write(cfg)
		if err != nil {
			return err
		}
		report["spans"] = path
	}
	if err := printJSON(report); err != nil {
		return err
	}
	return printJSON(out)
}

// printJSON writes v as one JSON line on standard output.
func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b) //lint:ignore outputpurity the result line on stdout is the benchmark's output contract
	return err
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a metric whose layer the workload does not run (or
// that cannot be measured from outside on it) reads 0 — README.md says on
// which workload each one is measured.
var perLayerUnits = map[string]string{
	"eval.cells_simulated":        "count",
	"eval.result_cache_hit_ratio": "ratio",
	"eval.inflight_waits":         "count",
	"eval.plan_cache_hit_ratio":   "ratio",
	"eval.plan_cache_evictions":   "count",
	"eval.cell_ms_p50":            "ms",
	"eval.cell_ms_p99":            "ms",
	"eval.fig1_s":                 "s",
	"eval.fig4_s":                 "s",
	"eval.fig5_s":                 "s",
	"eval.fig7_s":                 "s",
	"eval.sensitivity_s":          "s",
	"eval.rest_s":                 "s",
	"parallel.utilization":        "ratio",
	"plan.build_s":                "s",
	"plan.builds":                 "count",
	"plan.tape_compile_s":         "s",
	"sched.enqueue_s":             "s",
	"sim.advance_s":               "s",
	"sim.events":                  "count",
	"sim.ns_per_event":            "ns",
	"libs.comparator_s":           "s",
	"predictor.select_s":          "s",
	"predictor.select_us_p50":     "us",
	"predictor.cache_hit_ratio":   "ratio",
	"library.call_ms_p90":         "ms",
	"blas.payload_s":              "s",
	"blas.functional_gflops":      "GFLOP/s",
	"blas.dgemm_gflops":           "GFLOP/s",
	"blas.sgemm_gflops":           "GFLOP/s",
	"blas.potrf_gflops":           "GFLOP/s",
	"blas.getrf_gflops":           "GFLOP/s",
	"blas.trsm_gflops":            "GFLOP/s",
	"microbench.deploy_s":         "s",
	"trace.overhead_ratio":        "ratio",
}

// fillPerLayer adds a zero for every per-layer metric the workload did not
// measure, so a traced result always names the full set.
func fillPerLayer(out *outcome) {
	names := make([]string, 0, len(perLayerUnits))
	for name := range perLayerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := out.Metrics[name]; !ok {
			out.set(name, 0, perLayerUnits[name])
		}
	}
}
