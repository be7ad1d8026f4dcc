package main

import (
	"os"
	"reflect"
	"testing"
	"time"

	"cocopelia"
	"cocopelia/internal/eval"
	"cocopelia/internal/machine"
)

func TestMixBlockSeeded(t *testing.T) {
	a, b, c := mixBlock(3), mixBlock(3), mixBlock(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different call streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same call stream")
	}
	want := 0
	for _, cl := range sizeClasses {
		want += len(cl.sizes) * cl.reps
	}
	want *= len(mixRoutines)
	if len(a) != want || len(c) != want {
		t.Fatalf("blocks have %d and %d calls, want %d", len(a), len(c), want)
	}
	// Every seed does the same work: the same (routine, size) multiset.
	count := func(block []call) map[call]int {
		m := map[call]int{}
		for _, x := range block {
			m[call{Routine: x.Routine, N: x.N}]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(c)) {
		t.Fatal("different seeds ran different (routine, size) mixes")
	}
	if _, ok := percentile(make([]float64, len(a)), 0.9); !ok {
		t.Fatalf("a %d-call block cannot report a p90", len(a))
	}
}

// runOn runs a prepared job on a fresh backed Testbed II session.
func runOn(t *testing.T, j *job) cocopelia.Result {
	t.Helper()
	lib, err := cocopelia.Open(cocopelia.TestbedII(), cocopelia.Options{Backed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	res, err := j.auto(lib)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPrepareSameSeedSameInputs(t *testing.T) {
	c := call{Routine: "dgemm", N: 256, Alpha: 1.25, Beta: 0.75, Seed: 99}
	var outs []cocopelia.Result
	for i := 0; i < 2; i++ {
		j, err := prepare(c)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, runOn(t, j))
		if err := j.check(); err != nil {
			t.Fatalf("correct output rejected: %v", err)
		}
	}
	if outs[0] != outs[1] {
		t.Fatalf("same call simulated differently: %+v vs %+v", outs[0], outs[1])
	}
}

func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	for _, routine := range mixRoutines {
		t.Run(routine, func(t *testing.T) {
			j, err := prepare(call{Routine: routine, N: 256, Alpha: 1.5, Beta: 0.5, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			lib, err := cocopelia.Open(cocopelia.TestbedII(), cocopelia.Options{Backed: true})
			if err != nil {
				t.Fatal(err)
			}
			defer lib.Close()
			out := newOutcome()
			res, err := j.auto(lib)
			checkCall(out, 0, j, res, err)
			if out.Failed != 0 {
				t.Fatalf("correct output counted as failed: %v", out.failures)
			}
			// Running the in-place call a second time corrupts the output
			// the reference describes.
			res, err = j.auto(lib)
			checkCall(out, 1, j, res, err)
			if out.Attempted != 2 || out.Failed != 1 {
				t.Fatalf("attempted %d failed %d after a corrupted output, want 2 and 1", out.Attempted, out.Failed)
			}
		})
	}
}

func TestCompareCatchesOneBadElement(t *testing.T) {
	ref := []float64{1, 2, 3, 4}
	got := append([]float64(nil), ref...)
	bound := ulpBound(4, eps64, 4)
	if err := compare(got, ref, bound); err != nil {
		t.Fatal(err)
	}
	got[2] += 10 * bound
	if compare(got, ref, bound) == nil {
		t.Fatal("an element off by ten bounds passed")
	}
	got[2] = ref[2] + bound/2
	if err := compare(got, ref, bound); err != nil {
		t.Fatalf("an element within the bound failed: %v", err)
	}
}

func TestCorruptedCSVCountsAsFailure(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	good, err := os.ReadFile("results/fig1-testbed-i.csv")
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-2] ^= 1
	it := &figIteration{csvs: map[string][]byte{"fig1-testbed-i.csv": good, "fig1-testbed-ii.csv": bad}}
	out := newOutcome()
	it.checkCommitted(out)
	if out.Attempted != 2 || out.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", out.Attempted, out.Failed)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := samplesFor(tc.q); got != tc.need {
			t.Errorf("p%v needs %d samples, want %d", tc.q*100, got, tc.need)
		}
		xs := make([]float64, tc.need-1)
		if _, ok := percentile(xs, tc.q); ok {
			t.Errorf("p%v reported from %d samples", tc.q*100, len(xs))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v (ok %v), want 90", v, ok)
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Error("median of an even count is not the mean of the middle two")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	outer := tr.begin("outer", 1)
	tr.add("child", 1, at(10), at(30))
	tr.add("child", 1, at(40), at(50))
	tr.end(outer)
	tr.spans[outer].Start, tr.spans[outer].End = 0, int64(100*time.Millisecond)
	if got := tr.selfSeconds("outer"); got < 0.0699 || got > 0.0701 {
		t.Errorf("outer self time = %v, want 0.07", got)
	}
	if got := tr.total("child"); got < 0.0299 || got > 0.0301 {
		t.Errorf("child total = %v, want 0.03", got)
	}
	var off *tracer
	off.end(off.begin("x", 0))
	if off.durations("x") != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestRedriveSampleIsPlanBased(t *testing.T) {
	cells := campaignCells()
	sample := redriveSample(cells, 12)
	if len(sample) != 12 {
		t.Fatalf("sample has %d cells, want 12", len(sample))
	}
	for _, i := range sample {
		if lib := cells[i].Lib; lib != eval.LibCoCoPeLia && lib != eval.LibNoReuse {
			t.Errorf("sampled cell %d runs %s, which replays no plan", i, lib)
		}
	}
}

func TestRedriveMatchesMeasure(t *testing.T) {
	tb := machine.TestbedI()
	r := eval.NewRunner(tb)
	out := newOutcome()
	tr := newTracer()
	for i, c := range factorCells()[:2] {
		redrive(tb, 1, r, c, tr, i, out)
	}
	if out.Failed != 0 || out.Attempted != 2 {
		t.Fatalf("attempted %d failed %d: %v", out.Attempted, out.Failed, out.failures)
	}
	for _, stage := range []string{"plan.build", "plan.tape", "sched.enqueue", "sim.advance"} {
		if len(tr.durations(stage)) != 2 {
			t.Errorf("stage %s recorded %d spans, want 2", stage, len(tr.durations(stage)))
		}
	}
}
