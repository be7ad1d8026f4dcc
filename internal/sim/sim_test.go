package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("end time = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of issue order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at Time
	e.Schedule(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.Run()
	if at != 5 {
		t.Errorf("After fired at %v, want 5", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.Schedule(1, func() {})
	})
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback should panic")
		}
	}()
	New().Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !ev.Pending() {
		t.Error("event should be pending")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Error("cancelled event should not be pending")
	}
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(nil)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestReschedule(t *testing.T) {
	e := New()
	var at Time
	ev := e.Schedule(10, func() { at = e.Now() })
	e.Schedule(1, func() { e.Reschedule(ev, 4) })
	e.Run()
	if at != 4 {
		t.Errorf("rescheduled event fired at %v, want 4", at)
	}
}

func TestRescheduleFiredPanics(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("rescheduling a fired event should panic")
		}
	}()
	e.Reschedule(ev, 5)
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	n := e.RunUntil(3)
	if n != 3 || len(got) != 3 {
		t.Errorf("RunUntil(3) fired %d events (%v), want 3", n, got)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
	// Deadline past the last event advances the clock to the deadline.
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
	if e.Pending() != 0 {
		t.Error("queue should be drained")
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Errorf("Processed = %d, want 7", e.Processed())
	}
}

// Property: random schedules fire in non-decreasing time order and the
// clock never moves backwards.
func TestRandomScheduleOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var fired []Time
		k := int(n)%100 + 1
		times := make([]Time, k)
		for i := 0; i < k; i++ {
			times[i] = rng.Float64() * 100
			at := times[i]
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != k {
			return false
		}
		sorted := append([]Time(nil), times...)
		sort.Float64s(sorted)
		for i := range sorted {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		n := 50
		firedCount := 0
		events := make([]*Event, n)
		for i := 0; i < n; i++ {
			events[i] = e.Schedule(rng.Float64()*10, func() { firedCount++ })
		}
		cancelled := 0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(events[i])
				cancelled++
			}
		}
		e.Run()
		return firedCount == n-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventRecycling(t *testing.T) {
	// Fired events return to the free list and back future Schedule calls,
	// so steady-state simulation allocates no events.
	e := New()
	ev1 := e.Schedule(1, func() {})
	e.Run()
	ev2 := e.Schedule(2, func() {})
	if ev1 != ev2 {
		t.Error("fired event should be recycled by the next Schedule")
	}
	if !ev2.Pending() || ev2.At() != 2 {
		t.Error("recycled event should be pending at its new time")
	}
	e.Run()

	// Cancelled events recycle too, and the stale reference reads as dead.
	ev3 := e.Schedule(5, func() {})
	e.Cancel(ev3)
	if ev3.Pending() {
		t.Error("cancelled event should not be pending")
	}
	ev4 := e.Schedule(6, func() { t.Error("cancelled slot must not fire the old callback") })
	if ev4 != ev3 {
		t.Error("cancelled event should be recycled")
	}
	e.Cancel(ev4)
}

// runWorkload drives one randomized schedule workload on e and returns the
// fired (time, id) sequence and the final clock. Callbacks schedule
// children, cancel and reschedule pending siblings, so the heap sees the
// full operation mix the link model generates.
func runWorkload(e *Engine, seed int64) (fired [][2]float64, end Time) {
	rng := rand.New(rand.NewSource(seed))
	id := 0
	var pending []*Event
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		myID := id
		id++
		ev := e.Schedule(at, func() {
			fired = append(fired, [2]float64{e.Now(), float64(myID)})
			switch op := rng.Intn(4); {
			case op == 0 && depth < 3:
				schedule(e.Now()+rng.Float64(), depth+1)
			case op == 1 && len(pending) > 0:
				victim := pending[rng.Intn(len(pending))]
				if victim.Pending() {
					e.Cancel(victim)
				}
			case op == 2 && len(pending) > 0:
				victim := pending[rng.Intn(len(pending))]
				if victim.Pending() {
					e.Reschedule(victim, e.Now()+rng.Float64())
				}
			}
		})
		pending = append(pending, ev)
	}
	for i := 0; i < 60; i++ {
		schedule(rng.Float64()*10, 0)
	}
	return fired, e.Run()
}

// Property: a Reset()-reused engine replays a workload with the identical
// event order and final clock as a fresh engine (the invariant that lets
// the campaign engine share one engine across repetitions and cells).
func TestResetReuseIdenticalToFreshEngine(t *testing.T) {
	reused := New()
	// Dirty the reused engine with a different workload, including pending
	// events at Reset time, so Reset has real state to clear.
	reused.Schedule(1, func() {})
	runWorkload(reused, 999)
	reused.Schedule(reused.Now()+5, func() {})

	f := func(seed int64) bool {
		reused.Reset()
		if reused.Now() != 0 || reused.Pending() != 0 || reused.Processed() != 0 {
			t.Fatal("Reset did not clear engine state")
		}
		gotFired, gotEnd := runWorkload(reused, seed)
		wantFired, wantEnd := runWorkload(New(), seed)
		if gotEnd != wantEnd || len(gotFired) != len(wantFired) {
			return false
		}
		for i := range wantFired {
			if gotFired[i] != wantFired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the specialized 4-ary heap pops the same sequence as a naive
// sorted reference under a random mix of schedules, cancels, reschedules
// and steps.
func TestHeapMatchesReferenceProperty(t *testing.T) {
	type refEvent struct {
		at  Time
		seq uint64
		id  int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var ref []refEvent // alive reference events, unordered
		live := map[int]*Event{}
		var fired []int
		nextID := 0
		seq := uint64(0)
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule
				at := e.Now() + rng.Float64()*5
				id := nextID
				nextID++
				live[id] = e.Schedule(at, func() { fired = append(fired, id) })
				ref = append(ref, refEvent{at: at, seq: seq, id: id})
				seq++
			case 2: // cancel or reschedule a random live event
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				victim := ref[i]
				if rng.Intn(2) == 0 {
					e.Cancel(live[victim.id])
					ref = append(ref[:i], ref[i+1:]...)
				} else {
					at := e.Now() + rng.Float64()*5
					e.Reschedule(live[victim.id], at)
					ref[i].at = at
				}
			case 3: // step: the reference min must fire
				if len(ref) == 0 {
					continue
				}
				minI := 0
				for i := 1; i < len(ref); i++ {
					if ref[i].at < ref[minI].at ||
						(ref[i].at == ref[minI].at && ref[i].seq < ref[minI].seq) {
						minI = i
					}
				}
				want := ref[minI].id
				before := len(fired)
				e.Step()
				if len(fired) != before+1 || fired[before] != want {
					return false
				}
				delete(live, want)
				ref = append(ref[:minI], ref[minI+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// runTieWorkload drives a workload whose timestamps are quantized to a
// coarse grid, so same-timestamp runs are the common case rather than a
// measure-zero accident. Callbacks schedule children at the CURRENT
// timestamp, cancel pending siblings, and reschedule siblings onto the
// current timestamp — every operation that could tempt a driver loop into
// firing out of (at, seq) order. drive runs the engine to completion. The
// heap's counter invariant (live + dead == len(queue)) is checked after
// every callback; broken reports whether it ever failed.
func runTieWorkload(e *Engine, seed int64, drive func(*Engine) Time) (fired [][2]float64, end Time, broken bool) {
	rng := rand.New(rand.NewSource(seed))
	const tick = 0.25
	quant := func(x float64) Time { return Time(int(x/tick)) * tick }
	id := 0
	var pending []*Event
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		myID := id
		id++
		ev := e.Schedule(at, func() {
			fired = append(fired, [2]float64{e.Now(), float64(myID)})
			switch op := rng.Intn(6); {
			case op == 0 && depth < 4:
				// Half of these children land exactly on e.Now(): issued
				// while the timestamp is firing, they must still fire in
				// (at, seq) order.
				schedule(e.Now()+quant(rng.Float64()*0.5), depth+1)
			case op == 1 && len(pending) > 0:
				victim := pending[rng.Intn(len(pending))]
				if victim.Pending() {
					e.Cancel(victim)
				}
			case op == 2 && len(pending) > 0:
				victim := pending[rng.Intn(len(pending))]
				if victim.Pending() {
					// Quantized retime, possibly onto the current timestamp.
					e.Reschedule(victim, e.Now()+quant(rng.Float64()*2))
				}
			}
			if e.live+e.dead != len(e.queue) {
				broken = true
			}
		})
		pending = append(pending, ev)
	}
	for i := 0; i < 80; i++ {
		schedule(quant(rng.Float64()*8), 0)
	}
	return fired, drive(e), broken
}

// Property: with tie-heavy quantized timestamps and in-callback
// Cancel/Reschedule onto the current timestamp, Run and a Step loop fire
// the identical sequence, and the heap's live/dead counters always account
// for every entry.
func TestTieBatchCancelRescheduleProperty(t *testing.T) {
	run := func(e *Engine) Time { return e.Run() }
	step := func(e *Engine) Time {
		for e.Step() {
		}
		return e.Now()
	}
	f := func(seed int64) bool {
		wantFired, wantEnd, brokenRun := runTieWorkload(New(), seed, run)
		gotFired, gotEnd, brokenStep := runTieWorkload(New(), seed, step)
		if brokenRun || brokenStep {
			t.Fatalf("seed %d: heap counter invariant live+dead == len(queue) broken", seed)
		}
		if gotEnd != wantEnd || len(gotFired) != len(wantFired) {
			t.Logf("seed %d: Step loop fired %d events to %v, Run fired %d to %v",
				seed, len(gotFired), gotEnd, len(wantFired), wantEnd)
			return false
		}
		for i := range wantFired {
			if gotFired[i] != wantFired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A same-timestamp run mutated while it fires: the first event cancels a
// later same-timestamp event and reschedules a late event onto the run's
// timestamp (it keeps its issue order, so it fires after the earlier-issued
// ties). The fired order is pinned exactly.
func TestBatchBoundaryCancelReschedule(t *testing.T) {
	e := New()
	var got []int
	var evB, evE *Event
	e.Schedule(1, func() {
		got = append(got, 1)
		e.Cancel(evB)        // same timestamp, still queued
		e.Reschedule(evE, 1) // late time -> the run's timestamp
	})
	evB = e.Schedule(1, func() { got = append(got, 2) })
	e.Schedule(1, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 4) })
	evE = e.Schedule(5, func() { got = append(got, 5) })
	e.Schedule(2, func() { got = append(got, 6) })
	e.Run()
	// Order: 1 fires, kills 2, retimes 5 to t=1 (seq after 3 and 4); then
	// 3, 4 by issue order, then 5, then 6 at t=2.
	want := []int{1, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// Slot-parked and heap-resident events are both first-class: Pending counts
// them, Cancel kills either in O(1), and Reschedule moves either in both
// time directions past other pending events.
func TestCancelRescheduleSemantics(t *testing.T) {
	e := New()
	var got []int
	mk := func(at Time, id int) *Event {
		return e.Schedule(at, func() { got = append(got, id) })
	}
	a := mk(1, 1) // slot
	b := mk(2, 2) // heap
	c := mk(3, 3) // heap
	d := mk(4, 4) // heap
	if a.where != inSlot || b.where != inHeap {
		t.Fatal("test setup: expected the first event in the slot, the rest on the heap")
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	e.Cancel(b)
	if b.Pending() {
		t.Error("cancelled heap event still pending")
	}
	e.Reschedule(c, 0.5) // heap -> earlier than the slot event
	e.Reschedule(a, 10)  // slot event retimed in place, now fires last
	e.Reschedule(d, 2)   // heap -> earlier
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.Run()
	want := []int{3, 4, 1}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestScheduleSteadyStateDoesNotAllocateEvents(t *testing.T) {
	e := New()
	var fn func()
	fn = func() {}
	// Warm up the free list and the pre-sized heap.
	for i := 0; i < 100; i++ {
		e.After(1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+step allocates %.1f objects/op, want 0", allocs)
	}
}

// Steady-state Run over a standing heap population (not just the slot)
// allocates nothing once the free list and heap backing are warm.
func TestRunSteadyStateDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 100; i++ {
		e.After(1+Time(i%7), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 4; i++ {
			e.After(1+Time(i), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+run allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// BenchmarkEngineChurn mimics the fluid-flow link's workload: a standing
// population of events with frequent reschedules and cancellations.
func BenchmarkEngineChurn(b *testing.B) {
	e := New()
	b.ReportAllocs()
	const standing = 64
	evs := make([]*Event, standing)
	for i := range evs {
		evs[i] = e.Schedule(e.Now()+1+Time(i), func() {})
	}
	for i := 0; i < b.N; i++ {
		slot := i % standing
		if evs[slot].Pending() {
			e.Reschedule(evs[slot], e.Now()+2)
		} else {
			evs[slot] = e.Schedule(e.Now()+2, func() {})
		}
		e.Step()
	}
}
