package cudart

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cocopelia/internal/device"
	"cocopelia/internal/machine"
	"cocopelia/internal/sim"
)

// The graph tests pin a static graph launch to the dynamic op path: the
// same nodes enqueued one by one — each node's dependency waits, then a
// transferOp or KernelAsync, then the tail waits — must produce the
// identical trace on a noisy device, including around work that precedes
// and follows the launch on the same streams.

var graphTestNames = []string{"ka", "kb", "kc"}

// testStreams is the stream-slot count of the test graphs: one more than
// the three a CoCoPeLia plan uses, as a cuBLASXt plan does.
const testStreams = 4

// kernel enqueues a timing-only kernel through the dynamic op path.
func kernel(s *Stream, name string, dur float64) *Event {
	ev, err := s.KernelAsync(name, dur, nil)
	if err != nil {
		panic(err)
	}
	return ev
}

// graphSpec is a random graph in builder terms, replayable by both paths.
type graphSpec struct {
	nodes  []specNode
	tails  [testStreams][]int32
	events []*Event // enqueue's scratch: each node's completion event
}

type specNode struct {
	stream int
	kernel bool
	dir    machine.LinkDir
	bytes  int64
	dur    float64
	name   uint8
	deps   []int32
}

// randomGraph draws n nodes over the graph streams. Streams do not own an
// engine here — a kernel may follow a transfer on one stream — so one
// completion can release several nodes bound for the same engine, and the
// successor order becomes observable in the FIFO order of that engine.
func randomGraph(rng *rand.Rand, n int) *graphSpec {
	g := &graphSpec{}
	for i := 0; i < n; i++ {
		nd := specNode{stream: rng.Intn(testStreams), kernel: rng.Intn(2) == 0,
			dir: machine.LinkDir(rng.Intn(2)), bytes: int64(1 + rng.Intn(1<<20)),
			dur: 1e-6 * float64(1+rng.Intn(200)), name: uint8(rng.Intn(len(graphTestNames)))}
		for d := rng.Intn(4); d > 0 && i > 0; d-- {
			nd.deps = append(nd.deps, int32(rng.Intn(i))) // duplicates allowed
		}
		g.nodes = append(g.nodes, nd)
	}
	for k := range g.tails {
		for w := rng.Intn(3); w > 0; w-- {
			g.tails[k] = append(g.tails[k], int32(rng.Intn(n)))
		}
	}
	return g
}

// build lowers the spec to a sealed Graph.
func (s *graphSpec) build() *Graph {
	g := NewGraph(graphTestNames, testStreams, 0, 0)
	for _, nd := range s.nodes {
		if nd.kernel {
			g.AddKernel(nd.stream, nd.name, nd.dur, nd.deps)
		} else {
			g.AddTransfer(nd.stream, nd.dir, nd.bytes, nd.deps)
		}
	}
	for k, tails := range s.tails {
		for _, i := range tails {
			g.TailWait(k, i)
		}
	}
	g.Seal()
	return g
}

// enqueue is the dynamic reference: every node through the op path.
func (s *graphSpec) enqueue(st [testStreams]*Stream) {
	if len(s.events) < len(s.nodes) {
		s.events = make([]*Event, len(s.nodes))
	}
	events := s.events
	for i, nd := range s.nodes {
		for _, d := range nd.deps {
			st[nd.stream].WaitEvent(events[d])
		}
		if nd.kernel {
			events[i] = kernel(st[nd.stream], graphTestNames[nd.name], nd.dur)
		} else {
			events[i] = st[nd.stream].transferOp(nd.dir, nd.bytes, nil, nil)
		}
	}
	for k, tails := range s.tails {
		for _, i := range tails {
			st[k].WaitEvent(events[i])
		}
	}
}

// traceRT is a noisy runtime with one stream per test slot whose kernel and transfer
// intervals, and callback times, append to one log.
type traceRT struct {
	rt  *Runtime
	st  [testStreams]*Stream
	log []string
}

func newTraceRT() *traceRT {
	tr := &traceRT{rt: New(device.New(sim.New(), machine.TestbedI(), 11, false))}
	for k := range tr.st {
		tr.st[k] = tr.rt.NewStream()
	}
	tr.rt.Device().SetKernelObserver(func(name string, start, end sim.Time) {
		tr.log = append(tr.log, fmt.Sprintf("kernel %s %x %x", name, start, end))
	})
	tr.rt.Device().Link().SetObserver(func(dir machine.LinkDir, start, end sim.Time, bytes int64) {
		tr.log = append(tr.log, fmt.Sprintf("link %v %x %x %d", dir, start, end, bytes))
	})
	return tr
}

// mark enqueues a callback on s that logs the time it runs.
func (tr *traceRT) mark(s *Stream, what string) {
	s.Callback(func() { tr.log = append(tr.log, fmt.Sprintf("%s %x", what, tr.rt.Now())) })
}

// prior enqueues work on every stream and leaves pending waits.
func (tr *traceRT) prior() {
	tr.st[0].transferOp(machine.H2D, 1<<16, nil, nil)
	k := kernel(tr.st[2], "prior", 3e-5)
	tr.st[0].WaitEvent(k)
	tr.st[1].WaitEvent(tr.st[0].Record())
	tr.st[1].WaitEvent(k)
}

// follow enqueues work behind the launch: on its own streams (consuming
// the tails and tail waits) and on new streams waiting on Record.
func (tr *traceRT) follow() {
	for k, s := range tr.st {
		o := tr.rt.NewStream()
		o.WaitEvent(s.Record())
		kernel(o, "after", 1e-6)
		o.transferOp(machine.D2H, 4096, nil, nil)
		tr.mark(o, fmt.Sprintf("record%d", k))
	}
	for k, s := range tr.st {
		kernel(s, "next", 2e-6)
		s.transferOp(machine.H2D, 2048, nil, nil)
		tr.mark(s, fmt.Sprintf("stream%d", k))
	}
}

func TestGraphLaunchMatchesDynamicOps(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomGraph(rng, 1+rng.Intn(60))
		g := spec.build()
		for _, around := range []bool{false, true} {
			run := func(graph bool) []string {
				tr := newTraceRT()
				if around {
					tr.prior()
				}
				if graph {
					var x GraphExec
					x.Launch(g, tr.st[:], false)
				} else {
					spec.enqueue(tr.st)
				}
				if around {
					tr.follow()
				}
				end, err := tr.rt.Sync()
				if err != nil {
					t.Fatal(err)
				}
				return append(tr.log, fmt.Sprintf("end %x after %d events", end, tr.rt.Engine().Processed()))
			}
			got, want := run(true), run(false)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("seed %d (prior/follow-on work %v): graph trace diverged from the dynamic ops:\ngraph:\n%s\ndynamic:\n%s",
					seed, around, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// TestGraphSuccessorOrder pins the CSR order on the smallest graph where it
// shows: one completion releasing two kernels bound for the one compute
// engine launches them in node order.
func TestGraphSuccessorOrder(t *testing.T) {
	g := NewGraph(graphTestNames, 3, 3, 2)
	root := g.AddKernel(0, 0, 1e-6, nil)
	g.AddKernel(1, 1, 1e-6, []int32{root})
	g.AddKernel(2, 2, 1e-6, []int32{root})
	g.Seal()
	tr := newTraceRT()
	var x GraphExec
	x.Launch(g, tr.st[:], false)
	if _, err := tr.rt.Sync(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, l := range tr.log {
		names = append(names, strings.Fields(l)[1])
	}
	if strings.Join(names, " ") != "ka kb kc" {
		t.Fatalf("kernel order %v, want ka kb kc", names)
	}
}

// TestGraphBlockedCountsAsOutstanding blocks a launch behind an event that
// never fires and requires Sync's deadlock count to include every blocked
// node, exactly as for the same nodes enqueued dynamically. A Reset frees
// the abandoned launch state for the next launch.
func TestGraphBlockedCountsAsOutstanding(t *testing.T) {
	spec := &graphSpec{nodes: []specNode{
		{stream: 0, dir: machine.H2D, bytes: 64},
		{stream: 2, kernel: true, dur: 1e-6, deps: []int32{0}},
		{stream: 1, dir: machine.D2H, bytes: 64, deps: []int32{1}},
		{stream: 2, kernel: true, dur: 1e-6}, // behind node 1 on its stream
		{stream: 1, dir: machine.D2H, bytes: 64},
	}}
	g := spec.build()
	errs := make([]string, 2)
	var x GraphExec
	for i, graph := range []bool{true, false} {
		tr := newTraceRT()
		tr.st[0].WaitEvent(tr.rt.allocEvent()) // never fires
		if graph {
			x.Launch(g, tr.st[:], false)
		} else {
			spec.enqueue(tr.st)
		}
		_, err := tr.rt.Sync()
		if err == nil {
			t.Fatal("blocked launch synced")
		}
		errs[i] = err.Error()
		if graph {
			if x.Idle() {
				t.Fatal("blocked launch state reports idle")
			}
			tr.rt.Reset(device.New(sim.New(), machine.TestbedI(), 11, false))
			if !x.Idle() {
				t.Fatal("launch state still busy after the runtime was reset")
			}
		}
	}
	want := fmt.Sprintf("cudart: deadlock: %d operations still blocked after drain", len(spec.nodes))
	if errs[0] != want || errs[1] != want {
		t.Fatalf("graph: %q\ndynamic: %q\nwant: %q", errs[0], errs[1], want)
	}
}

// TestGraphLaunchZeroAlloc gates a warm timing-only launch → Sync cycle at
// zero allocations.
func TestGraphLaunchZeroAlloc(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 200).build()
	tr := newTraceRT()
	tr.rt.Device().SetKernelObserver(nil)
	tr.rt.Device().Link().SetObserver(nil)
	var x GraphExec
	cycle := func() {
		x.Launch(g, tr.st[:], false)
		if _, err := tr.rt.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("graph launch allocates %.1f objects per run, want 0", allocs)
	}
}

// launchBench times warm launch → Sync cycles of a random 2000-node graph,
// through the graph or through the dynamic op path.
func launchBench(b *testing.B, graph bool) {
	spec := randomGraph(rand.New(rand.NewSource(9)), 2000)
	g := spec.build()
	rt := New(device.New(sim.New(), machine.TestbedI(), 1, false))
	var st [testStreams]*Stream
	for k := range st {
		st[k] = rt.NewStream()
	}
	var x GraphExec
	cycle := func() {
		if graph {
			x.Launch(g, st[:], false)
		} else {
			spec.enqueue(st)
		}
		if _, err := rt.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkGraphLaunch measures a static graph launch → Sync.
func BenchmarkGraphLaunch(b *testing.B) { launchBench(b, true) }

// BenchmarkDynamicLaunch measures the same nodes enqueued one by one
// through the dynamic op path → Sync.
func BenchmarkDynamicLaunch(b *testing.B) { launchBench(b, false) }
