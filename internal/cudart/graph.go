package cudart

// Static dependency graphs: the simulator's cudaGraphLaunch. A Graph is a
// DAG of transfers and kernels spread over a fixed number of in-order
// stream slots, known in full before it runs (plan tapes lower to one when
// they are compiled). Launching it issues exactly the
// LaunchKernel/Link.Submit calls, in exactly the order, that enqueueing
// the same nodes one by one through the dynamic op path would — so the
// (at, seq) order of every simulation event, and every noise draw, is
// unchanged — but interior nodes carry no op object, completion Event or
// waiter entry:
//
//   - each node's outstanding-dependency count is an int32 in the launch
//     state, initialised from the graph (the stream predecessor plus the
//     recorded dependencies, counted with multiplicity, as Stream.enqueue
//     counts them);
//   - a completing node decrements its successors in CSR order, which is
//     the order the dynamic path registers waiters in (successors in node
//     order; within one successor the stream predecessor, then its
//     dependencies in order);
//   - the two link directions and the compute engine each complete their
//     work in submission order, so a launch keeps one FIFO of node indices
//     per engine and one cached completion callback per engine pops it.
//     Other work sharing an engine never reaches these callbacks, so the
//     FIFOs stay exact.
//
// Real Events exist only at the graph's boundary: the first node on each
// stream waits (through one bridging op) on that stream's tail and pending
// waits, each stream's last node becomes the stream's new tail, and the
// tail-wait nodes are left as pending waits on their stream. A boundary
// node fires its Event after decrementing its in-graph successors, which is
// where the dynamic path's later-registered waiters sat in the waiter list.
// Record, WaitEvent, OnDrained-style follow-on enqueues and Sync's
// outstanding count (every graph node counts until it completes) therefore
// behave exactly as if the nodes had been enqueued one by one.

import (
	"fmt"

	"cocopelia/internal/machine"
)

// Graph node kinds.
const (
	gTransfer uint8 = iota
	gKernel
)

// graphNode is one transfer or kernel. It is pointer-free, so a graph's
// node array is never scanned by the garbage collector.
type graphNode struct {
	bytes  int64   // transfer volume
	dur    float64 // kernel duration
	ev     int32   // boundary-event index, -1 for interior nodes
	stream uint8
	kind   uint8
	dir    machine.LinkDir // transfer direction
	name   uint8           // kernel-name index into Graph.names
}

// Graph is a static dependency graph. Build it with AddTransfer, AddKernel
// and TailWait, then Seal it; a sealed graph is immutable and may be
// launched any number of times, concurrently from several launch states.
type Graph struct {
	names       []string
	nodes       []graphNode
	count       []int32 // initial in-graph dependency counts
	succOff     []int32 // CSR offsets into succ; len(nodes)+1 once sealed
	succ        []int32
	first, last []int32 // per stream slot
	starts      []int32 // the streams' first nodes, in node order
	tails       [][]int32
	events      int // boundary nodes (stream-last or tail-wait)

	// pred holds each node's predecessor entries (stream predecessor, then
	// dependencies) while the graph is built; Seal turns it into succ.
	pred, predOff []int32
}

// NewGraph starts an empty graph over streams stream slots (at most 256)
// whose kernel nodes name themselves by index into names, sized for n
// nodes with deps recorded dependencies in total: a graph lives as long as
// the plan that compiled it, so its arrays are allocated at their final
// size rather than grown by doubling.
func NewGraph(names []string, streams, n, deps int) *Graph {
	g := &Graph{names: names, nodes: make([]graphNode, 0, n), count: make([]int32, 0, n),
		first: make([]int32, streams), last: make([]int32, streams), tails: make([][]int32, streams),
		pred: make([]int32, 0, n+deps), predOff: make([]int32, 0, n+1)}
	for k := range g.first {
		g.first[k], g.last[k] = -1, -1
	}
	return g
}

// Streams returns the number of stream slots; Launch takes one stream per
// slot.
func (g *Graph) Streams() int { return len(g.first) }

// add appends a node on stream after its stream predecessor and deps
// (earlier node ids, in wait order) and returns its id.
func (g *Graph) add(n graphNode, stream int, deps []int32) int32 {
	id := int32(len(g.nodes))
	n.ev, n.stream = -1, uint8(stream)
	g.nodes = append(g.nodes, n)
	g.predOff = append(g.predOff, int32(len(g.pred)))
	if p := g.last[stream]; p >= 0 {
		g.pred = append(g.pred, p)
	}
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("cudart: graph node %d depends on node %d", id, d))
		}
		g.pred = append(g.pred, d)
	}
	g.count = append(g.count, int32(len(g.pred))-g.predOff[id])
	if g.first[stream] < 0 {
		g.first[stream] = id
	}
	g.last[stream] = id
	return id
}

// AddTransfer appends a transfer of bytes in direction dir on stream.
func (g *Graph) AddTransfer(stream int, dir machine.LinkDir, bytes int64, deps []int32) int32 {
	return g.add(graphNode{bytes: bytes, kind: gTransfer, dir: dir}, stream, deps)
}

// AddKernel appends a kernel of the given duration on stream; name indexes
// the graph's name table.
func (g *Graph) AddKernel(stream int, name uint8, dur float64, deps []int32) int32 {
	return g.add(graphNode{dur: dur, kind: gKernel, name: name}, stream, deps)
}

// TailWait leaves node's completion as a pending wait on stream after the
// graph is launched, as a WaitEvent issued after the last node would.
func (g *Graph) TailWait(stream int, node int32) {
	g.tails[stream] = append(g.tails[stream], node)
}

// Seal builds the successor lists and the boundary-event table. The graph
// must not be modified afterwards.
func (g *Graph) Seal() {
	n := len(g.nodes)
	g.predOff = append(g.predOff, int32(len(g.pred)))
	g.succOff = make([]int32, n+1)
	for _, p := range g.pred {
		g.succOff[p+1]++
	}
	for i := 0; i < n; i++ {
		g.succOff[i+1] += g.succOff[i]
	}
	// Filling in node order keeps every node's successors in node order,
	// and a successor's repeated entries in its own predecessor order.
	pos := append([]int32(nil), g.succOff[:n]...)
	g.succ = make([]int32, len(g.pred))
	for i := 0; i < n; i++ {
		for _, p := range g.pred[g.predOff[i]:g.predOff[i+1]] {
			g.succ[pos[p]] = int32(i)
			pos[p]++
		}
	}
	g.pred, g.predOff = nil, nil

	mark := func(i int32) {
		if g.nodes[i].ev < 0 {
			g.nodes[i].ev = int32(g.events)
			g.events++
		}
	}
	for k := range g.last {
		if g.last[k] >= 0 {
			mark(g.last[k])
			g.starts = append(g.starts, g.first[k])
		}
		for _, i := range g.tails[k] {
			mark(i)
		}
	}
	for i := 1; i < len(g.starts); i++ { // at most one entry per stream slot
		for j := i; j > 0 && g.starts[j] < g.starts[j-1]; j-- {
			g.starts[j], g.starts[j-1] = g.starts[j-1], g.starts[j]
		}
	}
}

// KernelSeconds sums the kernel durations in node order.
func (g *Graph) KernelSeconds() float64 {
	sum := 0.0
	for i := range g.nodes {
		if g.nodes[i].kind == gKernel {
			sum += g.nodes[i].dur
		}
	}
	return sum
}

// nodeQueue is a FIFO of node indices over a reusable backing array.
type nodeQueue struct {
	q    []int32
	head int
}

//cocolint:hotpath
func (f *nodeQueue) push(i int32) {
	//lint:ignore hotpath the queue compacts to length zero whenever it drains; the backing array grows only to the deepest backlog
	f.q = append(f.q, i)
}

//cocolint:hotpath
func (f *nodeQueue) pop() int32 {
	i := f.q[f.head]
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return i
}

func (f *nodeQueue) reset() { f.q, f.head = f.q[:0], 0 }

// binding is the functional side of one node of a backed launch: the host
// window of a transfer (win.buf != nil) or the payload of a kernel
// (pay.out().Buf != nil).
type binding struct {
	win window
	pay Payload
}

// GraphExec is the reusable state of one graph launch: the per-node
// dependency counters, the per-engine completion FIFOs, the boundary
// events and, on backed launches, the per-node host windows and payloads.
// The zero value is ready to use. One GraphExec runs one launch at a time
// (see Idle); launching allocates nothing once its scratch has grown to the
// largest graph it has run.
type GraphExec struct {
	rt     *Runtime
	g      *Graph
	epoch  uint64
	count  []int32
	live   int // nodes launched into this state and not yet completed
	backed bool
	events []*Event
	link   [2]nodeQueue
	comp   nodeQueue
	start  nodeQueue
	bind   []binding

	// Cached callbacks, created once per GraphExec: the per-engine
	// completions, the kernel payload runner, the zero-dependency start and
	// the per-stream bridges from a stream's prior work to its first node.
	linkDone [2]func()
	compDone func()
	payload  func()
	startFn  func()
	extFn    []func()
}

// Idle reports whether the state can take a new launch: its last launch
// has completed or its runtime has been Reset since.
func (x *GraphExec) Idle() bool {
	return x.rt == nil || x.live == 0 || x.epoch != x.rt.epoch
}

// Bind starts the binding of a backed launch of g: it sizes and clears the
// per-node windows and payloads that BindWindow and BindPayload fill.
func (x *GraphExec) Bind(g *Graph) {
	n := len(g.nodes)
	if cap(x.bind) < n {
		x.bind = make([]binding, n)
	}
	x.bind = x.bind[:n]
	clear(x.bind)
}

// BindWindow attaches a host window to transfer node i through device
// buffer buf. As with the dynamic path, only a window whose buffer and
// host side both carry data moves anything.
func (x *GraphExec) BindWindow(i int32, buf *DevBuffer, w *Window) {
	if needsWindow(buf, w.F64, w.F32) {
		x.bind[i].win = window{Window: *w, buf: buf}
	}
}

// BindPayload attaches a payload to kernel node i; it runs only when its
// output buffer is backed.
func (x *GraphExec) BindPayload(i int32, p *Payload) {
	if p.out().Buf.Backed() {
		x.bind[i].pay = *p
	}
}

// init creates the cached callbacks, with one stream bridge per slot up to
// streams.
func (x *GraphExec) init(streams int) {
	if x.compDone == nil {
		x.linkDone[machine.H2D] = func() { x.transferDone(machine.H2D) }
		x.linkDone[machine.D2H] = func() { x.transferDone(machine.D2H) }
		x.compDone = x.kernelDone
		x.payload = x.runPayload
		x.startFn = x.startNode
	}
	for k := len(x.extFn); k < streams; k++ {
		x.extFn = append(x.extFn, func() { x.release(x.g.first[k]) })
	}
}

// Launch enqueues g onto streams s (at least one per graph stream slot,
// all on one runtime), after the work already submitted to them. backed
// launches use the windows and payloads bound since the last Bind;
// timing-only launches move no data. The state must be Idle.
//
//cocolint:hotpath
func (x *GraphExec) Launch(g *Graph, s []*Stream, backed bool) {
	if x.compDone == nil || len(x.extFn) < len(g.first) {
		//lint:ignore hotpath the cached callbacks are created once per launch state and stream slot
		x.init(len(g.first))
	}
	rt := s[0].rt
	x.rt, x.g, x.epoch, x.backed = rt, g, rt.epoch, backed
	n := len(g.nodes)
	if cap(x.count) < n {
		//lint:ignore hotpath grow-once scratch: reallocated only for a graph larger than any before it
		x.count = make([]int32, n)
	}
	x.count = x.count[:n]
	copy(x.count, g.count)
	x.live = n
	rt.outstanding += n
	x.link[machine.H2D].reset()
	x.link[machine.D2H].reset()
	x.comp.reset()
	x.start.reset()
	x.events = x.events[:0]
	for e := 0; e < g.events; e++ {
		//lint:ignore hotpath events reuses its backing array; it grows only to the most boundary nodes of any graph launched here
		x.events = append(x.events, rt.allocEvent())
	}

	// Boundary in: the first node on each stream waits on the stream's
	// tail and pending waits, registered in node order, as Stream.enqueue
	// would register them.
	for _, f := range g.starts {
		k := int(g.nodes[f].stream)
		st := s[k]
		var bridge *op
		bridge = x.waitOn(bridge, k, st.tail)
		for _, w := range st.waits {
			bridge = x.waitOn(bridge, k, w)
		}
		st.waits = st.waits[:0]
		if bridge != nil {
			x.count[f]++
		}
	}
	// A node with nothing to wait for is deferred through the engine, in
	// node order, as Stream.enqueue defers it.
	eng := rt.Engine()
	for _, i := range g.starts {
		if x.count[i] == 0 {
			x.start.push(i)
			eng.After(0, x.startFn)
		}
	}
	// Boundary out: the streams' last nodes become their tails, and the
	// tail-wait nodes stay pending on their streams.
	for k, l := range g.last {
		if l >= 0 {
			s[k].tail = x.events[g.nodes[l].ev]
		}
	}
	for k, tails := range g.tails {
		for _, i := range tails {
			s[k].WaitEvent(x.events[g.nodes[i].ev])
		}
	}
}

// waitOn registers the bridge of stream k's first node as a waiter of e,
// creating the bridge on the first incomplete event, and returns it.
//
//cocolint:hotpath
func (x *GraphExec) waitOn(bridge *op, k int, e *Event) *op {
	if e == nil || e.done {
		return bridge
	}
	if bridge == nil {
		bridge = x.rt.allocBridge(x.extFn[k])
	}
	addWaiter(e, bridge)
	bridge.deps++
	return bridge
}

// release satisfies one dependency of node i, launching it at zero.
//
//cocolint:hotpath
func (x *GraphExec) release(i int32) {
	x.count[i]--
	if x.count[i] == 0 {
		x.launch(i)
	}
}

// startNode launches the next zero-dependency node.
//
//cocolint:hotpath
func (x *GraphExec) startNode() { x.launch(x.start.pop()) }

// launch hands a ready node to its engine.
//
//cocolint:hotpath
func (x *GraphExec) launch(i int32) {
	n := &x.g.nodes[i]
	if n.kind == gKernel {
		x.comp.push(i)
		var payload func()
		if x.backed && x.bind[i].pay.out().Buf != nil {
			payload = x.payload
		}
		x.rt.dev.LaunchKernel(x.g.names[n.name], n.dur, payload, x.compDone)
		return
	}
	x.link[n.dir].push(i)
	x.rt.dev.Link().Submit(n.dir, n.bytes, x.linkDone[n.dir])
}

// transferDone completes the oldest in-flight transfer of direction dir,
// moving its window's data first, as the dynamic op's hwComplete does.
//
//cocolint:hotpath
func (x *GraphExec) transferDone(dir machine.LinkDir) {
	i := x.link[dir].pop()
	if x.backed {
		if b := &x.bind[i]; b.win.buf != nil {
			b.win.copy(dir)
			b.win = window{}
		}
	}
	x.complete(i)
}

// runPayload runs the payload of the kernel completing on the compute
// engine: the head of the compute FIFO, which kernelDone pops right after.
//
//cocolint:hotpath
func (x *GraphExec) runPayload() {
	b := &x.bind[x.comp.q[x.comp.head]]
	x.rt.runPayload(&b.pay)
	b.pay = Payload{}
}

// kernelDone completes the oldest in-flight kernel.
//
//cocolint:hotpath
func (x *GraphExec) kernelDone() { x.complete(x.comp.pop()) }

// complete retires node i: its successors are released in CSR order, then
// its boundary event (if any) fires for the waiters registered after the
// launch.
//
//cocolint:hotpath
func (x *GraphExec) complete(i int32) {
	x.rt.outstanding--
	x.live--
	g := x.g
	for _, s := range g.succ[g.succOff[i]:g.succOff[i+1]] {
		x.release(s)
	}
	if e := g.nodes[i].ev; e >= 0 {
		fire(x.events[e])
	}
}
