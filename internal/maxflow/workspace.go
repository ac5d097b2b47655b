package maxflow

import "math"

// Workspace holds the scratch state of the float64 Dinic solver — the
// per-node layering/DFS state, the touched-arc list and one reusable
// Network — so a caller evaluating thousands of flows (the throughput
// functional sits under every solver) reaches a steady state with zero
// allocations per evaluation. The zero value is ready to use.
//
// A Workspace is not safe for concurrent use; pool one per goroutine
// (internal/engine owns such a pool).
type Workspace struct {
	nodes     []node  // per-node Dinic state, one allocation
	epoch     uint32  // current phase stamp; nodes stamped otherwise are unlabelled
	touched   []int32 // arcs pushed on since the last restore (twins implied)
	spilled   bool    // touched ran out of room: restore copies every arc
	net       Network
	grows     int64
	flowEvals int64
}

// node is one node's per-phase Dinic state. The fields share one slice
// so the scratch is a single allocation; queue is the BFS queue, indexed
// by queue position rather than by node.
type node struct {
	stamp uint32 // phase in which dist and iter were set
	dist  int32  // residual distance to t; -1 once retired this phase
	iter  int32  // DFS resume position (global arc index)
	queue int32  // BFS queue slot
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Prealloc grows the per-node scratch to serve networks of up to n
// nodes without further reallocation. Like core.Workspace.Prealloc this
// is a deliberate sizing hint, not scratch churn, so it does not count
// toward Grows.
func (w *Workspace) Prealloc(n int) {
	if w == nil || n <= 0 {
		return
	}
	if cap(w.nodes) < n {
		w.nodes = make([]node, 0, n)
	}
}

// scratch returns the per-node state resized to n, reallocating only on
// growth. Fresh or stale entries carry stamps older than the next epoch.
func (w *Workspace) scratch(n int) []node {
	if cap(w.nodes) < n {
		w.nodes = make([]node, n)
		w.grows++
	}
	w.nodes = w.nodes[:n]
	return w.nodes
}

// nextEpoch starts a phase. On uint32 wrap-around every stamp is
// cleared, so no label from four billion phases ago can match.
func (w *Workspace) nextEpoch() uint32 {
	w.epoch++
	if w.epoch == 0 {
		all := w.nodes[:cap(w.nodes)]
		for i := range all {
			all[i].stamp = 0
		}
		w.epoch = 1
	}
	return w.epoch
}

// touch records that the DFS pushed flow on arc ai (and its twin). The
// list never grows past its reservation: once full, the next restore
// falls back to copying every arc.
func (w *Workspace) touch(ai int32) {
	if len(w.touched) < cap(w.touched) {
		w.touched = append(w.touched, ai)
	} else {
		w.spilled = true
	}
}

// track empties the touched list, reserving room for one record per
// edge of g (the point where a full copy is as cheap as replaying it).
func (w *Workspace) track(g *Network) {
	if m := len(g.cap) / 2; cap(w.touched) < m {
		w.touched = make([]int32, 0, m)
		w.grows++
	}
	w.touched, w.spilled = w.touched[:0], false
}

// restore puts back the original capacity of every arc pushed on since
// track (or the previous restore), then empties the list.
func (w *Workspace) restore(g *Network) {
	if w.spilled {
		copy(g.cap, g.init)
	} else {
		for _, ai := range w.touched {
			r := g.rev[ai]
			g.cap[ai], g.cap[r] = g.init[ai], g.init[r]
		}
	}
	w.touched, w.spilled = w.touched[:0], false
}

// Network returns the workspace's reusable network reset to n empty
// nodes. The raw edge list and CSR arrays keep their backing storage
// across calls, so rebuilding a similarly-shaped network allocates
// nothing once warm. The returned network aliases the workspace: it is
// only valid until the next Network call and must not be retained.
func (w *Workspace) Network(n int) *Network {
	net := &w.net
	net.n = n
	net.rawFrom = net.rawFrom[:0]
	net.rawTo = net.rawTo[:0]
	net.rawCap = net.rawCap[:0]
	net.built = false
	return net
}

// Max computes the maximum s-t flow on g using the workspace's scratch.
// Like Network.Max it consumes g's residual capacities (Reset restores
// them).
func (w *Workspace) Max(g *Network, s, t int) float64 {
	w.flowEvals++
	g.dirty = true
	return g.maxBounded(s, t, math.Inf(1), w)
}

// MinFromSource returns min over targets of maxflow(s→target), the
// paper's throughput functional, with three evaluation-loop savings
// over the naive form:
//
//   - per-target Clone is replaced by an in-place restore of only the
//     arcs the previous query pushed flow on (nothing at all after a
//     query that pushed no flow);
//   - the per-node scratch is reused across targets (and across calls);
//   - each target's Dinic stops early once its flow reaches the running
//     minimum (a flow that provably meets the current min cannot lower
//     it, so its exact value is irrelevant).
//
// Targets equal to s are skipped; g is left with its original
// capacities.
func (w *Workspace) MinFromSource(g *Network, s int, targets []int) float64 {
	return w.MinFromSourceCapped(g, s, targets, math.Inf(1))
}

// MinFromSourceCapped is MinFromSource with the running minimum seeded
// at cap instead of +Inf, returning min(cap, min_t maxflow(s→t)). A
// caller verifying a *claimed* functional value (the repair path, which
// already knows the throughput its scheme was shaved to) can cap every
// per-target query at the claim: each Dinic run stops the moment it
// proves flow ≥ cap — including the first, which an uncapped evaluation
// always runs to exhaustion. Any return value strictly below cap was
// reached by exhausting a target and is the exact minimum.
func (w *Workspace) MinFromSourceCapped(g *Network, s int, targets []int, cap float64) float64 {
	g.finalize()
	if g.dirty {
		g.Reset()
	}
	w.track(g)
	minFlow := cap
	for _, t := range targets {
		if t == s {
			continue
		}
		w.flowEvals++
		f := g.maxBounded(s, t, minFlow, w)
		w.restore(g)
		if f < minFlow {
			minFlow = f
		}
	}
	if math.IsInf(minFlow, 1) {
		return 0
	}
	return minFlow
}

// FlowEvals returns the number of s-t flow queries answered so far.
func (w *Workspace) FlowEvals() int64 { return w.flowEvals }

// Grows returns how many times scratch storage had to (re)allocate —
// zero growth across a steady-state run is what "zero-allocation
// pipeline" means, and the engine surfaces this counter per solve. The
// reusable network's raw-edge and CSR backing arrays count too, and so
// does the touched-arc list.
func (w *Workspace) Grows() int64 { return w.grows + w.net.grows }
