package maxflow

import "math"

// This file keeps the forward-layered Dinic kernel the package shipped
// before backward layering, as a test-only reference. It labels every
// node by its residual distance from s (BFS truncated once t is
// labelled), resets the whole level/iter scratch every phase and
// restores the network with a full copy(cap, init) between targets.
// The production kernel must agree with it to the last bit.

// refScratch is the reference kernel's per-query scratch.
type refScratch struct {
	level, iter, queue []int
}

// refInts resizes *p to n, reallocating only on growth.
func refInts(p *[]int, n int) []int {
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return *p
}

// refMaxBounded is the reference bounded Dinic: forward BFS layering
// truncated at t, dead-node retirement, arcs into t's level skipped
// unless they hit t.
func refMaxBounded(g *Network, s, t int, bound float64, r *refScratch) float64 {
	if s == t {
		return math.Inf(1)
	}
	if bound <= 0 {
		return 0
	}
	g.finalize()
	level := refInts(&r.level, g.n)
	iter := refInts(&r.iter, g.n)
	queue := refInts(&r.queue, g.n)[:0]
	var total float64
	for {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, s)
		level[s] = 0
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			lv := level[v] + 1
			for ai := g.start[v]; ai < g.start[v+1]; ai++ {
				to := g.to[ai]
				if g.cap[ai] > Eps && level[to] < 0 {
					level[to] = lv
					if int(to) == t {
						break bfs
					}
					queue = append(queue, int(to))
				}
			}
		}
		if level[t] < 0 {
			return total
		}
		for i := range iter {
			iter[i] = int(g.start[i])
		}
		for {
			f := refDFS(g, s, t, level[t], math.Inf(1), level, iter)
			if f <= Eps {
				break
			}
			total += f
			if total >= bound {
				return total
			}
		}
	}
}

func refDFS(g *Network, v, t, tl int, f float64, level, iter []int) float64 {
	if v == t {
		return f
	}
	lv := level[v] + 1
	end := int(g.start[v+1])
	for ; iter[v] < end; iter[v]++ {
		ai := iter[v]
		to := int(g.to[ai])
		if g.cap[ai] <= Eps || level[to] != lv || (lv == tl && to != t) {
			continue
		}
		d := refDFS(g, to, t, tl, math.Min(f, g.cap[ai]), level, iter)
		if d > Eps {
			g.cap[ai] -= d
			g.cap[g.rev[ai]] += d
			return d
		}
	}
	level[v] = -1
	return 0
}

// refMax is the reference unbounded s-t max flow; it consumes g's
// residual capacities like Network.Max.
func refMax(g *Network, s, t int) float64 {
	var r refScratch
	return refMaxBounded(g, s, t, math.Inf(1), &r)
}

// refMinFromSourceCapped is the reference throughput functional: the
// running minimum seeded at cap, each target bounded by it, and a full
// copy(cap, init) restore after every query that pushed flow.
func refMinFromSourceCapped(g *Network, s int, targets []int, cap float64) float64 {
	var r refScratch
	minFlow := cap
	consumed := false
	for _, t := range targets {
		if t == s {
			continue
		}
		if consumed {
			g.Reset()
		}
		f := refMaxBounded(g, s, t, minFlow, &r)
		consumed = f > 0
		if f < minFlow {
			minFlow = f
		}
	}
	if consumed {
		g.Reset()
	}
	if math.IsInf(minFlow, 1) {
		return 0
	}
	return minFlow
}

// Exported to the external test package (bitident_test.go), which
// builds networks from solver schemes and so cannot live inside
// package maxflow without an import cycle.
var (
	RefMax                 = refMax
	RefMinFromSourceCapped = refMinFromSourceCapped
	SetEpochForTest        = func(w *Workspace, e uint32) { w.epoch = e }
)
