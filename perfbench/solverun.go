package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// An end-to-end run is a number of rounds, each running one slice of
// every phase: the two fixed rates, the closed loop and one capacity
// step. Every metric pools its slices from across the whole run, so a
// few seconds in which the shared machine runs slow touch every metric
// a little rather than one of them a lot.
const rounds = 10

// Shares of a round given to each phase's slice.
const (
	lowShare  = 0.25
	highShare = 0.15
	satShare  = 0.25
	rampShare = 0.35
)

// solveE2E is the end-to-end run of a /v1/solve workload: latency at
// the two fixed rates, the closed-loop rate, and the capacity ramp.
func solveE2E(ctx context.Context, spec solveSpec, seed int64, budget time.Duration) (result, error) {
	var res result
	var setups setupClock
	var b *solveBench
	for k := 0; k < setupRepeats; k++ {
		setups.start()
		nb, err := newSolveBench(ctx, spec, seed, nil, nil)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups.stop()
		if k < setupRepeats-1 {
			if err := nb.close(); err != nil {
				return res, err
			}
		} else {
			b = nb
		}
	}
	setups.report(&res)
	c0, s0 := b.e.srv.CacheStats(), b.e.srv.StoreStats()
	lo := b.cursor

	round := budget / rounds
	var low, high, sat phase
	// Per slice of each phase: its median latency and the machine's CPU
	// steal while it ran, in percent; and the closed loop's rate. The
	// metrics are medians over the run's slices, so a slice that a burst
	// of stolen CPU caught counts as one of ten; p50_ms.closed keeps
	// only the half of its slices with the least steal (see quietMedian).
	p50s := make(map[string][]float64)
	steals := make(map[string][]float64)
	var satRates []float64
	var err error
	slice := func(into *phase, name string, rate float64, share float64) {
		if err != nil {
			return
		}
		var p phase
		// Every slice starts from a collected heap, so none pays for
		// the garbage the one before it left.
		runtime.GC()
		st0, tot0 := cpuSteal()
		if p, err = b.measure(ctx, name, rate, seconds(round, share)); err != nil {
			return
		}
		steals[name] = append(steals[name], stealSince(st0, tot0))
		p50s[name] = append(p50s[name], p.P50().Ms())
		into.merge(p)
		if rate == 0 {
			satRates = append(satRates, p.Throughput())
		}
	}
	var rp *ramp
	for k := 0; k < rounds && err == nil; k++ {
		slice(&low, "low", spec.low, lowShare)
		slice(&high, "high", spec.high, highShare)
		slice(&sat, "saturate", 0, satShare)
		if err != nil {
			break
		}
		if rp == nil {
			// The first round's closed loop anchors the capacity ramp.
			rp = newRamp(rampStart*sat.Throughput(), rampFactor)
		}
		rate := rp.next()
		var step phase
		slice(&step, "ramp", rate, rampShare)
		if err == nil {
			step.report(spec.limit)
			rp.observe(rate, step.score(spec.limit))
		}
	}
	if err != nil {
		return res, errors.Join(err, b.close())
	}
	low.report(spec.limit)
	high.report(spec.limit)
	sat.report(0)
	for _, name := range []string{"low", "high", "saturate"} {
		list := make([]string, len(p50s[name]))
		for k, v := range p50s[name] {
			list[k] = fmt.Sprintf("%.3f (%.1f%%)", v, steals[name][k])
		}
		fmt.Printf("  %s slices, p50 ms (cpu steal): %s\n", name, strings.Join(list, " "))
	}
	closedP50 := quietMedian(p50s["saturate"], steals["saturate"])
	fmt.Printf("  p50_ms.closed = %.3f ms, the median over the %d of %d closed-loop slices with the least steal\n",
		closedP50, quietHalf(len(p50s["saturate"])), len(p50s["saturate"]))
	fmt.Printf("  plans_per_s = %.1f/s, the closed loop's median over %d slices (reported, not gated)\n",
		medianFloat(satRates), len(satRates))
	capRate := rp.capacity()
	fmt.Printf("  capacity_rps = %.1f/s within p99 ≤ %.0fms, from %d ramp steps (reported, not gated)\n", capRate, ms(spec.limit), len(rp.steps))
	fmt.Printf("  cpu: %.3fs over %d answers in the measured phases\n", b.cpu.Seconds(), b.cpuPlans)
	b.intended(lo, b.cursor)
	sharesBetween(b.cursor-lo, c0, b.e.srv.CacheStats(), s0, b.e.srv.StoreStats()).print()
	rss, err := peakRSSMB()
	if err != nil {
		return res, errors.Join(err, b.close())
	}
	if err := b.close(); err != nil {
		return res, err
	}

	printUngated(&low, &high, medianFloat(p50s["low"]), medianFloat(p50s["high"]))
	res.set("p50_ms.closed", closedP50, "ms")
	res.set("cpu_ms_per_plan", ms(b.cpu)/float64(max(b.cpuPlans, 1)), "ms")
	res.set("peak_rss_mb", rss, "MB")
	finishResult(&res, b.attempted, b.failed, b.firstErr)
	return res, nil
}

// printUngated prints the latencies that are reported but not gated:
// the medians and the tails at both rates, the medians as medians over
// the slices. From run to run on a shared 2-vCPU machine they move with
// the CPU time the hypervisor gives other guests by more than the
// largest bound a gated metric may have (see README.md).
func printUngated(low, high *phase, lowP50, highP50 float64) {
	fmt.Printf("  p50_ms.low = %.3f ms (reported, not gated)\n", lowP50)
	fmt.Printf("  p50_ms.high = %.3f ms (reported, not gated)\n", highP50)
	for _, p := range []*phase{low, high} {
		if t, ok := p.P99(); ok {
			fmt.Printf("  p99_ms.%s = %.3f ms (p%.2f, n=%d; reported, not gated)\n", p.Name, t.Ms(), t.Q, t.N)
		} else {
			fmt.Printf("  p99_ms.%s: too few samples (n=%d)\n", p.Name, p.Sent)
		}
	}
}

// seconds is a share of the run's budget.
func seconds(budget time.Duration, share float64) time.Duration {
	return time.Duration(float64(budget) * share)
}

// Shares of a traced run's seconds: an untraced sequential phase, then
// the traced one.
const (
	untracedShare = 0.3
	tracedShare   = 0.5
)

// layerSumLimit is how far, in percent, the layers' self times at the
// traced median may add up away from it. It is checked where every
// request takes the same path; with a store, requests split between
// the warm, cold and hit tiers, and medians of a mixture need not add.
const layerSumLimit = 10

// solveTrace is the traced run of a /v1/solve workload. It sends one
// request at a time: untraced first, then traced, each traced request
// followed by its in-process replay. Counts come from the server's
// cache and store counters, read around every request.
func solveTrace(ctx context.Context, spec solveSpec, seed int64, budget time.Duration) (result, error) {
	var res result
	t := newTracer()
	shadowDir := ""
	if spec.store {
		dir, err := os.MkdirTemp("", "perfbench-shadow-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		shadowDir = dir
	}
	sh, err := newShadow(t, shadowDir)
	if err != nil {
		return res, err
	}
	defer sh.close()
	b, err := newSolveBench(ctx, spec, seed, t, sh)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	tc := &tierCounter{b: b}
	c0, s0 := b.e.srv.CacheStats(), b.e.srv.StoreStats()

	// Untraced, one sender, so the server sees the stream in order and
	// the shadow can follow it afterwards: first open loop at the
	// workload's low rate (the generator's lateness), then closed loop
	// (the baseline of trace.overhead_pct, shaped like the traced loop).
	first := b.cursor
	lo := first
	u, err := b.open("untraced", spec.low, seconds(budget, untracedShare/2), 1, tc.send)
	if err != nil {
		return res, errors.Join(err, b.close())
	}
	u.report(0)
	tc.replayPhase(ctx, &u, lo)
	lo = b.cursor
	seq, err := b.closed("sequential", seconds(budget, untracedShare/2), 1, tc.send)
	if err != nil {
		return res, errors.Join(err, b.close())
	}
	seq.report(0)
	tc.replayPhase(ctx, &seq, lo)

	// Traced, closed loop, one request at a time.
	var roots []time.Duration
	stop := time.Now().Add(seconds(budget, tracedShare))
	lo = b.cursor
	for time.Now().Before(stop) {
		g := b.cursor
		if err := b.grow(g + 1); err != nil {
			return res, errors.Join(err, b.close())
		}
		t.setOn(true)
		root := t.startRequest(g, "client.SolveRaw")
		start := time.Now()
		err := tc.send(g)
		roots = append(roots, time.Since(start))
		t.end(root)
		if err == nil {
			err = tc.replay(ctx, g, t.get(&t.handler))
		}
		t.setOn(false)
		b.cursor++
		b.attempted++
		if err != nil {
			b.failed++
			b.noteErr(fmt.Errorf("traced request %d: %w", g, err))
		}
	}
	if wrong := b.validate(ctx, lo, b.cursor); wrong > 0 {
		b.failed += wrong
	}
	ts := sharesBetween(b.cursor-first, c0, b.e.srv.CacheStats(), s0, b.e.srv.StoreStats())
	st := b.e.srv.StoreStats()
	cs := b.e.srv.CacheStats()
	if err := b.close(); err != nil {
		return res, err
	}
	traced := sortedCopy(roots)
	tracedP50 := percentile(traced, 50)
	untracedP50 := percentile(seq.Svc, 50)
	fmt.Printf("  traced: %d requests, p50=%.3fms; untraced p50=%.3fms (n=%d)\n",
		len(traced), tracedP50.Ms(), untracedP50.Ms(), untracedP50.N)
	ts.print()

	if err := layerMetrics(&res, t, tracedP50); err != nil {
		return res, err
	}
	gap := res.Metrics["trace.layer_sum_gap_pct"].Value
	if !spec.store && math.Abs(gap) > layerSumLimit {
		b.noteErr(fmt.Errorf("layer self times add up %.1f%% away from the traced p50 (limit %d%%)", gap, layerSumLimit))
	}
	res.set("trace.p50_ms", tracedP50.Ms(), "ms")
	res.set("trace.overhead_pct", 100*(tracedP50.Ms()-untracedP50.Ms())/untracedP50.Ms(), "%")
	res.set("bench.late_p99_ms", lateP99(u.Lag), "ms")
	res.set("service.front_hit_ratio", ratio(tc.front, tc.requests), "ratio")
	fmt.Printf("  front-cache hits: %d of %d requests\n", tc.front, tc.requests)
	res.set("engine.hit_ratio", ratio(cs.Hits-c0.Hits, cs.Hits-c0.Hits+cs.Misses-c0.Misses), "ratio")
	res.set("engine.evictions", float64(cs.Evictions-c0.Evictions), "count")
	fmt.Printf("  engine cache: %d hits of %d lookups, %d evictions\n",
		cs.Hits-c0.Hits, cs.Hits-c0.Hits+cs.Misses-c0.Misses, cs.Evictions-c0.Evictions)
	warmTries := (st.WarmHits - s0.WarmHits) + (st.Fallbacks - s0.Fallbacks)
	res.set("planstore.warm_held_ratio", ratio(st.WarmHits-s0.WarmHits, warmTries), "ratio")
	res.set("planstore.appends", float64(st.Entries-s0.Entries), "count")
	res.set("planstore.log_bytes", float64(st.Bytes), "bytes")
	res.set("planstore.sigs", float64(st.Entries), "count")
	fmt.Printf("  plan store: warm held %d of %d attempts, %d appends, log %d bytes, %d signatures\n",
		st.WarmHits-s0.WarmHits, warmTries, st.Entries-s0.Entries, st.Bytes, st.Entries)
	res.set("tier.hit_share", ts.share(ts.hits), "ratio")
	res.set("tier.warm_share", ts.share(ts.warm), "ratio")
	res.set("tier.miss_share", ts.share(ts.colds+ts.fallbacks), "ratio")
	shadowCounts(&res, sh)
	setJobMetrics(&res, nil)
	if err := writeSpans(t, spec.name, seed); err != nil {
		return res, err
	}
	finishResult(&res, b.attempted, b.failed, b.firstErr)
	return res, nil
}

// lateP99 is the generator's lateness at the tail percentile, or its
// worst case when the phase is too short for one.
func lateP99(lag []time.Duration) float64 {
	if p, ok := tail(lag, 99); ok {
		return p.Ms()
	}
	return percentile(lag, 100).Ms()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// tierCounter classifies each request of a sequential phase by the
// server's counters read around it, and replays it in the shadow.
type tierCounter struct {
	b        *solveBench
	requests int64
	front    int64 // hits the front-cache model predicted
	hit      map[int]bool
}

// send issues one request between two counter reads.
func (tc *tierCounter) send(g int) error {
	srv := tc.b.e.srv
	c0 := srv.CacheStats()
	err := tc.b.send(g)
	c1 := srv.CacheStats()
	if tc.hit == nil {
		tc.hit = make(map[int]bool)
	}
	tc.hit[g] = c1.Hits-c0.Hits == 1 && c1.Misses == c0.Misses
	return err
}

// replay runs request g through the shadow and checks it against both
// the served bytes and the server's counters.
func (tc *tierCounter) replay(ctx context.Context, g int, parent int) error {
	b := tc.b
	out := b.outs[g]
	if b.hotOut != nil {
		out = b.hotOut[b.picks[g]]
	}
	if out == nil {
		return fmt.Errorf("request %d has no answer to replay", g)
	}
	got, frontHit, err := b.sh.serveRequest(ctx, b.reqs[g], parent)
	if err != nil {
		return fmt.Errorf("replay of request %d: %w", g, err)
	}
	if string(got) != string(out) {
		return errMismatch(g)
	}
	tc.requests++
	if frontHit {
		if !tc.hit[g] {
			return fmt.Errorf("request %d: the front-cache model predicts a hit the server did not count", g)
		}
		tc.front++
	}
	return nil
}

// replayPhase replays an untraced phase's requests in order, then
// validates its answers.
func (tc *tierCounter) replayPhase(ctx context.Context, p *phase, lo int) {
	b := tc.b
	for g := lo; g < lo+p.Sent; g++ {
		if err := tc.replay(ctx, g, 0); err != nil {
			b.noteErr(err)
			b.failed++
		}
	}
	b.finish(ctx, p, lo)
}

// timeLayers are the per-layer self-time metrics, in the order the
// service calls them.
var timeLayers = []string{
	"client.encode_us", "transport.self_us", "service.self_us",
	"wire.decode_us", "engine.self_us", "wire.key_us",
	"planstore.rendered_us", "planstore.neighbor_us",
	"core.solve_us", "core.repair_us", "maxflow.verify_us",
	"wire.encode_plan_us", "planstore.persist_us",
}

// layerMetrics derives the per-layer self times from the spans and the
// layer-sum gap against the traced median.
func layerMetrics(res *result, t *tracer, tracedP50 Pct) error {
	spans := t.snapshot()
	byLayer, err := layerSelf(spans)
	if err != nil {
		return err
	}
	mid, n := atMedian(spans, byLayer)
	sum := time.Duration(0)
	fmt.Printf("  layer self times: median over the requests that reach the layer; median over the %d requests at the traced median\n", n)
	for _, name := range timeLayers {
		us, reached := layerP50(byLayer[name])
		res.set(name, us, "us")
		sum += mid[name]
		fmt.Printf("    %-24s %10.1fus (n=%d)  %10.1fus at the median\n", name, us, reached, float64(mid[name])/float64(time.Microsecond))
	}
	gap := 100 * (float64(sum) - float64(tracedP50.Value)) / float64(tracedP50.Value)
	fmt.Printf("  the layers at the median add up to %.1fus against a traced p50 of %.1fus: gap %.2f%%\n",
		float64(sum)/float64(time.Microsecond), tracedP50.Ms()*1000, gap)
	res.set("trace.layer_sum_gap_pct", gap, "%")
	return nil
}

// shadowCounts reports the counts gathered on the replayed calls.
func shadowCounts(res *result, sh *shadow) {
	res.set("maxflow.verify_targets", ratio(sh.verifyTargets, sh.verifies), "count")
	res.set("core.greedy_tests", ratio(sh.greedyTests, sh.solves), "count")
	res.set("core.word_evals", ratio(sh.wordEvals, sh.solves), "count")
	res.set("wire.resp_bytes", ratio(sh.respBytes, sh.responses), "bytes")
	fmt.Printf("  replayed: %d verifies (%.0f targets each), %d solves (%.1f greedy tests, %.1f word evals each), %d answers of %.0f bytes\n",
		sh.verifies, ratio(sh.verifyTargets, sh.verifies), sh.solves, ratio(sh.greedyTests, sh.solves),
		ratio(sh.wordEvals, sh.solves), sh.responses, ratio(sh.respBytes, sh.responses))
}

// writeSpans writes the run's spans under .bench_build/traces.
func writeSpans(t *tracer, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	fmt.Printf("  spans: %s\n", path)
	return t.writeJSONL(path)
}
