package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

// batchPool is how many distinct jobs a batch-large run draws in set-up.
const batchPool = 160

// batchBench drives batch-large: each job is submitted to /v1/jobs and
// drained from its NDJSON stream.
type batchBench struct {
	seed   int64
	e      *env
	rng    *rand.Rand
	jobs   [][]engine.Request
	cursor int // next unsent job

	attempted, failed int
	firstErr          error

	// Process CPU time spent in the measured phases and the plans they
	// got, for cpu_ms_per_plan.
	cpu      time.Duration
	cpuPlans int

	// Each job sent with one in flight: its latency in ms and the CPU
	// steal while it ran, in percent, for p50_ms.closed.
	soloMs, soloSteal []float64

	mu     sync.Mutex // guards the fields below against the two senders
	plans  map[int][]wire.Plan
	timing jobTimes
}

// jobTimes are the client-observed timings of a job's stages.
type jobTimes struct {
	submit, firstItem, gaps []time.Duration
}

func newBatchBench(seed int64, t *tracer) (*batchBench, error) {
	e, err := newEnv("", t)
	if err != nil {
		return nil, err
	}
	b := &batchBench{seed: seed, e: e, rng: rngFor(seed, 5), plans: make(map[int][]wire.Plan)}
	if b.jobs, err = batchJobs(b.rng, batchPool); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return b, nil
}

// send submits job j and drains its stream, keeping the plans for
// validation after the phase.
func (b *batchBench) send(ctx context.Context, j int) error {
	reqs := b.jobs[j]
	t0 := time.Now()
	job, err := b.e.cl.Submit(ctx, reqs)
	if err != nil {
		return err
	}
	t1 := time.Now()
	st, err := job.Stream(ctx, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	plans := make([]wire.Plan, 0, len(reqs))
	arrivals := make([]time.Time, 0, len(reqs))
	for {
		item, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if item.Err != nil {
			return fmt.Errorf("item %d: %w", item.Index, item.Err)
		}
		arrivals = append(arrivals, time.Now())
		plans = append(plans, *item.Plan)
	}
	if len(plans) != len(reqs) {
		return fmt.Errorf("stream delivered %d of %d items", len(plans), len(reqs))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.plans[j] = plans
	b.timing.submit = append(b.timing.submit, t1.Sub(t0))
	b.timing.firstItem = append(b.timing.firstItem, arrivals[0].Sub(t1))
	for k := 1; k < len(arrivals); k++ {
		b.timing.gaps = append(b.timing.gaps, arrivals[k].Sub(arrivals[k-1]))
	}
	return nil
}

// validate checks the plans of jobs [lo, hi) and returns how many jobs
// answered wrongly.
func (b *batchBench) validate(ctx context.Context, lo, hi int) int {
	wrong := 0
	for j := lo; j < hi; j++ {
		plans, ok := b.plans[j]
		if !ok {
			continue // failed in flight, already counted
		}
		delete(b.plans, j)
		for k, p := range plans {
			if err := b.validateItem(ctx, j, k, p); err != nil {
				wrong++
				b.noteErr(fmt.Errorf("batch-large job %d item %d: %w", j, k, err))
				break
			}
		}
	}
	return wrong
}

func (b *batchBench) validateItem(ctx context.Context, j, k int, p wire.Plan) error {
	if err := checkAnswer(p); err != nil {
		return err
	}
	if !sampled(b.seed, j*len(b.jobs[j])+k) {
		return nil
	}
	out, err := wire.Marshal(p)
	if err != nil {
		return err
	}
	return checkFresh(ctx, b.jobs[j][k], out, p)
}

func (b *batchBench) noteErr(err error) {
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// closed runs up to `jobs` jobs back to back from `workers` senders
// for at most dur, and validates them.
func (b *batchBench) closed(ctx context.Context, name string, dur time.Duration, workers, jobs int) phase {
	lo := b.cursor
	send := func(i int) error { return b.send(ctx, lo+i) }
	if workers == 1 {
		send = func(i int) error {
			st0, tot0 := cpuSteal()
			t0 := time.Now()
			err := b.send(ctx, lo+i)
			if err == nil {
				b.soloMs = append(b.soloMs, ms(time.Since(t0)))
				b.soloSteal = append(b.soloSteal, stealSince(st0, tot0))
			}
			return err
		}
	}
	cpu0 := processCPU()
	p := runClosed(name, dur, workers, min(jobs, len(b.jobs)-lo), send)
	b.cpu += processCPU() - cpu0
	b.cpuPlans += p.OK() * len(b.jobs[lo])
	b.cursor += p.Sent
	if wrong := b.validate(ctx, lo, lo+p.Sent); wrong > 0 {
		p.Failed += wrong
	}
	if p.Err != nil {
		b.noteErr(fmt.Errorf("batch-large %s: %w", name, p.Err))
	}
	b.attempted += p.Sent
	b.failed += p.Failed
	runtime.GC()
	return p
}

// A batch-large run alternates two jobs back to back with one in
// flight and two at once, until it has spent 90% of its seconds and
// each phase holds batchMinJobs jobs: a job takes about half a second,
// and a tail percentile at or above the median with ten samples beyond
// it needs twenty.
const (
	batchRunShare = 0.9
	batchMinJobs  = 20
	noDeadline    = time.Hour
)

// batchE2E is the end-to-end run of batch-large: closed loops with one
// and with two jobs in flight.
func batchE2E(ctx context.Context, seed int64, budget time.Duration) (result, error) {
	var res result
	var setups setupClock
	var b *batchBench
	for k := 0; k < setupRepeats; k++ {
		setups.start()
		nb, err := newBatchBench(seed, nil)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups.stop()
		if k < setupRepeats-1 {
			if err := nb.e.close(); err != nil {
				return res, err
			}
		} else {
			b = nb
		}
	}
	setups.report(&res)
	var low, high phase
	var lowRates, highRates []float64 // plans/s and jobs/s of each slice
	start := time.Now()
	for b.cursor < len(b.jobs) &&
		(time.Since(start) < seconds(budget, batchRunShare) || low.Sent < batchMinJobs || high.Sent < batchMinJobs) {
		p := b.closed(ctx, "low", noDeadline, 1, 2)
		lowRates = append(lowRates, p.Throughput()*float64(len(b.jobs[0])))
		low.merge(p)
		p = b.closed(ctx, "high", noDeadline, senders, 2)
		highRates = append(highRates, p.Throughput())
		high.merge(p)
	}
	low.report(0)
	high.report(0)
	rss, err := peakRSSMB()
	if err != nil {
		return res, errors.Join(err, b.e.close())
	}
	if err := b.e.close(); err != nil {
		return res, err
	}
	printUngated(&low, &high, low.P50().Ms(), high.P50().Ms())
	plansPerS, jobsPerS := medianFloat(lowRates), medianFloat(highRates)
	fmt.Printf("  plans_per_s = %.3f/s with one job in flight, the median over %d slices (reported, not gated)\n",
		plansPerS, len(lowRates))
	fmt.Printf("  p50_ms.closed = %.3f ms, the median of the %d of %d jobs with one in flight that saw the least CPU steal\n",
		quietMedian(b.soloMs, b.soloSteal), quietHalf(len(b.soloMs)), len(b.soloMs))
	res.set("p50_ms.closed", quietMedian(b.soloMs, b.soloSteal), "ms")
	fmt.Printf("  capacity_rps = %.3f jobs/s with two in flight, the median over %d slices (reported, not gated)\n",
		jobsPerS, len(highRates))
	fmt.Printf("  cpu: %.3fs over %d plans in the measured phases\n", b.cpu.Seconds(), b.cpuPlans)
	res.set("cpu_ms_per_plan", ms(b.cpu)/float64(max(b.cpuPlans, 1)), "ms")
	res.set("peak_rss_mb", rss, "MB")
	finishResult(&res, b.attempted, b.failed, b.firstErr)
	return res, nil
}

// batchTrace is the traced run of batch-large: an untraced phase with
// one job in flight, then traced jobs one at a time, each followed by
// an in-process replay of its items.
func batchTrace(ctx context.Context, seed int64, budget time.Duration) (result, error) {
	var res result
	t := newTracer()
	sh, err := newShadow(t, "")
	if err != nil {
		return res, err
	}
	defer sh.close()
	b, err := newBatchBench(seed, t)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	c0 := b.e.srv.CacheStats()
	u := b.closed(ctx, "untraced", seconds(budget, untracedShare), 1, len(b.jobs))
	u.report(0)
	times := b.timing

	var roots []time.Duration
	stop := time.Now().Add(seconds(budget, tracedShare))
	for j := b.cursor; j < len(b.jobs) && time.Now().Before(stop); j++ {
		d, err := b.traceJob(ctx, sh, j)
		b.attempted++
		if err != nil {
			b.failed++
			b.noteErr(fmt.Errorf("traced job %d: %w", j, err))
			continue
		}
		roots = append(roots, d)
	}
	cs := b.e.srv.CacheStats()
	if err := b.e.close(); err != nil {
		return res, err
	}
	traced := sortedCopy(roots)
	tracedP50 := percentile(traced, 50)
	untracedP50 := percentile(u.Svc, 50)
	fmt.Printf("  traced: %d jobs, p50=%.3fms; untraced p50=%.3fms (n=%d)\n",
		len(traced), tracedP50.Ms(), untracedP50.Ms(), untracedP50.N)
	if err := layerMetrics(&res, t, tracedP50); err != nil {
		return res, err
	}
	res.set("trace.p50_ms", tracedP50.Ms(), "ms")
	res.set("trace.overhead_pct", 100*(tracedP50.Ms()-untracedP50.Ms())/untracedP50.Ms(), "%")
	res.set("bench.late_p99_ms", lateP99(u.Lag), "ms")
	res.set("service.front_hit_ratio", 0, "ratio")
	lookups := cs.Hits - c0.Hits + cs.Misses - c0.Misses
	res.set("engine.hit_ratio", ratio(cs.Hits-c0.Hits, lookups), "ratio")
	res.set("engine.evictions", float64(cs.Evictions-c0.Evictions), "count")
	fmt.Printf("  engine cache: %d hits of %d lookups, %d evictions\n", cs.Hits-c0.Hits, lookups, cs.Evictions-c0.Evictions)
	res.set("planstore.warm_held_ratio", 0, "ratio")
	res.set("planstore.appends", 0, "count")
	res.set("planstore.log_bytes", 0, "bytes")
	res.set("planstore.sigs", 0, "count")
	res.set("tier.hit_share", ratio(cs.Hits-c0.Hits, lookups), "ratio")
	res.set("tier.warm_share", 0, "ratio")
	res.set("tier.miss_share", ratio(cs.Misses-c0.Misses, lookups), "ratio")
	shadowCounts(&res, sh)
	setJobMetrics(&res, &times)
	if err := writeSpans(t, "batch-large", seed); err != nil {
		return res, err
	}
	finishResult(&res, b.attempted, b.failed, b.firstErr)
	return res, nil
}

// traceJob runs job j with spans around Submit and the stream, then
// replays each item in-process, each as its own traced request, and
// requires the replayed plans to equal the streamed ones. It returns
// the job's latency.
func (b *batchBench) traceJob(ctx context.Context, sh *shadow, j int) (time.Duration, error) {
	t := sh.t
	t.setOn(true)
	defer t.setOn(false)
	start := time.Now()
	root := t.startRequest(j, "client.Submit")
	job, err := b.e.cl.Submit(ctx, b.jobs[j])
	t.end(root)
	if err != nil {
		return 0, err
	}
	root = t.openRoot("client.Stream")
	st, err := job.Stream(ctx, 0)
	if err != nil {
		t.end(root)
		return 0, err
	}
	var plans []wire.Plan
	for {
		item, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil || item.Err != nil {
			st.Close()
			t.end(root)
			return 0, errors.Join(err, item.Err)
		}
		plans = append(plans, *item.Plan)
	}
	st.Close()
	t.end(root)
	d := time.Since(start)
	if len(plans) != len(b.jobs[j]) {
		return 0, fmt.Errorf("stream delivered %d of %d items", len(plans), len(b.jobs[j]))
	}
	for k, req := range b.jobs[j] {
		if err := checkAnswer(plans[k]); err != nil {
			return 0, fmt.Errorf("item %d: %w", k, err)
		}
		t.set(&t.req, -1-(j*len(b.jobs[j])+k))
		p, _, err := sh.item(ctx, req, k)
		if err != nil {
			return 0, fmt.Errorf("replay of item %d: %w", k, err)
		}
		served, err1 := wire.MarshalCompact(plans[k])
		replayed, err2 := wire.MarshalCompact(p)
		if err := errors.Join(err1, err2); err != nil {
			return 0, err
		}
		if string(served) != string(replayed) {
			return 0, errMismatch(k)
		}
	}
	return d, nil
}

// setJobMetrics reports the job-stage timings; zero on workloads that
// submit no jobs.
func setJobMetrics(res *result, jt *jobTimes) {
	var submit, first, gap float64
	if jt != nil {
		submit = percentile(sortedCopy(jt.submit), 50).Ms()
		first = percentile(sortedCopy(jt.firstItem), 50).Ms()
		gap = percentile(sortedCopy(jt.gaps), 50).Ms()
		fmt.Printf("  jobs: submit p50 %.3fms (n=%d), first item p50 %.3fms (n=%d), item gap p50 %.3fms (n=%d)\n",
			submit, len(jt.submit), first, len(jt.firstItem), gap, len(jt.gaps))
	}
	res.set("jobs.submit_ms", submit, "ms")
	res.set("jobs.first_item_ms", first, "ms")
	res.set("jobs.item_gap_ms", gap, "ms")
}
