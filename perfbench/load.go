package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// lateAfter is how far past its due time a request may start before
// it counts as late.
const lateAfter = time.Millisecond

// minSamples is the fewest requests an open-loop slice sends.
const minSamples = 10

// phase is the outcome of one measured phase, or of several slices of
// one merged together.
type phase struct {
	Name    string
	Rate    float64 // offered rate for an open loop; 0 for a closed loop
	Slices  int
	Sent    int
	Failed  int
	Late    int
	Lat     []time.Duration // sorted; failures read failedLatency
	Lag     []time.Duration // sorted: how late each send started once a sender was free
	Svc     []time.Duration // sorted: send to answer, without the wait for a sender
	Elapsed time.Duration   // phase start to last completion, summed over slices
	Drain   time.Duration   // last completion minus last due time (open loop), worst slice
	Span    time.Duration   // first to last due time (open loop), summed over slices
	Err     error           // first failure
}

// merge folds another slice of the same phase into p.
func (p *phase) merge(q phase) {
	if p.Slices == 0 {
		*p = q
		return
	}
	p.Slices += q.Slices
	p.Sent += q.Sent
	p.Failed += q.Failed
	p.Late += q.Late
	p.Lat = sortedCopy(append(p.Lat, q.Lat...))
	p.Lag = sortedCopy(append(p.Lag, q.Lag...))
	p.Svc = sortedCopy(append(p.Svc, q.Svc...))
	p.Elapsed += q.Elapsed
	p.Drain = max(p.Drain, q.Drain)
	p.Span += q.Span
	if p.Err == nil {
		p.Err = q.Err
	}
}

// OK is the number of requests answered correctly.
func (p *phase) OK() int { return p.Sent - p.Failed }

// P50 is the phase's median latency.
func (p *phase) P50() Pct { return percentile(p.Lat, 50) }

// P99 is the phase's tail latency under the ≥10-beyond rule.
func (p *phase) P99() (Pct, bool) { return tail(p.Lat, 99) }

// Throughput is completed correct requests per second.
func (p *phase) Throughput() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.OK()) / p.Elapsed.Seconds()
}

// scoreClip bounds a ramp step's score (see phase.score) to between
// half and twice its threshold, so a step caught by a stall, with a
// tail many times the limit, weighs in the capacity fit like any other
// failed step rather than dragging its neighbours down with it.
var scoreClip = math.Ln2

// backlogShare is the backlog an open-loop phase may leave when its
// schedule ends, as a share of the schedule's length: a server that
// keeps up finishes the last request about one latency after it was
// due, while one falling behind by more than this share is building a
// queue that a longer phase would only grow.
const backlogShare = 0.03

// score is how far the phase sat from meeting limit with no growing
// backlog, as the log of the larger of tail/limit and
// backlog/(backlogShare × schedule), clipped to ±scoreClip: zero or
// below meets both. Failures, or too few samples for a tail, score
// +scoreClip.
func (p *phase) score(limit time.Duration) float64 {
	t, ok := p.P99()
	if !ok || p.Failed > 0 {
		return scoreClip
	}
	worst := max(float64(t.Value)/float64(limit), float64(p.Drain)/(backlogShare*float64(p.Span)), 1e-9)
	return max(min(math.Log(worst), scoreClip), -scoreClip)
}

// report prints the phase's counts and percentiles.
func (p *phase) report(limit time.Duration) {
	t, _ := p.P99()
	lag, _ := tail(p.Lag, 99)
	rate := "closed loop"
	if p.Rate > 0 {
		rate = fmt.Sprintf("%.1f/s offered", p.Rate)
	}
	fmt.Printf("  %-10s %-17s slices=%d sent=%d ok=%d failed=%d late=%d  p50=%.3fms (n=%d)  p%.2f=%.3fms (n=%d)  drain=%.3fms  done=%.1f/s  lag p%.2f=%.3fms",
		p.Name, rate, p.Slices, p.Sent, p.OK(), p.Failed, p.Late, p.P50().Ms(), p.P50().N, t.Q, t.Ms(), t.N,
		ms(p.Drain), p.Throughput(), lag.Q, lag.Ms())
	if limit > 0 {
		fmt.Printf("  score vs %.0fms: %+.3f", ms(limit), p.score(limit))
	}
	fmt.Println()
	if p.Err != nil {
		fmt.Printf("    first failure: %v\n", p.Err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// collector gathers per-request outcomes from concurrent senders.
type collector struct {
	lat, lag     []time.Duration
	svc          []time.Duration
	failed, late atomic.Int64
	mu           sync.Mutex
	first        error
	last         atomic.Int64 // latest completion, ns since the phase start
}

func newCollector(n int) *collector {
	return &collector{lat: make([]time.Duration, n), lag: make([]time.Duration, n), svc: make([]time.Duration, n)}
}

func (c *collector) record(i int, t0, due, ready, start, end time.Time, err error) {
	c.lag[i] = max(start.Sub(ready), 0)
	c.svc[i] = end.Sub(start)
	if start.Sub(due) > lateAfter {
		c.late.Add(1)
	}
	if err != nil {
		c.lat[i] = failedLatency
		c.failed.Add(1)
		c.mu.Lock()
		if c.first == nil {
			c.first = fmt.Errorf("request %d: %w", i, err)
		}
		c.mu.Unlock()
	} else {
		c.lat[i] = end.Sub(due)
	}
	e := int64(end.Sub(t0))
	for {
		cur := c.last.Load()
		if e <= cur || c.last.CompareAndSwap(cur, e) {
			return
		}
	}
}

func (c *collector) phase(name string, rate float64, n int) phase {
	return phase{
		Name: name, Rate: rate, Slices: 1, Sent: n,
		Failed: int(c.failed.Load()), Late: int(c.late.Load()),
		Lat: sortedCopy(c.lat[:n]), Lag: sortedCopy(c.lag[:n]), Svc: sortedCopy(c.svc[:n]),
		Elapsed: time.Duration(c.last.Load()), Err: c.first,
	}
}

// runOpen sends n requests on a fixed schedule, one due every 1/rate,
// from `senders` goroutines. Each latency runs from the request's due
// time, so a stall also charges the requests queued behind it.
func runOpen(name string, rate float64, n, senders int, send func(i int) error) phase {
	c := newCollector(n)
	interval := float64(time.Second) / rate
	t0 := time.Now()
	dueOf := func(i int) time.Time { return t0.Add(time.Duration(float64(i) * interval)) }
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := t0
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := dueOf(i)
				waitUntil(due)
				ready := due
				if free.After(ready) {
					ready = free
				}
				start := time.Now()
				err := send(i)
				end := time.Now()
				free = end
				c.record(i, t0, due, ready, start, end, err)
			}
		}()
	}
	wg.Wait()
	p := c.phase(name, rate, n)
	p.Span = dueOf(n - 1).Sub(t0)
	p.Drain = max(p.Elapsed-p.Span, 0)
	return p
}

// waitUntil blocks until t. The Go runtime's sleeps overshoot by up to
// a millisecond when the process is otherwise idle, which would make
// the generator late by that much; nanosleep(2) overshoots by tens of
// microseconds but holds the caller's processor while it sleeps, which
// would starve the server of one of its two. So the runtime sleeps
// until a millisecond before t and the kernel sleeps the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - kernelSleep; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}

// kernelSleep is the last stretch of a wait slept in nanosleep(2).
const kernelSleep = time.Millisecond

// runClosed keeps `senders` requests in flight for dur: each sender
// sends its next request as soon as the previous one is answered.
// limit caps the number of requests (the size of the input pool).
func runClosed(name string, dur time.Duration, senders, limit int, send func(i int) error) phase {
	c := newCollector(limit)
	t0 := time.Now()
	stop := t0.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := t0
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				start := time.Now()
				err := send(i)
				end := time.Now()
				c.record(i, t0, start, free, start, end, err)
				free = end
			}
		}()
	}
	wg.Wait()
	// Every claimed index below limit was sent.
	return c.phase(name, 0, min(int(next.Load()), limit))
}

// rampStep is one tried rate of the capacity ramp and its score (see
// phase.score): zero or below meets the limit.
type rampStep struct {
	Rate, Score float64
}

// ramp is the capacity search, one step at a time so its steps can be
// spread across a run. It climbs from its start rate by factor while
// steps pass and ends the climb after two consecutive failures, so one
// unlucky step does not end it; until some step passes it descends
// instead, three steps at a time. After the climb it keeps probing just below and just above
// the current estimate, adding steps where the fit crosses the limit.
type ramp struct {
	factor   float64
	rate     float64 // the climb's next rate
	fails    int
	passed   bool
	climbing bool
	steps    []rampStep
}

func newRamp(start, factor float64) *ramp {
	return &ramp{factor: factor, rate: start, climbing: true}
}

// next is the rate of the next step.
func (r *ramp) next() float64 {
	if r.climbing {
		return r.rate
	}
	est := capacityFrom(r.steps)
	if est == 0 {
		est = r.steps[0].Rate
		for _, s := range r.steps {
			est = math.Min(est, s.Rate)
		}
		est /= r.factor
	}
	if len(r.steps)%2 == 0 {
		return est * (1 - probeWidth)
	}
	return est * (1 + probeWidth)
}

// observe records the score of a step at rate.
func (r *ramp) observe(rate, score float64) {
	r.steps = append(r.steps, rampStep{Rate: rate, Score: score})
	if !r.climbing {
		return
	}
	if score <= 0 {
		r.passed, r.fails = true, 0
		r.rate *= r.factor
		return
	}
	r.fails++
	switch {
	case !r.passed:
		r.rate /= r.factor * r.factor * r.factor
	case r.fails == 2:
		r.climbing = false
	default:
		r.rate *= r.factor
	}
}

// probeWidth is how far below and above the estimate the probes after
// the climb go, as a share of it.
const probeWidth = 0.03

// capacity is the current estimate (see capacityFrom).
func (r *ramp) capacity() float64 { return capacityFrom(r.steps) }

// capacityFrom reads the capacity off the ramp: it fits a
// non-decreasing curve to the scores against rate (pooling adjacent
// violators, so a single lucky or unlucky step is averaged with its
// neighbours) and returns the rate where the fit crosses zero,
// interpolated between the steps on either side. Every step passing
// gives the highest rate tried; none passing gives 0.
func capacityFrom(steps []rampStep) float64 {
	if len(steps) == 0 {
		return 0
	}
	sorted := append([]rampStep(nil), steps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rate < sorted[j].Rate })
	// Pool adjacent violators: blocks of (rate range, mean score, weight).
	type block struct {
		lo, hi      int
		mean, count float64
	}
	var blocks []block
	for i, s := range sorted {
		blocks = append(blocks, block{lo: i, hi: i, mean: s.Score, count: 1})
		for len(blocks) > 1 && blocks[len(blocks)-2].mean >= blocks[len(blocks)-1].mean {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			blocks = blocks[:len(blocks)-2]
			blocks = append(blocks, block{lo: a.lo, hi: b.hi, count: a.count + b.count,
				mean: (a.mean*a.count + b.mean*b.count) / (a.count + b.count)})
		}
	}
	fit := make([]float64, len(sorted))
	for _, b := range blocks {
		for i := b.lo; i <= b.hi; i++ {
			fit[i] = b.mean
		}
	}
	for i := range fit {
		if fit[i] <= 0 {
			continue
		}
		if i == 0 {
			return 0
		}
		r0, r1 := sorted[i-1].Rate, sorted[i].Rate
		return r0 + (r1-r0)*(0-fit[i-1])/(fit[i]-fit[i-1])
	}
	return sorted[len(sorted)-1].Rate
}
