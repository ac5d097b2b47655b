package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/planstore"
)

// solveSpec describes one /v1/solve workload.
type solveSpec struct {
	name      string
	low, high float64       // the two fixed open-loop rates, requests/s
	limit     time.Duration // the p99 limit capacity is measured against
	store     bool          // run the server with a plan store
	// poolRate bounds the rate any phase can reach; the input pool is
	// grown ahead of each phase to cover it.
	poolRate float64
}

var solveSpecs = map[string]solveSpec{
	"solve-miss":  {name: "solve-miss", low: 100, high: 300, limit: 100 * time.Millisecond, poolRate: 2000},
	"solve-hot":   {name: "solve-hot", low: 1000, high: 3000, limit: 20 * time.Millisecond, poolRate: 20000},
	"churn-store": {name: "churn-store", low: 100, high: 300, limit: 100 * time.Millisecond, store: true, poolRate: 2000},
}

// hotSetSize is solve-hot's working set: well inside the front cache.
const hotSetSize = 256

// churnBases is how many base plans churn-store persists in set-up.
const churnBases = 64

// solveBench drives one /v1/solve workload against one server.
type solveBench struct {
	spec solveSpec
	seed int64
	e    *env
	dir  string  // plan store directory, removed by close
	sh   *shadow // trace runs only: the in-process replay

	rng    *rand.Rand // draws the timed stream
	nPhase float64    // solve-miss: start of the stream's size sequence
	reqs   []engine.Request
	outs   [][]byte // answers awaiting validation, by stream index
	cursor int      // next unsent stream index
	freed  int      // stream indices below this are dropped

	hotReqs []engine.Request // solve-hot: the working set
	hotOut  [][]byte         // ... and its answers primed in set-up
	picks   []int            // ... and the Zipf pick behind each stream index
	zipf    *rand.Zipf

	churn    *churnStream
	baseHash [][sha256.Size]byte
	respHash map[int][sha256.Size]byte // churn: answered bytes, for repeats

	attempted, failed int
	firstErr          error

	// Process CPU time spent in the measured phases and the answers
	// they got, for cpu_ms_per_plan.
	cpu      time.Duration
	cpuPlans int
}

// newSolveBench sets up a workload: boots the server, draws the inputs
// and, for solve-hot and churn-store, primes the server with the hot
// set or the base plans. A non-nil tracer wraps the server and client
// for a traced run; sh, when non-nil, replays everything the server
// sees.
func newSolveBench(ctx context.Context, spec solveSpec, seed int64, t *tracer, sh *shadow) (*solveBench, error) {
	b := &solveBench{spec: spec, seed: seed, sh: sh}
	if spec.store {
		dir, err := os.MkdirTemp("", "perfbench-store-")
		if err != nil {
			return nil, err
		}
		b.dir = dir
	}
	var err error
	if b.e, err = newEnv(b.dir, t); err != nil {
		b.close()
		return nil, err
	}
	switch spec.name {
	case "solve-miss":
		b.rng = rngFor(seed, 1)
		b.nPhase = b.rng.Float64()
	case "solve-hot":
		err = b.primeHot(ctx)
	case "churn-store":
		err = b.primeChurn(ctx)
	}
	if err == nil {
		err = b.grow(int(spec.poolRate))
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// primeHot solves the working set once; every timed answer must equal
// these bytes.
func (b *solveBench) primeHot(ctx context.Context) error {
	var err error
	if b.hotReqs, err = randomRequests(rngFor(b.seed, 2), hotSetSize, 200, 200); err != nil {
		return err
	}
	b.zipf = rand.NewZipf(rngFor(b.seed, 3), 1.1, 1, hotSetSize-1)
	b.hotOut = make([][]byte, hotSetSize)
	for k, req := range b.hotReqs {
		if b.hotOut[k], err = b.prime(ctx, req, k); err != nil {
			return fmt.Errorf("priming hot request %d: %w", k, err)
		}
	}
	return nil
}

// primeChurn persists the base plans through the server.
func (b *solveBench) primeChurn(ctx context.Context) error {
	var err error
	b.rng = rngFor(b.seed, 4)
	if b.churn, err = newChurnStream(b.rng, churnBases); err != nil {
		return err
	}
	b.respHash = make(map[int][sha256.Size]byte)
	for k, req := range b.churn.bases {
		out, err := b.prime(ctx, req, k)
		if err != nil {
			return fmt.Errorf("persisting base %d: %w", k, err)
		}
		b.baseHash = append(b.baseHash, sha256.Sum256(out))
	}
	return nil
}

// prime sends one set-up request and checks its answer in full.
func (b *solveBench) prime(ctx context.Context, req engine.Request, k int) ([]byte, error) {
	out, err := b.e.cl.SolveRaw(ctx, req)
	if err != nil {
		return nil, err
	}
	p, err := checkPlan(out)
	if err == nil && sampled(b.seed, -1-k) {
		err = checkFresh(ctx, req, out, p)
	}
	if err == nil && b.sh != nil {
		// Keep the shadow's caches and store in step with the server's.
		var got []byte
		if got, _, err = b.sh.serveRequest(ctx, req, 0); err == nil && !bytes.Equal(got, out) {
			err = errMismatch(-1 - k)
		}
	}
	return out, err
}

// grow makes stream indices [0, n) available.
func (b *solveBench) grow(n int) error {
	for len(b.reqs) < n {
		k := len(b.reqs)
		switch {
		case b.hotReqs != nil:
			pick := int(b.zipf.Uint64())
			b.picks = append(b.picks, pick)
			b.reqs = append(b.reqs, b.hotReqs[pick])
		case b.churn != nil:
			if err := b.churn.extend(b.rng, n); err != nil {
				return err
			}
			b.reqs = b.churn.reqs
		default:
			ins, err := randomInstance(b.rng, spreadN(b.nPhase, k, 100, 300), k)
			if err != nil {
				return err
			}
			b.reqs = append(b.reqs, request(ins))
		}
	}
	if len(b.outs) < len(b.reqs) {
		b.outs = append(b.outs, make([][]byte, len(b.reqs)-len(b.outs))...)
	}
	return nil
}

// close shuts the server down and removes the store directory.
func (b *solveBench) close() error {
	var err error
	if b.e != nil {
		err = b.e.close()
	}
	if b.dir != "" {
		err = errors.Join(err, os.RemoveAll(b.dir))
	}
	return err
}

// send issues stream request g through the SDK. solve-hot answers are
// checked on the spot (a byte compare); the others are kept and
// validated after the phase, outside the timed window.
func (b *solveBench) send(g int) error {
	out, err := b.e.cl.SolveRaw(context.Background(), b.reqs[g])
	if err != nil {
		return err
	}
	if b.hotOut != nil {
		if !bytes.Equal(out, b.hotOut[b.picks[g]]) {
			return errors.New("answer differs from the bytes primed in set-up")
		}
		return nil
	}
	b.outs[g] = out
	return nil
}

// validate checks the kept answers of stream indices [lo, hi) and
// returns how many were wrong.
func (b *solveBench) validate(ctx context.Context, lo, hi int) int {
	wrong := 0
	for g := lo; g < hi; g++ {
		out := b.outs[g]
		if out == nil {
			continue // failed in flight, already counted
		}
		b.outs[g] = nil
		if err := b.validateOne(ctx, g, out); err != nil {
			wrong++
			b.noteErr(fmt.Errorf("%s request %d: %w", b.spec.name, g, err))
		}
	}
	return wrong
}

func (b *solveBench) validateOne(ctx context.Context, g int, out []byte) error {
	p, err := checkPlan(out)
	if err != nil {
		return err
	}
	if b.churn != nil {
		sum := sha256.Sum256(out)
		b.respHash[g] = sum
		switch j := b.churn.origin[g]; {
		case j == noOrigin:
		case j >= 0 && b.respHash[j] != sum:
			return fmt.Errorf("repeat of request %d answered with other bytes", j)
		case j < 0 && b.baseHash[-1-j] != sum:
			return fmt.Errorf("repeat of base %d answered with other bytes", -1-j)
		}
	}
	if sampled(b.seed, g) {
		return checkFresh(ctx, b.reqs[g], out, p)
	}
	return nil
}

func (b *solveBench) noteErr(err error) {
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// finish validates a phase's answers, folds wrong answers into its
// failures (a wrong answer misses the limit like a failed one) and
// adds the phase to the run's totals.
func (b *solveBench) finish(ctx context.Context, p *phase, lo int) {
	if wrong := b.validate(ctx, lo, lo+p.Sent); wrong > 0 {
		p.Failed += wrong
		for k := len(p.Lat) - wrong; k < len(p.Lat); k++ {
			p.Lat[k] = failedLatency
		}
	}
	if p.Err != nil {
		b.noteErr(fmt.Errorf("%s %s: %w", b.spec.name, p.Name, p.Err))
	}
	b.attempted += p.Sent
	b.failed += p.Failed
	// Drop requests no later one can repeat, so the benchmark's own
	// inputs do not inflate the heap the server's collector scans, and
	// collect the validation's garbage now, not inside the next phase.
	for ; b.freed < lo-repeatHi; b.freed++ {
		b.reqs[b.freed] = engine.Request{}
	}
	runtime.GC()
}

// open runs an open-loop phase at rate for dur from `workers` senders.
func (b *solveBench) open(name string, rate float64, dur time.Duration, workers int, send func(g int) error) (phase, error) {
	n := max(int(math.Round(rate*dur.Seconds())), minSamples)
	if err := b.grow(b.cursor + n); err != nil {
		return phase{}, err
	}
	lo := b.cursor
	cpu0 := processCPU()
	p := runOpen(name, rate, n, workers, func(i int) error { return send(lo + i) })
	b.countCPU(cpu0, p)
	b.cursor += n
	return p, nil
}

// countCPU adds the process CPU time since cpu0 and the phase's
// answers to the totals behind cpu_ms_per_plan.
func (b *solveBench) countCPU(cpu0 time.Duration, p phase) {
	b.cpu += processCPU() - cpu0
	b.cpuPlans += p.OK()
}

// measure runs one end-to-end phase (open loop when rate > 0) from all
// senders and validates its answers.
func (b *solveBench) measure(ctx context.Context, name string, rate float64, dur time.Duration) (phase, error) {
	lo := b.cursor
	var p phase
	var err error
	if rate > 0 {
		p, err = b.open(name, rate, dur, senders, b.send)
	} else {
		p, err = b.closed(name, dur, senders, b.send)
	}
	if err != nil {
		return p, err
	}
	b.finish(ctx, &p, lo)
	return p, nil
}

// closed runs a closed loop with `workers` senders busy for dur.
func (b *solveBench) closed(name string, dur time.Duration, workers int, send func(g int) error) (phase, error) {
	limit := int(b.spec.poolRate * dur.Seconds())
	if err := b.grow(b.cursor + limit); err != nil {
		return phase{}, err
	}
	lo := b.cursor
	cpu0 := processCPU()
	p := runClosed(name, dur, workers, limit, func(i int) error { return send(lo + i) })
	b.countCPU(cpu0, p)
	b.cursor += p.Sent
	return p, nil
}

// Capacity ramp shape: steps of 10% from 70% of the closed-loop rate
// (the probes after the climb refine the estimate).
const (
	rampStart  = 0.7
	rampFactor = 1.1
)

// tierShares reports the share of requests answered by each tier over
// a counter window, from the server's own cache and store counters.
type tierShares struct {
	requests                     int
	hits, warm, fallbacks, colds int64
}

func sharesBetween(requests int, c0, c1 engine.CacheStats, s0, s1 planstore.Stats) tierShares {
	ts := tierShares{requests: requests, hits: c1.Hits - c0.Hits, warm: s1.WarmHits - s0.WarmHits, fallbacks: s1.Fallbacks - s0.Fallbacks}
	ts.colds = c1.Misses - c0.Misses - ts.warm - ts.fallbacks
	return ts
}

func (ts tierShares) share(x int64) float64 {
	if ts.requests == 0 {
		return 0
	}
	return float64(x) / float64(ts.requests)
}

func (ts tierShares) print() {
	fmt.Printf("  tiers over %d requests: hit %d (%.3f)  warm %d (%.3f)  miss %d (%.3f; %d cold + %d warm fallbacks)\n",
		ts.requests, ts.hits, ts.share(ts.hits), ts.warm, ts.share(ts.warm),
		ts.colds+ts.fallbacks, ts.share(ts.colds+ts.fallbacks), ts.colds, ts.fallbacks)
}

// intended prints the tier mix churn-store's stream was drawn with.
func (b *solveBench) intended(lo, hi int) {
	if b.churn == nil {
		return
	}
	var n [3]int
	for g := lo; g < hi; g++ {
		n[b.churn.tiers[g]]++
	}
	fmt.Printf("  drawn mix over %d requests: warm %d  miss %d  hit %d\n", hi-lo, n[tierWarm], n[tierMiss], n[tierHit])
}
