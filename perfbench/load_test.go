package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests drives a server that stalls
// once. An open loop must time every request from when it was due, so
// the requests that queued behind the stall carry its wait; a closed
// loop would time them from when they were sent and hide it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		stallAt = 5
		stall   = 200 * time.Millisecond
		rate    = 100.0 // one due every 10ms
		n       = 40
	)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		_, _ = io.WriteString(w, "ok")
	}))
	defer ts.Close()
	get := func(int) error {
		resp, err := http.Get(ts.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}

	p := runOpen("stall", rate, n, 1, get)
	if p.Sent != n || p.Failed != 0 {
		t.Fatalf("sent=%d failed=%d, want %d and 0", p.Sent, p.Failed, n)
	}
	// The request due 10ms after the stalled one waited ~190ms for the
	// sender; the next ~19 requests queued too, each waiting 10ms less.
	queued := 0
	for _, l := range p.Lat {
		if l >= 50*time.Millisecond {
			queued++
		}
	}
	if queued < 10 {
		t.Errorf("only %d requests carry the stall; latencies %v", queued, p.Lat)
	}
	if worst := p.Lat[len(p.Lat)-1]; worst < stall {
		t.Errorf("worst latency %v, want at least the %v stall", worst, stall)
	}
	if p.Late < 10 {
		t.Errorf("late=%d, want the queued requests counted late", p.Late)
	}
	// Service time (send to answer) stays small for all but the stalled
	// request: the wait is queueing, which only due-time accounting sees.
	if slow := p.Svc[len(p.Svc)-2]; slow >= 50*time.Millisecond {
		t.Errorf("second-slowest service time %v, want only the stalled request slow", slow)
	}
	// The generator itself was never late once the sender was free.
	if lag := p.Lag[len(p.Lag)-1]; lag > 20*time.Millisecond {
		t.Errorf("generator lag %v", lag)
	}
}

func TestClosedLoopStopsAtDeadlineAndPoolSize(t *testing.T) {
	send := func(int) error { time.Sleep(time.Millisecond); return nil }
	p := runClosed("short", 50*time.Millisecond, 2, 1000, send)
	if p.Sent == 0 || p.Sent > 200 {
		t.Errorf("sent %d in 50ms with 1ms requests from 2 senders", p.Sent)
	}
	p = runClosed("pool", time.Second, 2, 7, send)
	if p.Sent != 7 {
		t.Errorf("sent %d from a pool of 7", p.Sent)
	}
}

// climb drives a ramp through its climb against a fixed pass/fail rule
// and returns it with the rates it tried and the best passing one.
func climb(start float64, maxSteps int, pass func(rate float64, step int) bool) (r *ramp, tried []float64, best float64) {
	r = newRamp(start, 1.1)
	for len(tried) < maxSteps && r.climbing {
		rate := r.next()
		score := 1.0
		if pass(rate, len(tried)) {
			score = -1
			best = math.Max(best, rate)
		}
		tried = append(tried, rate)
		r.observe(rate, score)
	}
	return r, tried, best
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestRampStopsAfterTwoConsecutiveFailures(t *testing.T) {
	r, tried, best := climb(100, 50, func(rate float64, _ int) bool { return rate < 150 })
	// 100, 110, 121, 133.1, 146.41 pass; 161.05 and 177.16 fail.
	if len(tried) != 7 || r.climbing {
		t.Fatalf("tried %v, want 5 passes then 2 failures ending the climb", tried)
	}
	if !near(best, 146.41) {
		t.Errorf("best = %v, want 146.41", best)
	}
}

func TestRampSurvivesOneUnluckyStep(t *testing.T) {
	// Step 2 (121) fails by bad luck; the climb goes on past it.
	_, tried, best := climb(100, 50, func(rate float64, step int) bool { return step != 2 && rate < 150 })
	if len(tried) != 7 || !near(best, 146.41) {
		t.Fatalf("tried %v, best %v", tried, best)
	}
}

func TestRampDescendsUntilAStepPasses(t *testing.T) {
	_, tried, best := climb(100, 50, func(rate float64, _ int) bool { return rate < 80 })
	// 100 fails; three steps down, 75.1 passes; 82.6 and 90.9 fail.
	if len(tried) != 4 || !near(best, 100/1.1/1.1/1.1) {
		t.Fatalf("tried %v, best %v", tried, best)
	}
}

func TestRampProbesAroundTheEstimateAfterTheClimb(t *testing.T) {
	r, _, _ := climb(100, 50, func(rate float64, _ int) bool { return rate < 150 })
	var probes, ests []float64
	for k := 0; k < 2; k++ {
		est := r.capacity()
		if est <= 146.41 || est >= 161.05 {
			t.Fatalf("estimate %v outside the last pass and the first failure", est)
		}
		rate := r.next()
		probes, ests = append(probes, rate), append(ests, est)
		r.observe(rate, -0.01)
	}
	// One probe above the estimate of its time, the next below.
	if !near(probes[0], ests[0]*(1+probeWidth)) || !near(probes[1], ests[1]*(1-probeWidth)) {
		t.Errorf("probes %v around estimates %v", probes, ests)
	}
}

func TestRampClimbsWhileStepsPass(t *testing.T) {
	r, tried, best := climb(100, 4, func(float64, int) bool { return true })
	if len(tried) != 4 || !near(best, 133.1) || !r.climbing {
		t.Fatalf("tried %v, best %v", tried, best)
	}
	if got := r.capacity(); !near(got, 133.1) {
		t.Errorf("capacity with every step passing = %v, want the highest rate 133.1", got)
	}
}

func TestCapacityInterpolatesTheCrossing(t *testing.T) {
	steps := []rampStep{{100, -0.4}, {110, -0.2}, {120, 0.2}, {130, 0.6}}
	if got := capacityFrom(steps); !near(got, 115) {
		t.Errorf("capacity = %v, want 115", got)
	}
}

func TestCapacityAveragesOutOneUnluckyStep(t *testing.T) {
	// 110 failed by bad luck among passing neighbours: pooled with 120
	// it still reads as passing, and the crossing stays above both.
	steps := []rampStep{{100, -0.5}, {110, 0.1}, {120, -0.3}, {130, -0.1}, {140, 0.3}, {150, 0.7}}
	got := capacityFrom(steps)
	if !near(got, 132.5) {
		t.Errorf("capacity = %v, want 132.5", got)
	}
	// The order the ramp tried the rates in does not matter.
	shuffled := []rampStep{{140, 0.3}, {100, -0.5}, {150, 0.7}, {120, -0.3}, {110, 0.1}, {130, -0.1}}
	if again := capacityFrom(shuffled); !near(again, got) {
		t.Errorf("capacity of the same steps in another order = %v, want %v", again, got)
	}
}

func TestStallingStepScoresLikeAnyFailure(t *testing.T) {
	limit := 25 * time.Millisecond
	stalled := phase{Lat: millis(1000), Slices: 1, Sent: 1000, Span: time.Second}
	for i := 990; i < 1000; i++ {
		stalled.Lat[i] = 2 * time.Second
	}
	stalled.Lat[989] = time.Second // the tail: 40 times the limit
	if got := stalled.score(limit); got != scoreClip {
		t.Fatalf("score of a 1s tail against 25ms = %v, want the clip %v", got, scoreClip)
	}
	// Clipped, one stalled step among passing ones moves the capacity
	// only to just past its neighbours, not down to the stalled rate.
	steps := []rampStep{{100, -0.5}, {110, scoreClip}, {120, -0.5}, {130, -0.4}, {140, 0.3}, {150, 0.6}}
	if got := capacityFrom(steps); got < 120 || got > 140 {
		t.Errorf("capacity %v with one stalled step at 110, want between 120 and 140", got)
	}
}

func TestGrowingBacklogFailsAStep(t *testing.T) {
	limit := 100 * time.Millisecond
	p := phase{Lat: millis(1000), Slices: 1, Sent: 1000, Span: time.Second}
	for i := range p.Lat {
		p.Lat[i] /= 100 // tail 9.9ms, well within the limit
	}
	p.Drain = 10 * time.Millisecond // finished about one latency late
	if s := p.score(limit); s > 0 {
		t.Errorf("score %v with a 10ms drain after a 1s schedule, want a pass", s)
	}
	p.Drain = 60 * time.Millisecond // 6% behind: a queue building up
	if s := p.score(limit); !(s > 0) {
		t.Errorf("score %v with a 60ms drain after a 1s schedule, want a failure", s)
	}
}

func TestCapacityEdges(t *testing.T) {
	if got := capacityFrom([]rampStep{{100, -1}, {110, -0.5}}); got != 110 {
		t.Errorf("all passing: capacity = %v, want the highest rate 110", got)
	}
	if got := capacityFrom([]rampStep{{100, 0.5}, {90, 0.2}}); got != 0 {
		t.Errorf("none passing: capacity = %v, want 0", got)
	}
	if got := capacityFrom(nil); got != 0 {
		t.Errorf("no steps: capacity = %v, want 0", got)
	}
}
