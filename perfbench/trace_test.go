package main

import (
	"testing"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "service.ServeHTTP", Start: us(0), End: us(100)},
		// Two children overlapping each other over [20, 50]: the union
		// is [10, 60], so they cover 50us of the parent, not 70.
		{ID: 2, Parent: 1, Req: 1, Name: "core.solve", Start: us(10), End: us(50)},
		{ID: 3, Parent: 1, Req: 1, Name: "core.solve", Start: us(20), End: us(60)},
		// A disjoint child adds its own 10us.
		{ID: 4, Parent: 1, Req: 1, Name: "maxflow.verify", Start: us(80), End: us(90)},
		// A child spilling past its parent's end counts only inside it.
		{ID: 5, Parent: 4, Req: 1, Name: "wire.key", Start: us(85), End: us(95)},
	}
	self := selfTimes(spans)
	want := []time.Duration{us(40), us(40), us(40), us(5), us(10)}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %v, want %v", spans[i].ID, spans[i].Name, self[i], w)
		}
	}
}

func TestSelfTimeSubtractsReplayedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 7, Name: "service.ServeHTTP", Start: us(0), End: us(100)},
		// Replayed after the handler returned: their durations, not
		// their overlap, come off the handler's self time.
		{ID: 2, Parent: 1, Req: 7, Name: "wire.decode", Start: us(200), End: us(230), Replay: true},
		{ID: 3, Parent: 1, Req: 7, Name: "engine.execute", Start: us(230), End: us(290), Replay: true},
		{ID: 4, Parent: 3, Req: 7, Name: "core.solve", Start: us(240), End: us(280)},
	}
	self := selfTimes(spans)
	want := []time.Duration{us(10), us(30), us(20), us(40)}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %v, want %v", spans[i].ID, spans[i].Name, self[i], w)
		}
	}
	by, err := layerSelf(spans)
	if err != nil {
		t.Fatal(err)
	}
	total := time.Duration(0)
	for _, reqs := range by {
		total += reqs[7]
	}
	if total != us(100) {
		t.Errorf("layer self times add up to %v, want the handler's 100us", total)
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	children := []span{
		{Start: us(30), End: us(40)},
		{Start: us(0), End: us(10)},
		{Start: us(5), End: us(15)},
		{Start: us(40), End: us(45)}, // touches the first: one run [30, 45]
	}
	if got := covered(us(0), us(100), children); got != us(30) {
		t.Errorf("covered = %v, want 30us", got)
	}
	if got := covered(us(8), us(35), children); got != us(12) {
		t.Errorf("covered within [8, 35] = %v, want 12us", got)
	}
}

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("core.solve", 0, false); id != 0 {
		t.Fatalf("span recorded while off: id %d", id)
	}
	tr.setOn(true)
	root := tr.startRequest(3, "client.SolveRaw")
	child := tr.begin("transport", tr.get(&tr.root), false)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Req != 3 || spans[1].Req != 3 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child not inside its root: %+v", spans)
	}
}

func TestAtMedianBreaksDownTheMiddleRequests(t *testing.T) {
	// Ten requests of 10..100us: a client root split 30% client self,
	// 70% a nested verify span, except request 5, stalled in transport.
	var spans []span
	for r := 1; r <= 10; r++ {
		d := us(10 * r)
		root := span{ID: 2*r - 1, Req: r, Name: "client.SolveRaw", Start: 0, End: d}
		child := span{ID: 2 * r, Parent: 2*r - 1, Req: r, Name: "maxflow.verify", Start: d * 3 / 10, End: d}
		if r == 5 {
			child.Name = "transport"
		}
		spans = append(spans, root, child)
	}
	by, err := layerSelf(spans)
	if err != nil {
		t.Fatal(err)
	}
	mid, n := atMedian(spans, by)
	// The 40th-60th percentile requests are 5 and 6 (50us and 60us).
	if n != 2 {
		t.Fatalf("%d requests at the median, want 2", n)
	}
	if mid["client.encode_us"] != us(16)+us(1)/2 || mid["maxflow.verify_us"] != us(21) || mid["transport.self_us"] != us(35)/2 {
		t.Errorf("breakdown %v", mid)
	}
}
