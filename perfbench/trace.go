package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root
	Req    int           `json:"req"`    // the traced request (tree) it belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	// Replay marks a call the benchmark repeats in-process to split up
	// work it cannot see inside its parent. A replayed child runs after
	// its parent, not inside it, so its whole duration (not its overlap)
	// is taken off the parent's self time.
	Replay bool `json:"replay,omitempty"`
}

// tracer records spans in memory. Traced requests run one at a time,
// so the open spans that later calls nest under (the request, its
// root, its transport call and the handler and engine calls) are plain
// fields; the mutex orders them against the server goroutine that
// reads them.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	on    bool
	spans []span

	req       int
	root      int
	transport int
	handler   int
	engine    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id; 0 when tracing
// is off (end ignores it).
func (t *tracer) begin(name string, parent int, replay bool) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: now, Replay: replay})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setOn switches recording on or off.
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// startRequest begins a new traced request and opens its root span.
func (t *tracer) startRequest(req int, name string) int {
	t.set(&t.req, req)
	return t.openRoot(name)
}

// openRoot opens another root span of the current request, under
// which the next round trips nest.
func (t *tracer) openRoot(name string) int {
	id := t.begin(name, 0, false)
	t.set(&t.root, id)
	return id
}

// get reads one of the open-span fields under the lock.
func (t *tracer) get(f *int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return *f
}

// set writes one of the open-span fields under the lock.
func (t *tracer) set(f *int, v int) {
	t.mu.Lock()
	*f = v
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its nested children
// cover (overlapping children count once) minus the durations of its
// replayed children. A negative value means the replay took longer
// than the call it stands for; it is kept so the layer-sum check sees it.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	nested := make([][]span, len(spans))
	replayed := make([]time.Duration, len(spans))
	for _, s := range spans {
		p, ok := index[s.Parent]
		if !ok {
			continue
		}
		if s.Replay {
			replayed[p] += s.End - s.Start
		} else {
			nested[p] = append(nested[p], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, nested[i]) - replayed[i]
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of the
// children's intervals.
func covered(lo, hi time.Duration, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for k, x := range iv {
		switch {
		case k == 0:
			curA, curB = x[0], x[1]
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// layerOf maps a span name to the per-layer metric its self time feeds.
var layerOf = map[string]string{
	"client.SolveRaw":    "client.encode_us",
	"client.Submit":      "client.encode_us",
	"client.Stream":      "client.encode_us",
	"transport":          "transport.self_us",
	"service.ServeHTTP":  "service.self_us",
	"wire.decode":        "wire.decode_us",
	"wire.key":           "wire.key_us",
	"wire.encode_plan":   "wire.encode_plan_us",
	"engine.execute":     "engine.self_us",
	"core.solve":         "core.solve_us",
	"core.repair":        "core.repair_us",
	"maxflow.verify":     "maxflow.verify_us",
	"planstore.rendered": "planstore.rendered_us",
	"planstore.neighbor": "planstore.neighbor_us",
	"planstore.persist":  "planstore.persist_us",
}

// layerSelf sums self times per request and layer: out[layer][req].
func layerSelf(spans []span) (map[string]map[int]time.Duration, error) {
	self := selfTimes(spans)
	out := make(map[string]map[int]time.Duration)
	for i, s := range spans {
		if s.End == 0 {
			return nil, fmt.Errorf("span %q of request %d never ended", s.Name, s.Req)
		}
		layer, ok := layerOf[s.Name]
		if !ok {
			return nil, fmt.Errorf("span %q maps to no layer", s.Name)
		}
		if out[layer] == nil {
			out[layer] = make(map[int]time.Duration)
		}
		out[layer][s.Req] += self[i]
	}
	return out, nil
}

// atMedian is the breakdown of a median request: per layer, the
// median self time over the client requests whose end-to-end time (the
// client root spans) lies between its 40th and 60th percentiles, with
// the number of those requests. Medians over all requests would not add
// up: request sizes vary (n varies threefold on solve-miss) and a stall
// inflates one layer of one request, and medians of skewed, correlated
// parts sum to less than the median of their sum.
func atMedian(spans []span, byLayer map[string]map[int]time.Duration) (map[string]time.Duration, int) {
	roots := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent == 0 && layerOf[s.Name] == "client.encode_us" {
			roots[s.Req] += s.End - s.Start
		}
	}
	reqs := make([]int, 0, len(roots))
	for req := range roots {
		reqs = append(reqs, req)
	}
	if len(reqs) == 0 {
		return nil, 0
	}
	sort.Slice(reqs, func(i, j int) bool { return roots[reqs[i]] < roots[reqs[j]] })
	mid := reqs[len(reqs)*2/5 : max(len(reqs)*3/5, len(reqs)*2/5+1)]
	out := make(map[string]time.Duration)
	for layer, byReq := range byLayer {
		xs := make([]float64, len(mid))
		for k, req := range mid {
			xs[k] = float64(byReq[req])
		}
		out[layer] = time.Duration(medianFloat(xs))
	}
	return out, len(mid)
}

// layerP50 is the median over requests of one layer's per-request self
// time, in microseconds, with the request count it rests on.
func layerP50(byReq map[int]time.Duration) (us float64, n int) {
	xs := make([]float64, 0, len(byReq))
	for _, d := range byReq {
		xs = append(xs, float64(d)/float64(time.Microsecond))
	}
	return medianFloat(xs), len(xs)
}

// tracedRT times the SDK's HTTP round trips: from handing the request
// to the transport until the response body is drained or closed.
type tracedRT struct {
	t    *tracer
	base http.RoundTripper
}

func (rt tracedRT) RoundTrip(r *http.Request) (*http.Response, error) {
	id := rt.t.begin("transport", rt.t.get(&rt.t.root), false)
	rt.t.set(&rt.t.transport, id)
	resp, err := rt.base.RoundTrip(r)
	if err != nil {
		rt.t.end(id)
		return nil, err
	}
	resp.Body = &spanBody{rc: resp.Body, done: func() { rt.t.end(id) }}
	return resp, nil
}

// spanBody ends its span when the body is drained or closed.
type spanBody struct {
	rc   io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.rc.Close()
}

// tracedHandler times Server.ServeHTTP under the open transport span.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin("service.ServeHTTP", t.get(&t.transport), false)
		t.set(&t.handler, id)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}
