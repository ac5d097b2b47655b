package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// testKeyFunc is a stand-in for wire.EncodeRequest: a deterministic
// canonical rendering of the request fields the cache must
// discriminate on.
func testKeyFunc(req Request) ([]byte, error) {
	doc := map[string]any{
		"solver":    req.Solver,
		"tolerance": req.Tolerance,
	}
	if req.Instance != nil {
		doc["b0"] = req.Instance.B0
		doc["open"] = req.Instance.OpenBW
		doc["guarded"] = req.Instance.GuardedBW
	}
	return json.Marshal(doc)
}

// testKey is the content address testKeyFunc gives req.
func testKey(req Request) [sha256.Size]byte {
	data, _ := testKeyFunc(req)
	return sha256.Sum256(data)
}

// countingRegistry returns a registry with one solver that counts its
// invocations.
func countingRegistry(t *testing.T, calls *atomic.Int64) *Registry {
	t.Helper()
	r := NewRegistry()
	r.MustRegister(NewSolver("acyclic", CapExact|CapHandlesGuarded|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			calls.Add(1)
			T, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s}, nil
		}))
	return r
}

func cacheFig1() *platform.Instance {
	return platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
}

func TestCacheHitSkipsSolver(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	first, err := r.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1 (second request must be a cache hit)", calls.Load())
	}
	if first != second {
		t.Error("cache hit returned a different *Plan than the memoized one")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestCacheDiscriminatesRequests(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	insA, insB := cacheFig1(), platform.MustInstance(6, []float64{5, 4}, []float64{4, 1, 1})

	for _, req := range []Request{
		NewRequest(insA, WithSolver("acyclic"), WithCache(c)),
		NewRequest(insB, WithSolver("acyclic"), WithCache(c)),
		NewRequest(insA, WithSolver("acyclic"), WithTolerance(1e-9), WithCache(c)),
	} {
		if _, err := r.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("solver ran %d times, want 3 (distinct requests must not collide)", calls.Load())
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 0 hits / 3 misses", st)
	}
}

// TestCacheSingleflight floods one cache with identical concurrent
// requests (run under -race in CI): exactly one solve must happen, and
// every caller gets the same plan.
func TestCacheSingleflight(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	const clients = 32
	plans := make([]*Plan, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = r.Execute(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("client %d got a different plan pointer", i)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times under concurrent identical load, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != clients-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+shared", st, clients-1)
	}
}

func TestCacheLRUBound(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(2, testKeyFunc)
	reqFor := func(b0 float64) Request {
		return NewRequest(platform.MustInstance(b0, []float64{5, 5}, nil),
			WithSolver("acyclic"), WithCache(c))
	}
	for _, b0 := range []float64{6, 7, 8} { // third insert evicts b0=6
		if _, err := r.Execute(context.Background(), reqFor(b0)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// b0=6 was evicted: re-solving it is a miss; b0=8 is still warm.
	if _, err := r.Execute(context.Background(), reqFor(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(context.Background(), reqFor(8)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("solver ran %d times, want 4 (3 cold + 1 evicted re-solve)", calls.Load())
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	var calls atomic.Int64
	r := NewRegistry()
	r.MustRegister(NewSolver("failing", CapAnytime,
		func(*platform.Instance, *core.Workspace) (Result, error) {
			calls.Add(1)
			return Result{}, fmt.Errorf("%w: synthetic failure", ErrInfeasible)
		}))
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("failing"), WithCache(c))
	for i := 0; i < 2; i++ {
		if _, err := r.Execute(context.Background(), req); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("attempt %d: err = %v, want ErrInfeasible", i, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("solver ran %d times, want 2 (errors must not be memoized)", calls.Load())
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed solves landed in the cache: %+v", st)
	}
}

// TestCacheFollowerSurvivesCanceledLeader: a follower whose own context
// is alive must not inherit the leader's cancellation — it takes over
// the flight and solves.
func TestCacheFollowerSurvivesCanceledLeader(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	var attempt atomic.Int64
	r := NewRegistry()
	r.MustRegister(NewSolver("slow", CapAnytime,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			if attempt.Add(1) == 1 {
				close(started)
				<-block // leader parks here until canceled
				return Result{}, context.Canceled
			}
			return Result{Throughput: ins.B0}, nil // follower's retry
		}))
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("slow"), WithCache(c))

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := r.Execute(leaderCtx, req)
		leaderDone <- err
	}()
	<-started // leader is inside the solver

	followerDone := make(chan error, 1)
	go func() {
		_, err := r.Execute(context.Background(), req)
		followerDone <- err
	}()

	cancelLeader()
	close(block)
	if err := <-leaderDone; !errors.Is(err, ErrCanceled) {
		t.Fatalf("leader err = %v, want ErrCanceled", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower failed after leader cancellation: %v", err)
	}
	if attempt.Load() != 2 {
		t.Fatalf("solver attempts = %d, want 2 (follower takes over the flight)", attempt.Load())
	}
}

// TestCacheExecuteRendered: the byte-level path memoizes the rendered
// document; hits return identical bytes without re-running the solver
// or the renderer, and plan-path entries upgrade in place.
func TestCacheExecuteRendered(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))
	var renders atomic.Int64
	render := func(p *Plan) ([]byte, error) {
		renders.Add(1)
		return json.Marshal(map[string]float64{"throughput": p.Throughput})
	}
	ctx := context.Background()

	first, info, err := c.ExecuteRendered(ctx, r, req, render)
	if err != nil || info.Hit {
		t.Fatalf("cold call: info=%+v err=%v", info, err)
	}
	second, info, err := c.ExecuteRendered(ctx, r, req, render)
	if err != nil || !info.Hit {
		t.Fatalf("warm call: info=%+v err=%v", info, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("rendered bytes differ: %s vs %s", first, second)
	}
	if calls.Load() != 1 || renders.Load() != 1 {
		t.Fatalf("solver/render calls = %d/%d, want 1/1", calls.Load(), renders.Load())
	}
	// A lookup by content address answers the same bytes as one hit.
	if out, ok := c.Lookup(testKey(req)); !ok || !bytes.Equal(out, first) || c.Stats().Hits != 2 {
		t.Fatalf("Lookup = %q, %v with %d hits, want the rendered bytes as hit 2", out, ok, c.Stats().Hits)
	}

	// A plan cached through the plan-only path renders exactly once when
	// the byte path first sees it; until then Lookup has no bytes.
	other := NewRequest(cacheFig1(), WithSolver("acyclic"), WithTolerance(1e-9), WithCache(c))
	if _, err := r.Execute(ctx, other); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(testKey(other)); ok {
		t.Fatal("Lookup answered a plan that was never rendered")
	}
	before := renders.Load()
	out1, info, err := c.ExecuteRendered(ctx, r, other, render)
	if err != nil || !info.Hit {
		t.Fatalf("upgrade call: info=%+v err=%v", info, err)
	}
	out2, _, err := c.ExecuteRendered(ctx, r, other, render)
	if err != nil || !bytes.Equal(out1, out2) {
		t.Fatalf("upgraded entry unstable: %v", err)
	}
	if renders.Load() != before+1 {
		t.Fatalf("renders after upgrade = %d, want %d", renders.Load(), before+1)
	}
	// And the plan path still answers from the same entry.
	if _, err := r.Execute(ctx, other); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("solver calls = %d, want 2", calls.Load())
	}
}

// TestCacheLookupKeepsEntryWarm: a Lookup hit bumps recency, so
// eviction takes the untouched entry, not the looked-up one.
func TestCacheLookupKeepsEntryWarm(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(2, testKeyFunc)
	render := func(p *Plan) ([]byte, error) { return []byte("plan"), nil }
	reqFor := func(b0 float64) Request {
		return NewRequest(platform.MustInstance(b0, []float64{5, 5}, nil), WithSolver("acyclic"))
	}
	solve := func(b0 float64) {
		if _, _, err := c.ExecuteRendered(context.Background(), r, reqFor(b0), render); err != nil {
			t.Fatal(err)
		}
	}
	solve(6)
	solve(7)
	if _, ok := c.Lookup(testKey(reqFor(6))); !ok {
		t.Fatal("Lookup missed a cached entry")
	}
	solve(8) // evicts the least recently used entry
	if _, ok := c.Lookup(testKey(reqFor(6))); !ok {
		t.Fatal("looked-up entry evicted ahead of an untouched one")
	}
	if _, ok := c.Lookup(testKey(reqFor(7))); ok {
		t.Fatal("untouched entry survived eviction over a looked-up one")
	}
}

// TestCacheFillIsMemoryOnly: a Fill answers lookups from the fill tier
// and, unlike PutRendered, never reaches the store.
func TestCacheFillIsMemoryOnly(t *testing.T) {
	c := NewCache(8, testKeyFunc)
	store := &mockPlanStore{}
	c.SetStore(store)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"))
	c.Fill(testKey(req), []byte("plan:from-owner"))
	out, ok := c.Lookup(testKey(req))
	if st := c.Stats(); !ok || string(out) != "plan:from-owner" || st.FillEntries != 1 || store.persists != 0 {
		t.Fatalf("after Fill: out=%q ok=%v stats=%+v persists=%d", out, ok, st, store.persists)
	}
	c.PutRendered(req, []byte("plan:owned"))
	if store.persists != 1 {
		t.Fatalf("PutRendered persisted %d documents, want 1", store.persists)
	}
}

// TestCachePutRenderedServesByteHits pins the cluster back-fill path:
// a pre-rendered document stored with PutRendered answers the rendered
// execute path without ever running the solver, and a later plan-path
// caller solves once and merges into the same entry.
func TestCachePutRenderedServesByteHits(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"))
	render := func(p *Plan) ([]byte, error) {
		return []byte(fmt.Sprintf("plan:%.6f", p.Throughput)), nil
	}

	doc := []byte("plan:filled-by-peer")
	if !c.PutRendered(req, doc) {
		t.Fatal("PutRendered refused an encodable request")
	}
	out, info, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit || !bytes.Equal(out, doc) {
		t.Fatalf("info=%+v out=%q, want the filled document", info, out)
	}
	if calls.Load() != 0 {
		t.Fatalf("solver ran %d times answering a filled entry", calls.Load())
	}

	// A plan-path caller needs the *Plan the fill does not carry: it
	// solves once and the entry keeps serving the original rendering.
	plan, err := c.execute(context.Background(), r, req)
	if err != nil || plan == nil {
		t.Fatalf("plan=%v err=%v", plan, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times for the plan path, want exactly 1", calls.Load())
	}
	out2, info2, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || !info2.Hit || !bytes.Equal(out2, doc) {
		t.Fatalf("after merge: info=%+v out=%q err=%v (first rendering must win)", info2, out2, err)
	}
	if st := c.Stats(); st.Entries != 1 || st.FillEntries != 0 {
		t.Fatalf("entries = %+v, want 1 plan entry (fill and solve merged and promoted)", st)
	}

	// Filling an existing entry never clobbers its rendering.
	if !c.PutRendered(req, []byte("plan:other")) {
		t.Fatal("PutRendered on existing entry")
	}
	out3, _, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || !bytes.Equal(out3, doc) {
		t.Fatalf("refill clobbered the stored rendering: %q", out3)
	}
}

// TestCacheBackfillStormKeepsPlans is the eviction-tier regression: a
// flood of rendered-only PutRendered fills (a cluster back-fill storm)
// must wash out other fills, never the solved plans sharing the cache.
func TestCacheBackfillStormKeepsPlans(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(4, testKeyFunc)
	reqFor := func(b0 float64) Request {
		return NewRequest(platform.MustInstance(b0, []float64{5, 5}, nil),
			WithSolver("acyclic"), WithCache(c))
	}
	for _, b0 := range []float64{6, 7, 8} {
		if _, err := r.Execute(context.Background(), reqFor(b0)); err != nil {
			t.Fatal(err)
		}
	}
	const storm = 100
	for i := 0; i < storm; i++ {
		req := NewRequest(platform.MustInstance(100+float64(i), []float64{5, 5}, nil),
			WithSolver("acyclic"))
		if !c.PutRendered(req, []byte(fmt.Sprintf("fill:%d", i))) {
			t.Fatalf("fill %d refused", i)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.FillEntries != 1 {
		t.Fatalf("after storm: %+v, want 3 plan entries / 1 fill", st)
	}
	if st.Evictions != storm-1 {
		t.Fatalf("evictions = %d, want %d (only fills evict fills)", st.Evictions, storm-1)
	}
	// Every solved plan is still warm: no re-solve.
	for _, b0 := range []float64{6, 7, 8} {
		if _, err := r.Execute(context.Background(), reqFor(b0)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("solver ran %d times, want 3 (storm must not evict solved plans)", calls.Load())
	}
}

// mockPlanStore scripts the PlanStore interface for cache tests.
type mockPlanStore struct {
	mu       sync.Mutex
	rendered map[[sha256.Size]byte][]byte
	neighbor *NeighborPlan
	persists int
	warmHeld []bool
}

func (m *mockPlanStore) Rendered(key [sha256.Size]byte) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out, ok := m.rendered[key]
	return out, ok
}

func (m *mockPlanStore) Neighbor(Request) (NeighborPlan, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.neighbor == nil {
		return NeighborPlan{}, false
	}
	return *m.neighbor, true
}

func (m *mockPlanStore) Persist(req Request, reqDoc, planDoc []byte, word core.Word) {
	m.mu.Lock()
	m.persists++
	m.mu.Unlock()
}

func (m *mockPlanStore) NoteWarmStart(held bool) {
	m.mu.Lock()
	m.warmHeld = append(m.warmHeld, held)
	m.mu.Unlock()
}

// mockIncRegistry registers an "acyclic" solver whose repair entry is
// scripted: it records the warm-start word it was handed and reports
// FellBack per the test's wish, solving fresh internally so the result
// is always exact.
func mockIncRegistry(solves, repairs *atomic.Int64, lastPrev *core.Word, fellBack bool, repairErr error) *Registry {
	r := NewRegistry()
	r.MustRegister(NewIncrementalSolver("acyclic", CapExact|CapHandlesGuarded|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			solves.Add(1)
			T, s, w, err := core.SolveAcyclicWordWithWorkspace(ins, ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s, Word: w}, nil
		},
		func(ins *platform.Instance, prev core.Word, ws *core.Workspace) (core.RepairResult, error) {
			repairs.Add(1)
			if lastPrev != nil {
				*lastPrev = prev
			}
			if repairErr != nil {
				return core.RepairResult{}, repairErr
			}
			T, s, w, err := core.SolveAcyclicWordWithWorkspace(ins, ws)
			if err != nil {
				return core.RepairResult{}, err
			}
			return core.RepairResult{T: T, Scheme: s, Word: w, Verified: T, FellBack: fellBack}, nil
		}))
	return r
}

// TestCacheStoreDiskHit: an exact document persisted by an earlier
// process answers the rendered path byte-identical with no solve.
func TestCacheStoreDiskHit(t *testing.T) {
	var solves atomic.Int64
	r := countingRegistry(t, &solves)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))
	doc := []byte(`{"persisted":true}`)
	store := &mockPlanStore{rendered: map[[sha256.Size]byte][]byte{testKey(req): doc}}
	c.SetStore(store)

	render := func(p *Plan) ([]byte, error) { return nil, fmt.Errorf("must not render a disk hit") }
	out, info, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || !info.Hit || info.Warm {
		t.Fatalf("info=%+v err=%v, want a plain hit", info, err)
	}
	if !bytes.Equal(out, doc) {
		t.Fatalf("out=%q, want the persisted document byte-identical", out)
	}
	if solves.Load() != 0 {
		t.Fatalf("solver ran %d times answering a persisted document", solves.Load())
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want the disk answer counted as a hit", st)
	}
}

// TestCacheStoreWarmStart: a neighbor's word seeds the repair path; the
// repair holds, so the answer is warm — and NOT re-spilled (admission
// policy: a repaired plan sits within edit budget of the entry that
// served it, so persisting it adds no similarity coverage).
func TestCacheStoreWarmStart(t *testing.T) {
	var solves, repairs atomic.Int64
	var prev core.Word
	r := mockIncRegistry(&solves, &repairs, &prev, false, nil)
	c := NewCache(8, testKeyFunc)
	nbWord, err := core.ParseWord("gogog")
	if err != nil {
		t.Fatal(err)
	}
	store := &mockPlanStore{neighbor: &NeighborPlan{Word: nbWord, Distance: 2}}
	c.SetStore(store)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))
	render := func(p *Plan) ([]byte, error) { return json.Marshal(p.Throughput) }

	out, info, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || len(out) == 0 {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if info.Hit || !info.Warm || info.Distance != 2 {
		t.Fatalf("info=%+v, want a held warm start at distance 2", info)
	}
	if repairs.Load() != 1 || solves.Load() != 0 {
		t.Fatalf("repairs/solves = %d/%d, want 1/0 (warm start routes through repair)", repairs.Load(), solves.Load())
	}
	if prev.String() != nbWord.String() {
		t.Fatalf("repair saw warm word %q, want the neighbor's %q", prev, nbWord)
	}
	plan, err := c.execute(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.WarmStarted || plan.NeighborDistance != 2 || !plan.Repaired {
		t.Fatalf("plan provenance = warm:%v dist:%d repaired:%v", plan.WarmStarted, plan.NeighborDistance, plan.Repaired)
	}
	store.mu.Lock()
	persists, warmHeld := store.persists, append([]bool(nil), store.warmHeld...)
	store.mu.Unlock()
	if persists != 0 {
		t.Fatalf("persists = %d, want 0 (a held repair is not re-spilled)", persists)
	}
	if len(warmHeld) != 1 || !warmHeld[0] {
		t.Fatalf("warm outcomes = %v, want one held", warmHeld)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want the warm solve counted as a miss and the re-read as a hit", st)
	}
}

// TestCacheStoreWarmFallback: the repair deviates (FellBack) — the
// answer is exact but not warm, and the store hears about the fallback.
func TestCacheStoreWarmFallback(t *testing.T) {
	var solves, repairs atomic.Int64
	r := mockIncRegistry(&solves, &repairs, nil, true, nil)
	c := NewCache(8, testKeyFunc)
	nbWord, err := core.ParseWord("ggggg")
	if err != nil {
		t.Fatal(err)
	}
	store := &mockPlanStore{neighbor: &NeighborPlan{Word: nbWord, Distance: 4}}
	c.SetStore(store)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	plan, err := c.execute(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.WarmStarted || plan.Repaired {
		t.Fatalf("warm:%v repaired:%v, want an attempted warm start that fell back", plan.WarmStarted, plan.Repaired)
	}
	store.mu.Lock()
	warmHeld := append([]bool(nil), store.warmHeld...)
	store.mu.Unlock()
	if len(warmHeld) != 1 || warmHeld[0] {
		t.Fatalf("warm outcomes = %v, want one fallback", warmHeld)
	}
}

// TestCacheStoreWarmErrorRetriesCold: a repair-path failure must never
// fail a request the cold path would have answered.
func TestCacheStoreWarmErrorRetriesCold(t *testing.T) {
	var solves, repairs atomic.Int64
	r := mockIncRegistry(&solves, &repairs, nil, false, fmt.Errorf("synthetic repair failure"))
	c := NewCache(8, testKeyFunc)
	nbWord, err := core.ParseWord("ooggg")
	if err != nil {
		t.Fatal(err)
	}
	store := &mockPlanStore{neighbor: &NeighborPlan{Word: nbWord, Distance: 1}}
	c.SetStore(store)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	plan, err := c.execute(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	if repairs.Load() != 1 || solves.Load() != 1 {
		t.Fatalf("repairs/solves = %d/%d, want 1/1 (failed warm retries cold once)", repairs.Load(), solves.Load())
	}
	if plan.WarmStarted || plan.Repaired {
		t.Fatalf("warm:%v repaired:%v, want a clean cold answer", plan.WarmStarted, plan.Repaired)
	}
}

// TestCacheByteBudget: beside the entry bound, the cache keeps its
// estimated bytes under the budget — fills first, oldest first — yet
// never evicts its last entry, however large.
func TestCacheByteBudget(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(1024, testKeyFunc)
	doc := 1000
	render := func(p *Plan) ([]byte, error) { return make([]byte, doc), nil }
	solve := func(b0 float64) {
		t.Helper()
		req := NewRequest(platform.MustInstance(b0, []float64{5, 5}, nil), WithSolver("acyclic"))
		if _, _, err := c.ExecuteRendered(context.Background(), r, req, render); err != nil {
			t.Fatal(err)
		}
	}
	solve(6)
	weight := c.bytes // one plan entry: the document plus its scheme estimate
	if weight <= int64(doc) {
		t.Fatalf("plan entry weighs %d, want more than its %d-byte document", weight, doc)
	}
	c.budget = 2 * weight
	solve(7)
	solve(8) // third plan: over budget, evicts b0=6
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 || c.bytes != 2*weight {
		t.Fatalf("after 3 plans: %+v, bytes %d; want 2 entries, 1 eviction, %d bytes", st, c.bytes, 2*weight)
	}
	// A fill pushes the cache over budget: fills go first, so the plans stay.
	c.Fill([sha256.Size]byte{1}, make([]byte, doc))
	if st := c.Stats(); st.Entries != 2 || st.FillEntries != 0 || st.Evictions != 2 {
		t.Fatalf("after fill: %+v; want the fill evicted, both plans kept", st)
	}
	solve(7)
	solve(8)
	if calls.Load() != 3 {
		t.Fatalf("solver ran %d times, want 3 (b0=7 and 8 still cached)", calls.Load())
	}
	// A plan larger than the whole budget evicts everything else but stays.
	doc = int(10 * weight)
	solve(9)
	if st := c.Stats(); st.Entries != 1 || st.FillEntries != 0 {
		t.Fatalf("oversized plan: %+v; want it alone in the cache", st)
	}
	solve(9)
	if calls.Load() != 4 {
		t.Fatalf("solver ran %d times, want 4 (the oversized plan stays cached)", calls.Load())
	}
}

// TestCacheByteBudgetSpareForPaperSizes: at the default budget a full
// cache of n=200 plans (the mean of the n=100–300 /v1/solve mix),
// rendered at ~33 KB each, stays under the byte bound and so evicts by
// count alone.
func TestCacheByteBudgetSpareForPaperSizes(t *testing.T) {
	ins, err := generator.Random(distribution.Unif100(), 200, 0.6, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, s, _, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := &cacheEntry{plan: &Plan{Result: Result{Scheme: s, Edges: s.NumEdges()}}, rendered: make([]byte, 33<<10)}
	if w := entryBytes(e); w*DefaultCacheEntries > cacheBudget {
		t.Fatalf("an n=200 entry weighs %d B: %d of them exceed the %d B budget", w, DefaultCacheEntries, cacheBudget)
	}
}
