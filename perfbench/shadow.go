package main

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/planstore"
	"repro/internal/platform"
	"repro/internal/wire"
)

// shadow replays the service's solve path in-process through each
// layer's public entry, in the order the service calls them, with a
// span around every call: the front cache (modelled here, since the
// service keeps it private), wire.DecodeRequest, Cache.ExecuteRendered
// with the key function, the plan store, the solver, the verify and
// wire.EncodePlan each wrapped. It sees the same requests in the same
// order as the server it shadows, so its caches and store evolve alike
// and every replayed answer must equal the served one byte for byte.
type shadow struct {
	t     *tracer
	reg   *engine.Registry
	cache *engine.Cache
	store *planstore.Store // nil without a store
	front *frontModel

	// Counts gathered on the replayed calls.
	verifies, verifyTargets int64
	solves, greedyTests     int64
	wordEvals               int64
	responses, respBytes    int64
}

// newShadow builds a shadow pipeline; storeDir "" means no plan store.
func newShadow(t *tracer, storeDir string) (*shadow, error) {
	sh := &shadow{t: t, front: newFrontModel(engine.DefaultCacheEntries)}
	sh.reg = engine.NewRegistry()
	err := sh.reg.Register(engine.NewIncrementalSolver("acyclic",
		engine.CapExact|engine.CapHandlesGuarded|engine.CapBuildsScheme, sh.solve, sh.repair))
	if err != nil {
		return nil, err
	}
	sh.cache = engine.NewCache(engine.DefaultCacheEntries, sh.key)
	if storeDir != "" {
		if sh.store, err = planstore.Open(planstore.Config{Dir: storeDir}); err != nil {
			return nil, err
		}
		sh.cache.SetStore(tracedStore{sh})
	}
	return sh, nil
}

func (sh *shadow) close() {
	if sh.store != nil {
		_ = sh.store.Close()
	}
}

// serveRequest replays one /v1/solve request, encoded as the SDK
// encodes it (the SDK's own encode is timed inside client.SolveRaw).
func (sh *shadow) serveRequest(ctx context.Context, req engine.Request, parent int) ([]byte, bool, error) {
	body, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, false, err
	}
	out, frontHit, err := sh.serve(ctx, body, parent)
	if err == nil {
		sh.responses++
		sh.respBytes += int64(len(out))
	}
	return out, frontHit, err
}

// serve replays one /v1/solve body. parent is the server's handler
// span the replayed calls are attributed to. frontHit reports that the
// service would answer from its front cache, which calls no other layer.
func (sh *shadow) serve(ctx context.Context, body []byte, parent int) (out []byte, frontHit bool, err error) {
	k := sha256.Sum256(body)
	if out, ok := sh.front.get(k); ok {
		return out, true, nil
	}
	id := sh.t.begin("wire.decode", parent, true)
	req, err := wire.DecodeRequest(body)
	sh.t.end(id)
	if err != nil {
		return nil, false, err
	}
	id = sh.t.begin("engine.execute", parent, true)
	sh.t.set(&sh.t.engine, id)
	out, _, err = sh.cache.ExecuteRendered(ctx, sh.reg, req, sh.render)
	sh.t.end(id)
	if err != nil {
		return nil, false, err
	}
	sh.front.put(k, out)
	return out, false, nil
}

// item replays one job item: Registry.Execute through the cache, as
// the job runner calls it, then the item's stream line encoding.
func (sh *shadow) item(ctx context.Context, req engine.Request, index int) (wire.Plan, []byte, error) {
	engine.WithCache(sh.cache)(&req)
	id := sh.t.begin("engine.execute", 0, false)
	sh.t.set(&sh.t.engine, id)
	plan, err := sh.reg.Execute(ctx, req)
	sh.t.end(id)
	if err != nil {
		return wire.Plan{}, nil, err
	}
	sh.note(plan)
	id = sh.t.begin("wire.encode_plan", 0, false)
	p := wire.FromPlan(plan)
	line, err := wire.MarshalCompact(jobLine{V: wire.Version, Index: index, Plan: &p})
	sh.t.end(id)
	sh.responses++
	sh.respBytes += int64(len(line))
	return p, line, err
}

// jobLine mirrors the service's NDJSON stream line for a solved item.
type jobLine struct {
	V     int        `json:"v"`
	Index int        `json:"index"`
	Plan  *wire.Plan `json:"plan,omitempty"`
}

// key is the cache's key function: the canonical request encoding.
func (sh *shadow) key(req engine.Request) ([]byte, error) {
	id := sh.t.begin("wire.key", sh.t.get(&sh.t.engine), false)
	defer sh.t.end(id)
	return wire.EncodeRequest(req)
}

// render is the cache's render function: wire.EncodePlan.
func (sh *shadow) render(p *engine.Plan) ([]byte, error) {
	sh.note(p)
	id := sh.t.begin("wire.encode_plan", sh.t.get(&sh.t.engine), false)
	defer sh.t.end(id)
	return wire.EncodePlan(p)
}

// note counts a freshly solved plan's evaluation counters.
func (sh *shadow) note(p *engine.Plan) {
	sh.solves++
	sh.greedyTests += p.Evals.GreedyTests
	sh.wordEvals += p.Evals.WordEvals
}

// solve is the registry's "acyclic" solver split into its core solve
// and the max-flow verify the engine runs after it for a request with
// a tolerance. Setting Result.Verified here makes the engine skip its
// own verify, which calls the same function on its own pooled
// workspace; verifying on a separate workspace keeps the solve's
// evaluation counters what the engine reports.
func (sh *shadow) solve(ins *platform.Instance, ws *core.Workspace) (engine.Result, error) {
	id := sh.t.begin("core.solve", sh.t.get(&sh.t.engine), false)
	T, s, w, err := core.SolveAcyclicWordWithWorkspace(ins, ws)
	sh.t.end(id)
	if err != nil {
		return engine.Result{}, err
	}
	vws := engine.AcquireWorkspace()
	id = sh.t.begin("maxflow.verify", sh.t.get(&sh.t.engine), false)
	v := s.ThroughputWithWorkspace(vws)
	sh.t.end(id)
	engine.ReleaseWorkspace(vws)
	sh.verifies++
	sh.verifyTargets += int64(ins.Total() - 1)
	return engine.Result{Throughput: T, Scheme: s, Word: w, Verified: v}, nil
}

// repair is the registry's warm-start entry, which verifies inside.
func (sh *shadow) repair(ins *platform.Instance, prev core.Word, ws *core.Workspace) (core.RepairResult, error) {
	id := sh.t.begin("core.repair", sh.t.get(&sh.t.engine), false)
	defer sh.t.end(id)
	return core.RepairAcyclicWithWorkspace(ins, prev, ws)
}

// tracedStore is the shadow's plan store with a span around each call.
type tracedStore struct{ sh *shadow }

func (s tracedStore) Rendered(k [sha256.Size]byte) ([]byte, bool) {
	id := s.sh.t.begin("planstore.rendered", s.sh.t.get(&s.sh.t.engine), false)
	defer s.sh.t.end(id)
	return s.sh.store.Rendered(k)
}

func (s tracedStore) Neighbor(req engine.Request) (engine.NeighborPlan, bool) {
	id := s.sh.t.begin("planstore.neighbor", s.sh.t.get(&s.sh.t.engine), false)
	defer s.sh.t.end(id)
	return s.sh.store.Neighbor(req)
}

func (s tracedStore) Persist(req engine.Request, reqDoc, planDoc []byte, word core.Word) {
	id := s.sh.t.begin("planstore.persist", s.sh.t.get(&s.sh.t.engine), false)
	defer s.sh.t.end(id)
	s.sh.store.Persist(req, reqDoc, planDoc, word)
}

func (s tracedStore) NoteWarmStart(held bool) { s.sh.store.NoteWarmStart(held) }

// frontModel mirrors the service's front cache: an LRU of response
// bytes keyed by the SHA-256 of the raw request body, written after a
// successful answer and bumped on every hit.
type frontModel struct {
	max     int
	lru     *list.List // of frontEntry, front = most recent
	entries map[[sha256.Size]byte]*list.Element
}

type frontEntry struct {
	key [sha256.Size]byte
	out []byte
}

func newFrontModel(max int) *frontModel {
	return &frontModel{max: max, lru: list.New(), entries: make(map[[sha256.Size]byte]*list.Element)}
}

func (f *frontModel) get(k [sha256.Size]byte) ([]byte, bool) {
	el, ok := f.entries[k]
	if !ok {
		return nil, false
	}
	f.lru.MoveToFront(el)
	return el.Value.(frontEntry).out, true
}

func (f *frontModel) put(k [sha256.Size]byte, out []byte) {
	if el, ok := f.entries[k]; ok {
		f.lru.MoveToFront(el)
		return
	}
	f.entries[k] = f.lru.PushFront(frontEntry{key: k, out: out})
	for f.lru.Len() > f.max {
		oldest := f.lru.Back()
		f.lru.Remove(oldest)
		delete(f.entries, oldest.Value.(frontEntry).key)
	}
}

// errMismatch reports a replayed answer that differs from the served one.
func errMismatch(i int) error {
	return fmt.Errorf("the replay of request %d differs from the served answer", i)
}
