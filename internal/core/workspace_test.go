package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/platform"
)

func workspaceTestInstance(seed int64, n, m int) *platform.Instance {
	rng := rand.New(rand.NewSource(seed))
	open := make([]float64, n)
	for i := range open {
		open[i] = 1 + 99*rng.Float64()
	}
	guarded := make([]float64, m)
	for i := range guarded {
		guarded[i] = 1 + 99*rng.Float64()
	}
	return platform.MustInstance(50+50*rng.Float64(), open, guarded)
}

// fingerprint renders solver outputs bit-exactly: floats as their
// IEEE-754 bits, words as strings, schemes as their edge lists with rate
// bits, errors as their messages.
func fingerprint(vals ...any) string {
	var b strings.Builder
	for _, v := range vals {
		switch v := v.(type) {
		case float64:
			fmt.Fprintf(&b, "%x ", math.Float64bits(v))
		case *Scheme:
			if v == nil {
				b.WriteString("<nil scheme> ")
				continue
			}
			for _, e := range v.Edges() {
				fmt.Fprintf(&b, "%d>%d:%x ", e.From, e.To, math.Float64bits(e.Weight))
			}
			fmt.Fprintf(&b, "T=%x ", math.Float64bits(v.Throughput()))
		case RepairResult:
			b.WriteString(fingerprint(v.T, v.Scheme, v.Word, v.Verified, v.FellBack))
		case error:
			fmt.Fprintf(&b, "err=%v ", v)
		default:
			fmt.Fprintf(&b, "%v ", v)
		}
	}
	return b.String()
}

// optimalWord is the dichotomic search's winning word and throughput,
// computed on a private workspace so both sides of a comparison start
// from the same input.
func optimalWord(t *testing.T, ins *platform.Instance) (float64, Word) {
	t.Helper()
	T, w, err := OptimalAcyclicThroughputWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	return T, w
}

// workspaceCase runs one entry point on ins with ws and fingerprints
// what it returns.
type workspaceCase struct {
	name string
	run  func(t *testing.T, ins *platform.Instance, ws *Workspace) string
}

// assertNilAndWarmAgree: every case returns bit-identical results on a
// nil workspace (a private fresh one) and on one warm, dirty workspace
// shared across every case and seed.
func assertNilAndWarmAgree(t *testing.T, instance func(seed int64) *platform.Instance, cases []workspaceCase) {
	t.Helper()
	ws := NewWorkspace()
	for seed := int64(1); seed <= 30; seed++ {
		ins := instance(seed)
		for _, c := range cases {
			fresh, warm := c.run(t, ins, nil), c.run(t, ins, ws)
			if fresh != warm {
				t.Fatalf("%s seed %d:\n nil  %s\n warm %s", c.name, seed, fresh, warm)
			}
		}
	}
}

// TestWithWorkspaceMatchesPlain: every entry point on mixed instances
// returns bit-identical results on a nil workspace and on a warm, dirty
// one.
func TestWithWorkspaceMatchesPlain(t *testing.T) {
	assertNilAndWarmAgree(t, func(seed int64) *platform.Instance {
		return workspaceTestInstance(seed, 4+int(seed)%8, int(seed)%6)
	}, []workspaceCase{
		{"OptimalAcyclicThroughput", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			return fingerprint(OptimalAcyclicThroughputWithWorkspace(ins, ws))
		}},
		{"FeasibleAcyclic", func(t *testing.T, ins *platform.Instance, ws *Workspace) string {
			T, _ := optimalWord(t, ins)
			return fingerprint(FeasibleAcyclicWithWorkspace(ins, T, ws), FeasibleAcyclicWithWorkspace(ins, T*1.01, ws))
		}},
		{"WordThroughput", func(t *testing.T, ins *platform.Instance, ws *Workspace) string {
			_, w := optimalWord(t, ins)
			return fingerprint(WordThroughputWithWorkspace(ins, w, ws))
		}},
		{"BuildScheme", func(t *testing.T, ins *platform.Instance, ws *Workspace) string {
			T, w := optimalWord(t, ins)
			return fingerprint(BuildSchemeWithWorkspace(ins, w, T*(1-1e-12), ws))
		}},
		{"BuildSchemeShaved", func(t *testing.T, ins *platform.Instance, ws *Workspace) string {
			T, w := optimalWord(t, ins)
			return fingerprint(BuildSchemeShaved(ins, w, T, ws, BuildSchemeWithWorkspace))
		}},
		{"SolveAcyclicWord", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			T, s, w, err := SolveAcyclicWordWithWorkspace(ins, ws)
			return fingerprint(T, s, w, err, s.ThroughputWithWorkspace(ws))
		}},
		{"RepairAcyclic/warm", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			prev, err := Omega2(ins.N(), ins.M())
			if err != nil {
				return fingerprint(err)
			}
			return fingerprint(RepairAcyclicWithWorkspace(ins, prev, ws))
		}},
		{"RepairAcyclic/cold", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			return fingerprint(RepairAcyclicWithWorkspace(ins, nil, ws))
		}},
		{"PackCyclicGuarded", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			return fingerprint(PackCyclicGuardedWithWorkspace(ins, OptimalCyclicThroughput(ins), ws))
		}},
		{"BestCanonical", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			return fingerprint(BestCanonicalThroughputWithWorkspace(ins, ws))
		}},
		{"TheoremWord", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			return fingerprint(TheoremWordThroughputWithWorkspace(ins, ws))
		}},
	})
}

// TestCyclicOpenWithWorkspaceMatchesPlain covers the Theorem 5.2
// constructor and its solver (open-only instances) the same way.
func TestCyclicOpenWithWorkspaceMatchesPlain(t *testing.T) {
	assertNilAndWarmAgree(t, func(seed int64) *platform.Instance {
		return workspaceTestInstance(100+seed, 5+int(seed), 0)
	}, []workspaceCase{
		{"CyclicOpen", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			return fingerprint(CyclicOpenWithWorkspace(ins, OptimalCyclicThroughput(ins), ws))
		}},
		{"SolveCyclicOpen", func(_ *testing.T, ins *platform.Instance, ws *Workspace) string {
			return fingerprint(SolveCyclicOpenWithWorkspace(ins, ws))
		}},
	})
}

// TestThroughputWorkspaceZeroSteadyStateAllocs: warm workspace
// throughput verification — the functional under every solver —
// allocates nothing.
func TestThroughputWorkspaceZeroSteadyStateAllocs(t *testing.T) {
	ins := workspaceTestInstance(7, 30, 30)
	_, s, _, err := SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	s.ThroughputWithWorkspace(ws) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		s.ThroughputWithWorkspace(ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ThroughputWithWorkspace allocates %.1f/op, want 0", allocs)
	}
	if FeasibleAcyclicWithWorkspace(ins, 1, ws); testing.AllocsPerRun(20, func() {
		FeasibleAcyclicWithWorkspace(ins, 1, ws)
	}) != 0 {
		t.Fatal("steady-state FeasibleAcyclicWithWorkspace allocates")
	}
	if got := ws.Stats(); got.FlowEvals == 0 || got.GreedyTests == 0 {
		t.Fatalf("stats not recorded: %+v", got)
	}
}

// TestInEdgesMatchesGraph: the direct in-edge scan agrees with the full
// graph materialization it replaced in CyclicOpen.
func TestInEdgesMatchesGraph(t *testing.T) {
	ins := workspaceTestInstance(13, 10, 10)
	_, s, _, err := SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	for j := 0; j < ins.Total(); j++ {
		direct := s.InEdges(j, nil)
		viaGraph := g.In(j)
		if len(direct) != len(viaGraph) {
			t.Fatalf("node %d: %d direct in-edges, %d via graph", j, len(direct), len(viaGraph))
		}
		for k := range direct {
			if direct[k] != viaGraph[k] {
				t.Fatalf("node %d in-edge %d: %+v vs %+v", j, k, direct[k], viaGraph[k])
			}
		}
	}
}
