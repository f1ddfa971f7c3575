package membership

import (
	"sort"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

func TestComponentsConnected(t *testing.T) {
	t.Parallel()
	g := Graph{
		1: {2},
		2: {3},
		3: {1},
	}
	comps := g.Components()
	if len(comps) != 1 {
		t.Fatalf("components = %v", comps)
	}
	if g.Partitioned() {
		t.Fatal("connected graph reported partitioned")
	}
}

func TestComponentsPartitioned(t *testing.T) {
	t.Parallel()
	g := Graph{
		1: {2},
		2: {1},
		3: {4},
		4: {3},
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v, want 2", comps)
	}
	if !g.Partitioned() {
		t.Fatal("partitioned graph not detected")
	}
	// Deterministic ordering: by smallest member.
	if comps[0][0] != 1 || comps[1][0] != 3 {
		t.Fatalf("component order = %v", comps)
	}
}

func TestComponentsWeakConnectivity(t *testing.T) {
	t.Parallel()
	// One-directional knowledge still connects: 1 knows 2, 2 knows nobody.
	g := Graph{
		1: {2},
		2: {},
	}
	if len(g.Components()) != 1 {
		t.Fatal("one-directional edge did not connect")
	}
}

func TestComponentsIncludesViewOnlyProcesses(t *testing.T) {
	t.Parallel()
	// Process 9 appears only inside a view, never as an owner.
	g := Graph{1: {9}}
	comps := g.Components()
	if len(comps) != 1 || len(comps[0]) != 2 {
		t.Fatalf("components = %v", comps)
	}
}

func TestComponentsEmpty(t *testing.T) {
	t.Parallel()
	g := Graph{}
	if comps := g.Components(); len(comps) != 0 {
		t.Fatalf("components of empty graph = %v", comps)
	}
	if g.Partitioned() {
		t.Fatal("empty graph reported partitioned")
	}
}

func TestInDegrees(t *testing.T) {
	t.Parallel()
	g := Graph{
		1: {2, 3},
		2: {3},
		3: {},
	}
	deg := g.InDegrees()
	if deg[1] != 0 || deg[2] != 1 || deg[3] != 2 {
		t.Fatalf("InDegrees = %v", deg)
	}
}

func TestInDegreeStats(t *testing.T) {
	t.Parallel()
	g := Graph{
		1: {2},
		2: {1},
	}
	mean, stddev, min, max := g.InDegreeStats()
	if mean != 1 || stddev != 0 || min != 1 || max != 1 {
		t.Fatalf("stats = %v %v %v %v", mean, stddev, min, max)
	}
	empty := Graph{}
	if m, s, mn, mx := empty.InDegreeStats(); m != 0 || s != 0 || mn != 0 || mx != 0 {
		t.Fatal("empty graph stats not zero")
	}
}

func TestIsolatedProcesses(t *testing.T) {
	t.Parallel()
	g := Graph{
		1: {2},
		2: {1},
		3: {1}, // 3 knows others but nobody knows 3
	}
	iso := isolatedProcesses(g)
	if len(iso) != 1 || iso[0] != 3 {
		t.Fatalf("isolated = %v", iso)
	}
}

// isolatedProcesses returns the processes that appear in no view at all:
// nobody knows them, so no gossip will ever reach them.
func isolatedProcesses(g Graph) []proto.ProcessID {
	var out []proto.ProcessID
	for p, d := range g.InDegrees() {
		if d == 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestManagersConvergeToConnectedGraph(t *testing.T) {
	t.Parallel()
	// Integration: n managers exchanging subs through simulated gossip stay
	// connected and the in-degree distribution stays reasonable.
	const n = 40
	cfg := DefaultConfig()
	cfg.MaxView = 6
	root := rng.New(5)
	managers := make([]*Manager, n)
	for i := range managers {
		m, err := NewManager(proto.ProcessID(i+1), cfg, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		managers[i] = m
	}
	// Bootstrap: ring topology.
	for i, m := range managers {
		m.Seed([]proto.ProcessID{proto.ProcessID((i+1)%n + 1)})
	}
	pick := root.Split()
	for round := 0; round < 60; round++ {
		type msg struct {
			to   int
			subs []proto.ProcessID
		}
		var msgs []msg
		for _, m := range managers {
			for _, target := range m.AppendTargets(nil, 3) {
				msgs = append(msgs, msg{to: int(target) - 1, subs: m.AppendSubs(nil)})
			}
		}
		pick.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		for _, mg := range msgs {
			managers[mg.to].ApplySubs(mg.subs)
		}
	}
	g := Graph{}
	for _, m := range managers {
		g[m.self] = m.View()
	}
	if g.Partitioned() {
		t.Fatalf("membership partitioned after gossip: %d components", len(g.Components()))
	}
	mean, _, min, _ := g.InDegreeStats()
	if mean < float64(cfg.MaxView)-1 {
		t.Errorf("mean in-degree %v, want ≈%d", mean, cfg.MaxView)
	}
	if min == 0 {
		t.Error("some process is known by nobody after 60 rounds")
	}
}

func TestConvergenceFromArbitraryConnectedTopologies(t *testing.T) {
	t.Parallel()
	// Property: starting from ANY connected seed topology — ring, star,
	// line, dense random — gossip mixing preserves connectivity and pulls
	// the in-degree distribution toward uniform.
	const n = 50
	topologies := map[string]func(i int) []proto.ProcessID{
		"ring": func(i int) []proto.ProcessID {
			return []proto.ProcessID{proto.ProcessID((i+1)%n + 1)}
		},
		"star": func(i int) []proto.ProcessID {
			if i == 0 {
				return []proto.ProcessID{2}
			}
			return []proto.ProcessID{1}
		},
		"line": func(i int) []proto.ProcessID {
			if i == n-1 {
				return []proto.ProcessID{proto.ProcessID(n - 1)}
			}
			return []proto.ProcessID{proto.ProcessID(i + 2)}
		},
	}
	for name, seeds := range topologies {
		name, seeds := name, seeds
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.MaxView = 6
			cfg.MaxSubs = 6
			root := rng.New(uint64(len(name)) * 1009)
			managers := make([]*Manager, n)
			for i := range managers {
				m, err := NewManager(proto.ProcessID(i+1), cfg, root.Split())
				if err != nil {
					t.Fatal(err)
				}
				m.Seed(seeds(i))
				managers[i] = m
			}
			for round := 0; round < 300; round++ {
				type msg struct {
					to   int
					subs []proto.ProcessID
				}
				var msgs []msg
				for _, m := range managers {
					for _, target := range m.AppendTargets(nil, 3) {
						msgs = append(msgs, msg{int(target) - 1, m.AppendSubs(nil)})
					}
				}
				for _, mg := range msgs {
					managers[mg.to].ApplySubs(mg.subs)
				}
			}
			g := Graph{}
			for _, m := range managers {
				g[m.self] = m.View()
			}
			if g.Partitioned() {
				t.Fatalf("%s topology partitioned after mixing", name)
			}
			mean, stddev, _, _ := g.InDegreeStats()
			if mean < float64(cfg.MaxView)-1 {
				t.Errorf("%s: mean in-degree %v, want ≈%d", name, mean, cfg.MaxView)
			}
			// A random overlay with mean degree 6 has in-degree stddev ≈
			// √6 ≈ 2.4; allow slack but catch hub-and-spoke shapes. (A
			// momentary in-degree of 0 for one process is Poisson noise,
			// so min is deliberately not asserted.)
			if stddev > 3*2.45 {
				t.Errorf("%s: in-degree stddev %v far from random-graph shape", name, stddev)
			}
			// Path lengths over reachable pairs must be random-graph short.
			plen, _, _ := g.averagePathLength()
			if plen > 4 {
				t.Errorf("%s: average path length %v too long for n=50, l=6", name, plen)
			}
		})
	}
}
