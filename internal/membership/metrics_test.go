package membership

import (
	"math"
	"sort"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// Overlay-quality metrics the overlay tests read. The paper's §6.1 argues view quality through
// the in-degree distribution; these complement it with the two standard
// overlay statistics — average shortest-path length (drives dissemination
// latency) and clustering coefficient (drives redundant gossip): a healthy
// lpbcast overlay looks like a random graph with degree l — short paths,
// low clustering.

// averagePathLength returns the mean shortest-path length between ordered
// reachable pairs in the directed view graph, and the eccentricity-style
// diameter (longest shortest path found). Unreachable pairs are excluded;
// the boolean reports whether every ordered pair was reachable.
func (g Graph) averagePathLength() (mean float64, diameter int, connected bool) {
	nodes := g.nodes()
	if len(nodes) < 2 {
		return 0, 0, true
	}
	totalDist, pairs := 0, 0
	connected = true
	for _, src := range nodes {
		dist := g.bfs(src)
		for _, dst := range nodes {
			if dst == src {
				continue
			}
			d, ok := dist[dst]
			if !ok {
				connected = false
				continue
			}
			totalDist += d
			pairs++
			if d > diameter {
				diameter = d
			}
		}
	}
	if pairs == 0 {
		return 0, 0, false
	}
	return float64(totalDist) / float64(pairs), diameter, connected
}

// bfs returns shortest hop counts from src along directed view edges.
func (g Graph) bfs(src proto.ProcessID) map[proto.ProcessID]int {
	dist := map[proto.ProcessID]int{src: 0}
	queue := []proto.ProcessID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g[cur] {
			if _, seen := dist[next]; !seen {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

// clusteringCoefficient returns the mean local clustering coefficient of
// the view graph treated as undirected: for each process, the fraction of
// its neighbour pairs that are themselves connected. Random graphs with
// degree l have coefficient ≈ l/n; cliquish overlays score much higher.
func (g Graph) clusteringCoefficient() float64 {
	und := map[proto.ProcessID]map[proto.ProcessID]bool{}
	link := func(a, b proto.ProcessID) {
		if a == b {
			return
		}
		if und[a] == nil {
			und[a] = map[proto.ProcessID]bool{}
		}
		if und[b] == nil {
			und[b] = map[proto.ProcessID]bool{}
		}
		und[a][b] = true
		und[b][a] = true
	}
	for p, view := range g {
		for _, q := range view {
			link(p, q)
		}
	}
	total, counted := 0.0, 0
	for _, neigh := range und {
		ns := make([]proto.ProcessID, 0, len(neigh))
		for q := range neigh {
			ns = append(ns, q)
		}
		if len(ns) < 2 {
			continue
		}
		links := 0
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if und[ns[i]][ns[j]] {
					links++
				}
			}
		}
		possible := len(ns) * (len(ns) - 1) / 2
		total += float64(links) / float64(possible)
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// nodes returns every process appearing in the graph (owner or member),
// sorted for determinism.
func (g Graph) nodes() []proto.ProcessID {
	set := map[proto.ProcessID]bool{}
	for p, view := range g {
		set[p] = true
		for _, q := range view {
			set[q] = true
		}
	}
	out := make([]proto.ProcessID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestAveragePathLengthLine(t *testing.T) {
	t.Parallel()
	// 1 → 2 → 3: pairs (1,2)=1 (1,3)=2 (2,3)=1; reverse pairs unreachable.
	g := Graph{1: {2}, 2: {3}, 3: {}}
	mean, diameter, connected := g.averagePathLength()
	if connected {
		t.Error("one-way line reported strongly connected")
	}
	if want := (1 + 2 + 1) / 3.0; math.Abs(mean-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", mean, want)
	}
	if diameter != 2 {
		t.Errorf("diameter = %d, want 2", diameter)
	}
}

func TestAveragePathLengthRing(t *testing.T) {
	t.Parallel()
	// Bidirectional 4-ring: every pair at distance 1 or 2; mean = 4/3.
	g := Graph{1: {2, 4}, 2: {1, 3}, 3: {2, 4}, 4: {3, 1}}
	mean, diameter, connected := g.averagePathLength()
	if !connected {
		t.Error("ring not strongly connected")
	}
	if want := 4.0 / 3; math.Abs(mean-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", mean, want)
	}
	if diameter != 2 {
		t.Errorf("diameter = %d", diameter)
	}
}

func TestAveragePathLengthDegenerate(t *testing.T) {
	t.Parallel()
	if mean, d, conn := (Graph{}).averagePathLength(); mean != 0 || d != 0 || !conn {
		t.Error("empty graph metrics wrong")
	}
	if mean, _, conn := (Graph{1: {}}).averagePathLength(); mean != 0 || !conn {
		t.Error("singleton graph metrics wrong")
	}
	// Two isolated nodes: nothing reachable.
	if _, _, conn := (Graph{1: {}, 2: {}}).averagePathLength(); conn {
		t.Error("disconnected pair reported connected")
	}
}

func TestClusteringCoefficientTriangle(t *testing.T) {
	t.Parallel()
	g := Graph{1: {2, 3}, 2: {3}, 3: {}}
	if got := g.clusteringCoefficient(); math.Abs(got-1) > 1e-12 {
		t.Errorf("triangle clustering = %v, want 1", got)
	}
}

func TestClusteringCoefficientStar(t *testing.T) {
	t.Parallel()
	// A star has no triangles at all.
	g := Graph{1: {2, 3, 4, 5}}
	if got := g.clusteringCoefficient(); got != 0 {
		t.Errorf("star clustering = %v, want 0", got)
	}
	if got := (Graph{}).clusteringCoefficient(); got != 0 {
		t.Errorf("empty clustering = %v", got)
	}
}

func TestRandomOverlayLooksRandom(t *testing.T) {
	t.Parallel()
	// Uniform random views of size l over n processes: path length ≈
	// log(n)/log(l), clustering ≈ l/n — the properties lpbcast relies on.
	const n, l = 200, 8
	r := rng.New(3)
	g := Graph{}
	for i := 0; i < n; i++ {
		var view []proto.ProcessID
		for _, j := range r.Sample(n-1, l) {
			if j >= i {
				j++
			}
			view = append(view, proto.ProcessID(j+1))
		}
		g[proto.ProcessID(i+1)] = view
	}
	mean, diameter, connected := g.averagePathLength()
	if !connected {
		t.Fatal("random overlay not strongly connected")
	}
	expected := math.Log(n) / math.Log(l)
	if mean < expected-1 || mean > expected+1.5 {
		t.Errorf("path length %v, want ≈%v", mean, expected)
	}
	if diameter > 7 {
		t.Errorf("diameter = %d, want small", diameter)
	}
	cc := g.clusteringCoefficient()
	if cc > 5*float64(l)/float64(n)+0.05 {
		t.Errorf("clustering %v too high for a random overlay (l/n = %v)", cc, float64(l)/n)
	}
}
