package membership

import (
	"math"
	"sort"

	"repro/internal/proto"
)

// Graph is a snapshot of every process's view, used by the evaluation
// harness to measure membership health: partitions (§4.4) and the
// in-degree distribution (§6.1 "every process should ideally be known by
// exactly l other processes").
type Graph map[proto.ProcessID][]proto.ProcessID

// Components returns the weakly connected components of the view graph.
// The paper's partition condition — "two or more distinct subsets of
// processes ... in each of which no process knows about any process
// outside its partition" — holds exactly when there is more than one
// weakly connected component.
func (g Graph) Components() [][]proto.ProcessID {
	parent := make(map[proto.ProcessID]proto.ProcessID, len(g))
	var find func(p proto.ProcessID) proto.ProcessID
	find = func(p proto.ProcessID) proto.ProcessID {
		root, ok := parent[p]
		if !ok {
			parent[p] = p
			return p
		}
		if root == p {
			return p
		}
		r := find(root)
		parent[p] = r
		return r
	}
	union := func(a, b proto.ProcessID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for p, view := range g {
		find(p)
		for _, q := range view {
			union(p, q)
		}
	}
	byRoot := map[proto.ProcessID][]proto.ProcessID{}
	for p := range parent {
		r := find(p)
		byRoot[r] = append(byRoot[r], p)
	}
	out := make([][]proto.ProcessID, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Partitioned reports whether the view graph has split into two or more
// mutually unaware subsets.
func (g Graph) Partitioned() bool { return len(g.Components()) > 1 }

// InDegrees returns, for every process appearing in g (as owner or member),
// the number of views containing it.
func (g Graph) InDegrees() map[proto.ProcessID]int {
	deg := make(map[proto.ProcessID]int, len(g))
	for p := range g {
		if _, ok := deg[p]; !ok {
			deg[p] = 0
		}
	}
	for _, view := range g {
		for _, q := range view {
			deg[q]++
		}
	}
	return deg
}

// InDegreeStats summarizes the in-degree distribution: mean, population
// standard deviation, min and max. A perfectly uniform membership has
// stddev 0 and mean l.
func (g Graph) InDegreeStats() (mean, stddev float64, min, max int) {
	deg := g.InDegrees()
	if len(deg) == 0 {
		return 0, 0, 0, 0
	}
	first := true
	var sum, sumSq float64
	for _, d := range deg {
		if first || d < min {
			min = d
		}
		if first || d > max {
			max = d
		}
		first = false
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	n := float64(len(deg))
	mean = sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	stddev = math.Sqrt(variance)
	return mean, stddev, min, max
}
