package lpbcast

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/transport"
)

// ClusterConfig shapes an in-process cluster (see NewCluster) — the
// library's equivalent of the paper's 125-workstation testbed, with one
// goroutine per process.
type ClusterConfig struct {
	// N is the number of nodes (ids 1..N).
	N int
	// LossProbability is the network's Bernoulli loss ε.
	LossProbability float64
	// MinDelay/MaxDelay bound per-message latency.
	MinDelay, MaxDelay time.Duration
	// GossipInterval is each node's gossip period T (default 20ms — scaled
	// down from the paper's period so local experiments run quickly).
	GossipInterval time.Duration
	// SeedViewSize is how many random peers each node's view starts with
	// (default: the configured view size).
	SeedViewSize int
	// Seed drives every random choice in the cluster.
	Seed uint64
	// NodeOptions apply to every node (view size, fanout, buffers, ...).
	NodeOptions []Option
	// Workers bounds the construction parallelism: engine and RNG setup
	// for the N nodes fans out across this many goroutines. 0 means
	// GOMAXPROCS. Construction is deterministic for any worker count —
	// every per-node random stream derives from (Seed, id) alone.
	Workers int
	// DeferStart leaves the nodes unstarted; call Cluster.Start when ready.
	// Useful to snapshot seeded views (Graph) before gossip mutates them.
	DeferStart bool
	// ControlPlane attaches a shared delivery-latency collector to every
	// node so Cluster.ControlHandler can serve the latency histogram on
	// /metrics. It composes with per-node WithTracer options.
	ControlPlane bool
}

// Cluster is a set of live Nodes on one in-process network.
type Cluster struct {
	network   *Network
	nodes     []*Node
	collector *LatencyCollector
}

// NewCluster builds (and, unless DeferStart is set, starts) an N-node
// cluster whose views are seeded with uniformly random peers, mirroring
// the uniform-view assumption of the paper's analysis.
//
// Construction is parallel: endpoints attach sequentially (cheap map
// inserts), then engine and RNG setup — the sequential bottleneck at
// N≥100k — fans out across Workers goroutines. Every node's randomness,
// including its seed view, derives deterministically from (Seed, id), so
// the same seed yields identical initial views for any worker count.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, errors.New("lpbcast: cluster needs at least 2 nodes")
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 20 * time.Millisecond
	}
	network := NewInprocNetwork(InprocConfig{
		LossProbability: cfg.LossProbability,
		MinDelay:        cfg.MinDelay,
		MaxDelay:        cfg.MaxDelay,
		Seed:            cfg.Seed,
	})
	c := &Cluster{network: network}
	if cfg.ControlPlane {
		c.collector = NewLatencyCollector()
	}
	c.nodes = make([]*Node, cfg.N)
	eps := make([]*transport.Endpoint, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ep, err := network.Attach(ProcessID(i + 1))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("lpbcast: attach node %d: %w", i+1, err)
		}
		eps[i] = ep
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.N {
		workers = cfg.N
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.N; i += workers {
				node, err := c.buildNode(cfg, eps[i], i)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				c.nodes[i] = node
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		c.Close()
		return nil, firstErr
	}
	if !cfg.DeferStart {
		c.Start()
	}
	return c, nil
}

// buildNode constructs and seed-views node i (id i+1). All randomness is a
// pure function of (cfg.Seed, i), keeping construction order-free.
func (c *Cluster) buildNode(cfg ClusterConfig, ep *transport.Endpoint, i int) (*Node, error) {
	id := ProcessID(i + 1)
	opts := append([]Option{
		WithGossipInterval(cfg.GossipInterval),
		WithRNGSeed(cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15),
	}, cfg.NodeOptions...)
	if c.collector != nil {
		// Applied after NodeOptions so a user WithTracer composes instead
		// of clobbering the cluster's collector.
		opts = append(opts, withAddedTracer(c.collector))
	}
	node, err := NewNode(id, ep, opts...)
	if err != nil {
		return nil, fmt.Errorf("lpbcast: node %d: %w", i+1, err)
	}
	// Uniform random seed view from the node's own (Seed, id)-derived
	// stream.
	l := cfg.SeedViewSize
	if l <= 0 {
		l = node.maxView
	}
	seedRNG := rng.New((cfg.Seed ^ 0x5eed) + uint64(i+1)*0x9e3779b97f4a7c15)
	seeds := make([]ProcessID, 0, l)
	for _, j := range seedRNG.Sample(cfg.N-1, l) {
		if j >= i {
			j++
		}
		seeds = append(seeds, proto.ProcessID(j+1))
	}
	node.engine.Seed(seeds)
	return node, nil
}

// Start launches every node's gossip loop. It is idempotent; NewCluster
// calls it unless DeferStart was set.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		if n != nil {
			n.Start()
		}
	}
}

// Nodes returns the cluster's nodes (index i has id i+1).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given id, or nil when no node with
// that id exists (ids run 1..N).
func (c *Cluster) Node(id ProcessID) *Node {
	if id == NilProcess || uint64(id) > uint64(len(c.nodes)) {
		return nil
	}
	return c.nodes[int(id)-1]
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.nodes) }

// Network returns the underlying in-process network.
func (c *Cluster) Network() *Network { return c.network }

// AwaitDelivery waits until node id has delivered event want, polling until
// timeout, and reports whether it did. It is a convenience for tests and
// examples.
func (c *Cluster) AwaitDelivery(id ProcessID, want EventID, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	node := c.Node(id)
	if node == nil {
		return false
	}
	for time.Now().Before(deadline) {
		node.mu.Lock()
		known := node.engine.Knows(want)
		node.mu.Unlock()
		if known {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// Close stops every node and the network.
func (c *Cluster) Close() error {
	for _, n := range c.nodes {
		if n != nil {
			_ = n.Close()
		}
	}
	return c.network.Close()
}

// Graph snapshots every node's current view as a membership graph for
// health analyses (components, in-degree distribution, path length).
func (c *Cluster) Graph() membership.Graph {
	g := membership.Graph{}
	for _, n := range c.nodes {
		g[n.ID()] = n.View()
	}
	return g
}
