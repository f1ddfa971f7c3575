package lpbcast

import (
	"net/http"

	"repro/internal/ctl"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TransportStats is the unified transport counter ledger shared by the
// in-process network and the UDP transport.
type TransportStats = transport.Stats

// Occupancy is a node's buffer-occupancy snapshot: how full the event,
// digest, and membership buffers are — the live counterpart of the
// paper's §5 buffer-size experiments.
type Occupancy = ctl.Buffers

// LatencyCollector measures end-to-end publish-to-deliver latency from
// delivery trace events; attach one to every node of a group (the
// ControlPlane cluster option does this) and its histogram appears on
// the control plane's /metrics. It implements Tracer.
type LatencyCollector = ctl.Collector

// NewLatencyCollector creates an empty delivery-latency collector.
func NewLatencyCollector() *LatencyCollector { return ctl.NewCollector() }

// bufferReporter is the optional engine interface behind Occupancy; the
// core lpbcast engine implements it, custom engines may not.
type bufferReporter interface {
	PendingEvents() int
	DigestLen() int
	SubsLen() int
	UnsubsLen() int
}

// Occupancy reports the node's buffer occupancy. ok is false when the
// installed engine does not expose it (see WithEngine).
func (n *Node) Occupancy() (occ Occupancy, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.occupancyLocked()
}

// occupancyLocked is Occupancy with n.mu already held.
func (n *Node) occupancyLocked() (Occupancy, bool) {
	br, ok := n.engine.(bufferReporter)
	if !ok {
		return Occupancy{}, false
	}
	return Occupancy{
		PendingEvents: br.PendingEvents(),
		DigestLen:     br.DigestLen(),
		SubsLen:       br.SubsLen(),
		UnsubsLen:     br.UnsubsLen(),
	}, true
}

// TransportStats reports the node's transport counter ledger. ok is
// false when the transport does not keep one.
func (n *Node) TransportStats() (st TransportStats, ok bool) {
	sp, ok := n.tr.(transport.StatsProvider)
	if !ok {
		return TransportStats{}, false
	}
	return sp.Stats(), true
}

// controlSnapshot builds a node's control-plane snapshot under its lock.
func controlSnapshot(n *Node) ctl.Snapshot {
	n.mu.Lock()
	snap := ctl.Snapshot{
		ID:                n.id,
		View:              n.engine.View(),
		Stats:             n.engine.Stats(),
		DroppedDeliveries: n.dropped,
	}
	if occ, ok := n.occupancyLocked(); ok {
		snap.Buffers = &occ
	}
	n.mu.Unlock()
	return snap
}

// transportInjector unwraps the fault-injection surface of a node's
// transport: in-process endpoints expose their fabric, everything else
// (UDP sockets facing a real network) cannot inject.
func transportInjector(tr Transport) ctl.Injector {
	if ep, ok := tr.(*transport.Endpoint); ok {
		return ep.Network()
	}
	return nil
}

// nodeSource adapts a standalone Node to the control plane.
type nodeSource struct{ n *Node }

func (s nodeSource) IDs() []ProcessID { return []ProcessID{s.n.id} }

func (s nodeSource) Snapshot(id ProcessID) (ctl.Snapshot, bool) {
	if id != s.n.id {
		return ctl.Snapshot{}, false
	}
	return controlSnapshot(s.n), true
}

func (s nodeSource) TransportStats() TransportStats {
	st, _ := s.n.TransportStats()
	return st
}

func (s nodeSource) Injector() ctl.Injector { return transportInjector(s.n.tr) }

// NewControlHandler exposes a standalone node over the control-plane
// HTTP API (stats, buffer occupancy, /metrics; fault injection when the
// node runs on an in-process network). Mount it on any address:
//
//	go http.ListenAndServe("127.0.0.1:8080", lpbcast.NewControlHandler(node))
func NewControlHandler(n *Node) http.Handler {
	return ctl.NewServer(nodeSource{n: n}, nil)
}

// clusterSource adapts a Cluster to the control plane.
type clusterSource struct{ c *Cluster }

func (s clusterSource) IDs() []ProcessID {
	ids := make([]ProcessID, 0, len(s.c.nodes))
	for _, n := range s.c.nodes {
		if n != nil {
			ids = append(ids, n.id)
		}
	}
	return ids
}

func (s clusterSource) Snapshot(id ProcessID) (ctl.Snapshot, bool) {
	n := s.c.Node(id)
	if n == nil {
		return ctl.Snapshot{}, false
	}
	return controlSnapshot(n), true
}

func (s clusterSource) TransportStats() TransportStats { return s.c.network.Stats() }

func (s clusterSource) Injector() ctl.Injector { return s.c.network }

// ControlHandler exposes the cluster over the control-plane HTTP API:
// per-node and aggregate stats, Prometheus-style /metrics (including the
// delivery-latency histogram when the cluster was built with
// ControlPlane set), and live fault injection against the in-process
// network — topologies, loss, and partitions that cut and heal link
// classes while the cluster runs.
func (c *Cluster) ControlHandler() http.Handler {
	return ctl.NewServer(clusterSource{c: c}, c.collector)
}

// Collector returns the cluster's delivery-latency collector, or nil
// when the cluster was built without ControlPlane.
func (c *Cluster) Collector() *LatencyCollector { return c.collector }

// withAddedTracer attaches tr alongside any tracer the caller installed
// (WithTracer replaces; this composes).
func withAddedTracer(tr trace.Tracer) Option {
	return func(c *config) {
		if c.tracer == nil {
			c.tracer = tr
			return
		}
		c.tracer = trace.Multi{c.tracer, tr}
	}
}
