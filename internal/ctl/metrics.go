package ctl

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/trace"
)

// latencyBuckets are the delivery-latency histogram bounds in seconds,
// spanning single-LAN-round (~ms) through multi-round WAN recovery.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// maxTrackedEvents bounds the Collector's publish-time table; oldest
// entries are evicted FIFO so a long-running node cannot grow without
// bound.
const maxTrackedEvents = 4096

// Collector measures end-to-end broadcast latency from trace events: the
// origin's own delivery (Publish delivers locally before gossiping)
// stamps the publish time, and every later delivery of the same EventID
// at another node contributes one observation of "publish → deliver"
// latency. It implements trace.Tracer and is safe for concurrent use.
//
// Only KindDeliver events are inspected; all other kinds return
// immediately, so attaching a Collector keeps the live node's steady
// gossip rounds allocation-free.
type Collector struct {
	mu        sync.Mutex
	published map[proto.EventID]time.Time
	order     []proto.EventID // FIFO eviction ring over published
	next      int
	counts    []uint64 // per-bucket cumulative-style raw counts
	sum       float64  // seconds
	count     uint64
}

// NewCollector creates an empty latency collector.
func NewCollector() *Collector {
	return &Collector{
		published: make(map[proto.EventID]time.Time, maxTrackedEvents),
		order:     make([]proto.EventID, 0, maxTrackedEvents),
		counts:    make([]uint64, len(latencyBuckets)+1), // +1 for +Inf
	}
}

// Record implements trace.Tracer.
func (c *Collector) Record(e trace.Event) {
	if e.Kind != trace.KindDeliver {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Node == e.EventID.Origin {
		// The origin delivers first; its timestamp is the publish time.
		if len(c.order) < cap(c.order) {
			c.order = append(c.order, e.EventID)
		} else {
			delete(c.published, c.order[c.next])
			c.order[c.next] = e.EventID
			c.next = (c.next + 1) % cap(c.order)
		}
		c.published[e.EventID] = e.When
		return
	}
	pub, ok := c.published[e.EventID]
	if !ok {
		return // origin not observed (evicted, or published before attach)
	}
	c.observe(e.When.Sub(pub).Seconds())
}

// observe records one latency sample; callers hold c.mu.
func (c *Collector) observe(sec float64) {
	if sec < 0 {
		sec = 0
	}
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	c.counts[i]++
	c.sum += sec
	c.count++
}

// Hist snapshots the histogram: cumulative per-bucket counts aligned
// with Buckets(), the +Inf total, and the sum of observations in
// seconds.
func (c *Collector) Hist() (cumulative []uint64, count uint64, sum float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cumulative = make([]uint64, len(latencyBuckets))
	var acc uint64
	for i := range latencyBuckets {
		acc += c.counts[i]
		cumulative[i] = acc
	}
	return cumulative, c.count, c.sum
}

// Buckets returns the histogram's upper bounds in seconds.
func (c *Collector) Buckets() []float64 {
	out := make([]float64, len(latencyBuckets))
	copy(out, latencyBuckets)
	return out
}

// maxNodeSeries caps per-node metric families so a huge cluster cannot
// bloat the exposition; aggregate families always cover every node.
const maxNodeSeries = 512

// handleMetrics renders the Prometheus text exposition format
// (version 0.0.4) by hand — the repo takes no dependencies.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	agg, dropped, n := s.aggregate()

	fmt.Fprintf(w, "# HELP lpbcast_nodes Number of live nodes observed by the control plane.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_nodes gauge\n")
	fmt.Fprintf(w, "lpbcast_nodes %d\n", n)

	// Aggregate protocol counters.
	fmt.Fprintf(w, "# HELP lpbcast_events_published_total Events published across all nodes.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_events_published_total counter\n")
	fmt.Fprintf(w, "lpbcast_events_published_total %d\n", agg.EventsPublished)
	fmt.Fprintf(w, "# HELP lpbcast_events_delivered_total Events delivered across all nodes.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_events_delivered_total counter\n")
	fmt.Fprintf(w, "lpbcast_events_delivered_total %d\n", agg.EventsDelivered)
	fmt.Fprintf(w, "# HELP lpbcast_duplicates_dropped_total Duplicate notifications discarded.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_duplicates_dropped_total counter\n")
	fmt.Fprintf(w, "lpbcast_duplicates_dropped_total %d\n", agg.DuplicatesDropped)
	fmt.Fprintf(w, "# HELP lpbcast_retransmit_requests_total Digest-driven retransmission requests issued.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_retransmit_requests_total counter\n")
	fmt.Fprintf(w, "lpbcast_retransmit_requests_total %d\n", agg.RetransmitRequests)
	fmt.Fprintf(w, "# HELP lpbcast_retransmit_served_total Retransmission requests served from the event buffer.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_retransmit_served_total counter\n")
	fmt.Fprintf(w, "lpbcast_retransmit_served_total %d\n", agg.RetransmitServed)
	fmt.Fprintf(w, "# HELP lpbcast_events_overflowed_total Notifications evicted by the bounded event buffer.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_events_overflowed_total counter\n")
	fmt.Fprintf(w, "lpbcast_events_overflowed_total %d\n", agg.EventsOverflowed)
	fmt.Fprintf(w, "# HELP lpbcast_dropped_deliveries_total Deliveries lost to saturated application channels.\n")
	fmt.Fprintf(w, "# TYPE lpbcast_dropped_deliveries_total counter\n")
	fmt.Fprintf(w, "lpbcast_dropped_deliveries_total %d\n", dropped)

	// Transport ledger (unified transport.Stats — inproc or UDP).
	ts := s.src.TransportStats()
	for _, m := range []struct {
		name, help string
		v          uint64
	}{
		{"lpbcast_transport_sent_total", "Messages handed to the transport.", ts.Sent},
		{"lpbcast_transport_received_total", "Inbound messages handed to nodes (UDP) or queued for them (in-process fabric).", ts.Received},
		{"lpbcast_transport_dropped_total", "Messages dropped (loss, partitions, overflow, errors).", ts.Dropped},
		{"lpbcast_transport_dropped_in_partition_total", "Messages dropped by an active partition.", ts.DroppedInPartition},
		{"lpbcast_transport_decode_errors_total", "Inbound datagrams that failed to decode.", ts.DecodeErrs},
		{"lpbcast_transport_bytes_total", "Wire bytes carried.", ts.Bytes},
		{"lpbcast_transport_datagrams_total", "Wire datagrams carried.", ts.Datagrams},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", m.name)
		fmt.Fprintf(w, "%s %d\n", m.name, m.v)
	}

	// Fault state, when the transport supports injection.
	if inj := s.src.Injector(); inj != nil {
		now := inj.NowMillis()
		active := 0
		for _, p := range inj.Partitions() {
			if now >= p.From && now < p.To {
				active++
			}
		}
		fmt.Fprintf(w, "# HELP lpbcast_partitions_active Partition windows currently cutting links.\n")
		fmt.Fprintf(w, "# TYPE lpbcast_partitions_active gauge\n")
		fmt.Fprintf(w, "lpbcast_partitions_active %d\n", active)
	}

	// Per-node series, id-ordered, capped at maxNodeSeries.
	ids := s.sortedIDs()
	if len(ids) > maxNodeSeries {
		ids = ids[:maxNodeSeries]
	}
	type nodeMetric struct {
		name, help, typ string
		value           func(Snapshot) int64
	}
	families := []nodeMetric{
		{"lpbcast_node_gossips_sent_total", "Gossip messages emitted by the node.", "counter",
			func(s Snapshot) int64 { return int64(s.Stats.GossipsSent) }},
		{"lpbcast_node_gossips_received_total", "Gossip messages received by the node.", "counter",
			func(s Snapshot) int64 { return int64(s.Stats.GossipsReceived) }},
		{"lpbcast_node_events_delivered_total", "Events delivered by the node.", "counter",
			func(s Snapshot) int64 { return int64(s.Stats.EventsDelivered) }},
		{"lpbcast_node_view_size", "Current partial-view size.", "gauge",
			func(s Snapshot) int64 { return int64(len(s.View)) }},
	}
	occupancy := []struct {
		name, help string
		value      func(Buffers) int64
	}{
		{"lpbcast_node_pending_events", "Occupancy of the bounded event buffer.",
			func(b Buffers) int64 { return int64(b.PendingEvents) }},
		{"lpbcast_node_digest_len", "Occupancy of the event-id digest.",
			func(b Buffers) int64 { return int64(b.DigestLen) }},
		{"lpbcast_node_subs_len", "Occupancy of the subscriptions buffer.",
			func(b Buffers) int64 { return int64(b.SubsLen) }},
		{"lpbcast_node_unsubs_len", "Occupancy of the unsubscriptions buffer.",
			func(b Buffers) int64 { return int64(b.UnsubsLen) }},
	}
	snaps := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		if snap, ok := s.src.Snapshot(id); ok {
			snaps = append(snaps, snap)
		}
	}
	for _, fam := range families {
		fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, snap := range snaps {
			fmt.Fprintf(w, "%s{node=\"%d\"} %d\n", fam.name, uint64(snap.ID), fam.value(snap))
		}
	}
	for _, fam := range occupancy {
		fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help)
		fmt.Fprintf(w, "# TYPE %s gauge\n", fam.name)
		for _, snap := range snaps {
			if snap.Buffers == nil {
				continue
			}
			fmt.Fprintf(w, "%s{node=\"%d\"} %d\n", fam.name, uint64(snap.ID), fam.value(*snap.Buffers))
		}
	}

	// Delivery-latency histogram, when a Collector is attached.
	if s.col != nil {
		cum, count, sum := s.col.Hist()
		fmt.Fprintf(w, "# HELP lpbcast_delivery_latency_seconds End-to-end publish-to-deliver latency.\n")
		fmt.Fprintf(w, "# TYPE lpbcast_delivery_latency_seconds histogram\n")
		for i, le := range s.col.Buckets() {
			fmt.Fprintf(w, "lpbcast_delivery_latency_seconds_bucket{le=%q} %d\n", formatLE(le), cum[i])
		}
		fmt.Fprintf(w, "lpbcast_delivery_latency_seconds_bucket{le=\"+Inf\"} %d\n", count)
		fmt.Fprintf(w, "lpbcast_delivery_latency_seconds_sum %g\n", sum)
		fmt.Fprintf(w, "lpbcast_delivery_latency_seconds_count %d\n", count)
	}
}

// formatLE renders a bucket bound the way Prometheus expects (no
// trailing zeros, no scientific notation for these magnitudes).
func formatLE(v float64) string {
	return fmt.Sprintf("%g", v)
}
