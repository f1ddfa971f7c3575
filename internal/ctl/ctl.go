// Package ctl is the HTTP control plane of the live runtime: the paper's
// evaluation is entirely about observing a running gossip system —
// delivery reliability, view distributions, buffer pressure — and this
// package turns a live Cluster or standalone Node from a black box into
// an operable service. It exposes read endpoints (per-node and aggregate
// protocol ledgers, view snapshots, buffer occupancy, transport
// counters), a Prometheus-style /metrics exposition, and live fault
// injection (loss, topologies, scheduled partitions) over the in-process
// network, mirroring what the simulator's fault package gives offline
// experiments.
//
// The package is transport-agnostic behind two small interfaces: Source
// (the read view) and Injector (the fault surface, nil when the transport
// cannot inject). It deliberately uses only net/http and encoding/json.
//
// cmd/lpbcast-node mounts the plane with -ctl-addr; live.Cluster and
// standalone nodes both satisfy Source. The polling gate keeps the
// instrumented node round allocation-free (the live/ctl-node-round
// benchmark holds it at 0 allocs/op), so attaching the control plane does
// not perturb the gossip path it observes.
package ctl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/transport"
)

// Snapshot is one node's observable state at a point in time.
type Snapshot struct {
	ID                proto.ProcessID   `json:"id"`
	View              []proto.ProcessID `json:"view"`
	Stats             core.Stats        `json:"stats"`
	DroppedDeliveries uint64            `json:"dropped_deliveries"`
	// Buffers is nil when the node's engine does not report occupancy
	// (custom engines installed via WithEngine may not).
	Buffers *Buffers `json:"buffers,omitempty"`
}

// Buffers is a node's event/digest/membership buffer occupancy — the
// buffer-pressure view of the paper's §5 buffer-size experiments.
type Buffers struct {
	PendingEvents int `json:"pending_events"`
	DigestLen     int `json:"digest_len"`
	SubsLen       int `json:"subs_len"`
	UnsubsLen     int `json:"unsubs_len"`
}

// Source is the control plane's read view of a running system.
// Implementations must be safe for concurrent use.
type Source interface {
	// IDs lists the observable process ids, in any order.
	IDs() []proto.ProcessID
	// Snapshot returns one node's state; false when id is unknown.
	Snapshot(id proto.ProcessID) (Snapshot, bool)
	// TransportStats returns the transport counter ledger.
	TransportStats() transport.Stats
	// Injector returns the fault-injection surface, or nil when the
	// transport cannot inject faults (e.g. a real UDP socket).
	Injector() Injector
}

// Injector is the live fault-injection surface; *transport.Network
// implements it.
type Injector interface {
	// NowMillis is the injection clock partition windows are expressed on.
	NowMillis() uint64
	// SetLoss replaces the loss model (nil disables loss).
	SetLoss(m fault.LossModel)
	// SetTopology replaces the link-class topology (nil means flat).
	SetTopology(t fault.Topology) error
	// Topology returns the current topology (nil when flat).
	Topology() fault.Topology
	// AddPartition schedules a partition window on the NowMillis clock.
	AddPartition(p fault.Partition) error
	// ClearPartitions heals everything, returning how many were cleared.
	ClearPartitions() int
	// Partitions snapshots the scheduled windows.
	Partitions() []fault.Partition
}

var _ Injector = (*transport.Network)(nil)

// Server is the HTTP control plane. Mount it on any address with
// net/http; it implements http.Handler.
//
// Endpoints:
//
//	GET    /healthz            liveness + node count
//	GET    /nodes              per-node summaries
//	GET    /nodes/{id}         one node's full snapshot
//	GET    /stats              aggregate protocol + transport ledgers
//	GET    /metrics            Prometheus text exposition
//	GET    /faults             current fault state
//	POST   /faults/loss        install a Bernoulli loss model
//	POST   /faults/topology    install a link-class topology
//	POST   /faults/partition   schedule a partition window
//	DELETE /faults/partitions  heal: clear every partition
type Server struct {
	src     Source
	col     *Collector
	mux     *http.ServeMux
	started time.Time
}

// NewServer builds a control plane over src. col may be nil (the
// delivery-latency histogram is then absent from /metrics).
func NewServer(src Source, col *Collector) *Server {
	s := &Server{src: src, col: col, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /nodes", s.handleNodes)
	s.mux.HandleFunc("GET /nodes/{id}", s.handleNode)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /faults", s.handleFaults)
	s.mux.HandleFunc("POST /faults/loss", s.handleLoss)
	s.mux.HandleFunc("POST /faults/topology", s.handleTopology)
	s.mux.HandleFunc("POST /faults/partition", s.handlePartition)
	s.mux.HandleFunc("DELETE /faults/partitions", s.handleHeal)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// sortedIDs returns the source's ids in ascending order.
func (s *Server) sortedIDs() []proto.ProcessID {
	ids := s.src.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"nodes":     len(s.src.IDs()),
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

// nodeSummary is the /nodes list entry.
type nodeSummary struct {
	ID              proto.ProcessID `json:"id"`
	ViewSize        int             `json:"view_size"`
	GossipsSent     uint64          `json:"gossips_sent"`
	GossipsReceived uint64          `json:"gossips_received"`
	EventsDelivered uint64          `json:"events_delivered"`
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	ids := s.sortedIDs()
	out := make([]nodeSummary, 0, len(ids))
	for _, id := range ids {
		snap, ok := s.src.Snapshot(id)
		if !ok {
			continue
		}
		out = append(out, nodeSummary{
			ID:              id,
			ViewSize:        len(snap.View),
			GossipsSent:     snap.Stats.GossipsSent,
			GossipsReceived: snap.Stats.GossipsReceived,
			EventsDelivered: snap.Stats.EventsDelivered,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 32) // a process id is 32 bits: refused past them, never truncated
	if err != nil || id == 0 {
		writeError(w, http.StatusBadRequest, "bad node id %q", raw)
		return
	}
	snap, ok := s.src.Snapshot(proto.ProcessID(id))
	if !ok {
		writeError(w, http.StatusNotFound, "no node %d", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// aggregate sums every node's engine counters.
func (s *Server) aggregate() (core.Stats, uint64, int) {
	var agg core.Stats
	var dropped uint64
	ids := s.src.IDs()
	n := 0
	for _, id := range ids {
		snap, ok := s.src.Snapshot(id)
		if !ok {
			continue
		}
		n++
		dropped += snap.DroppedDeliveries
		agg.Add(snap.Stats)
	}
	return agg, dropped, n
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	agg, dropped, n := s.aggregate()
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":              n,
		"engine":             agg,
		"dropped_deliveries": dropped,
		"transport":          s.src.TransportStats(),
	})
}
