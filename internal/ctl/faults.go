package ctl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/transport"
)

// parseClass maps a wire name ("local", "wan", "global", or a number)
// to a link class.
func parseClass(s string) (fault.LinkClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "local", "0":
		return fault.LinkLocal, nil
	case "wan", "1":
		return fault.LinkWAN, nil
	case "global", "2":
		return fault.LinkGlobal, nil
	default:
		return 0, fmt.Errorf("unknown link class %q (want local, wan, or global)", s)
	}
}

// classNames renders link classes for JSON responses.
func classNames(classes []fault.LinkClass) []string {
	if len(classes) == 0 {
		return []string{"all"}
	}
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = c.String()
	}
	return out
}

// partitionView is the JSON shape of one scheduled partition window.
type partitionView struct {
	FromMillis uint64   `json:"from_ms"`
	ToMillis   uint64   `json:"to_ms"`
	Classes    []string `json:"classes"`
	Active     bool     `json:"active"`
	Forever    bool     `json:"forever"`
}

func partitionViews(inj Injector) []partitionView {
	now := inj.NowMillis()
	parts := inj.Partitions()
	out := make([]partitionView, 0, len(parts))
	for _, p := range parts {
		out = append(out, partitionView{
			FromMillis: p.From,
			ToMillis:   p.To,
			Classes:    classNames(p.Classes),
			Active:     now >= p.From && now < p.To,
			Forever:    p.To == transport.ForeverMillis,
		})
	}
	return out
}

// injector returns the fault surface or writes a 501 when the transport
// cannot inject (a standalone UDP node, for example).
func (s *Server) injector(w http.ResponseWriter) (Injector, bool) {
	inj := s.src.Injector()
	if inj == nil {
		writeError(w, http.StatusNotImplemented,
			"transport does not support fault injection (UDP sockets face a real network)")
		return nil, false
	}
	return inj, true
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	topo := "flat"
	if t := inj.Topology(); t != nil {
		topo = fmt.Sprintf("%T (%d classes)", t, t.Classes())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"now_ms":     inj.NowMillis(),
		"topology":   topo,
		"partitions": partitionViews(inj),
	})
}

// decodeBody parses a JSON request body into v, rejecting unknown fields
// so typos in fault requests fail loudly instead of silently no-opping.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// lossRequest configures the network's loss model.
type lossRequest struct {
	// Epsilon is the Bernoulli drop probability in [0,1]; 0 disables loss.
	Epsilon float64 `json:"epsilon"`
	// Seed seeds the model's RNG (default 1).
	Seed uint64 `json:"seed"`
	// PerLink applies Epsilon only as the fallback of a topology-aware
	// model that draws per-class rates from the installed topology.
	PerLink bool `json:"per_link"`
}

func (s *Server) handleLoss(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	var req lossRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Epsilon < 0 || req.Epsilon > 1 {
		writeError(w, http.StatusBadRequest, "epsilon %v out of [0,1]", req.Epsilon)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var installed string
	switch {
	case req.PerLink:
		t := inj.Topology()
		if t == nil {
			writeError(w, http.StatusBadRequest, "per_link loss needs a topology; POST /faults/topology first")
			return
		}
		inj.SetLoss(fault.NewTopologyLoss(t, req.Epsilon, rng.New(seed)))
		installed = "topology"
	case req.Epsilon == 0:
		inj.SetLoss(nil)
		installed = "none"
	default:
		inj.SetLoss(fault.NewBernoulli(req.Epsilon, rng.New(seed)))
		installed = "bernoulli"
	}
	writeJSON(w, http.StatusOK, map[string]any{"loss": installed, "epsilon": req.Epsilon})
}

// profileRequest is the wire form of a fault.LinkProfile: its loss rate,
// which per-link loss (POST /faults/loss with per_link) draws from. The live
// fabric's delays are set when it is built, so a request naming per-class
// delays is refused as an unknown field.
type profileRequest struct {
	Epsilon float64 `json:"epsilon"`
}

func (p profileRequest) profile() fault.LinkProfile {
	return fault.LinkProfile{Epsilon: p.Epsilon}
}

// topologyRequest installs a link-class topology on the live network.
type topologyRequest struct {
	// Kind is "flat", "uniform", "twocluster", or "hierarchical".
	Kind string `json:"kind"`
	// Split is the highest process id of cluster A (twocluster).
	Split uint64 `json:"split"`
	// ClusterSize and ClustersPerRegion shape the hierarchical tiers.
	ClusterSize       int `json:"cluster_size"`
	ClustersPerRegion int `json:"clusters_per_region"`
	// Local, WAN, Global are the per-class link profiles.
	Local  profileRequest `json:"local"`
	WAN    profileRequest `json:"wan"`
	Global profileRequest `json:"global"`
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	var req topologyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var t fault.Topology
	switch strings.ToLower(req.Kind) {
	case "flat", "":
		t = nil
	case "uniform":
		t = fault.Uniform{Link: req.Local.profile()}
	case "twocluster":
		t = fault.TwoCluster{
			Split: proto.ProcessID(req.Split),
			Local: req.Local.profile(),
			WAN:   req.WAN.profile(),
		}
	case "hierarchical":
		t = fault.Hierarchical{
			ClusterSize:       req.ClusterSize,
			ClustersPerRegion: req.ClustersPerRegion,
			Local:             req.Local.profile(),
			WAN:               req.WAN.profile(),
			Global:            req.Global.profile(),
		}
	default:
		writeError(w, http.StatusBadRequest,
			"unknown topology kind %q (want flat, uniform, twocluster, or hierarchical)", req.Kind)
		return
	}
	if err := inj.SetTopology(t); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	classes := 0
	if t != nil {
		classes = t.Classes()
	}
	writeJSON(w, http.StatusOK, map[string]any{"kind": strings.ToLower(req.Kind), "classes": classes})
}

// partitionRequest schedules a partition cut on the live network.
type partitionRequest struct {
	// Classes names the link classes to cut ("local", "wan", "global");
	// empty cuts every class.
	Classes []string `json:"classes"`
	// DelayMillis postpones the cut; 0 starts it immediately.
	DelayMillis uint64 `json:"delay_ms"`
	// DurationMillis bounds the window; 0 means until healed via
	// DELETE /faults/partitions.
	DurationMillis uint64 `json:"duration_ms"`
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	var req partitionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	classes := make([]fault.LinkClass, 0, len(req.Classes))
	for _, name := range req.Classes {
		c, err := parseClass(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		classes = append(classes, c)
	}
	from := inj.NowMillis() + req.DelayMillis
	to := uint64(transport.ForeverMillis)
	if req.DurationMillis > 0 {
		to = from + req.DurationMillis
	}
	p := fault.Partition{From: from, To: to, Classes: classes}
	if err := inj.AddPartition(p); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"partition": partitionView{
			FromMillis: p.From,
			ToMillis:   p.To,
			Classes:    classNames(p.Classes),
			Active:     req.DelayMillis == 0,
			Forever:    p.To == transport.ForeverMillis,
		},
	})
}

func (s *Server) handleHeal(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	cleared := inj.ClearPartitions()
	writeJSON(w, http.StatusOK, map[string]any{"cleared": cleared})
}
