package ctl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/transport"
)

// fakeSource is a hand-wound Source for handler tests.
type fakeSource struct {
	mu    sync.Mutex
	snaps map[proto.ProcessID]Snapshot
	ts    transport.Stats
	inj   Injector
}

func (f *fakeSource) IDs() []proto.ProcessID {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]proto.ProcessID, 0, len(f.snaps))
	for id := range f.snaps {
		ids = append(ids, id)
	}
	return ids
}

func (f *fakeSource) Snapshot(id proto.ProcessID) (Snapshot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.snaps[id]
	return s, ok
}

func (f *fakeSource) TransportStats() transport.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ts
}

func (f *fakeSource) Injector() Injector { return f.inj }

// twoNodeSource builds a fake source with two nodes of known counters.
func twoNodeSource() *fakeSource {
	return &fakeSource{
		snaps: map[proto.ProcessID]Snapshot{
			2: {
				ID:    2,
				View:  []proto.ProcessID{1, 3},
				Stats: core.Stats{GossipsSent: 20, GossipsReceived: 21, EventsDelivered: 22, EventsPublished: 2},
			},
			1: {
				ID:                1,
				View:              []proto.ProcessID{2},
				Stats:             core.Stats{GossipsSent: 10, GossipsReceived: 11, EventsDelivered: 12, EventsPublished: 1},
				DroppedDeliveries: 3,
				Buffers:           &Buffers{PendingEvents: 5, DigestLen: 7, SubsLen: 2, UnsubsLen: 1},
			},
		},
		ts: transport.Stats{Sent: 100, Received: 90, Dropped: 10, DroppedInPartition: 4, Bytes: 4096, Datagrams: 50},
	}
}

// get issues a GET against the server and decodes the JSON body into v.
func get(t *testing.T, srv *Server, path string, wantStatus int, v any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", path, rec.Code, wantStatus, rec.Body)
	}
	if v != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body)
		}
	}
}

// post issues a JSON POST (or other method) and decodes the response.
func do(t *testing.T, srv *Server, method, path, body string, wantStatus int, v any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, rec.Code, wantStatus, rec.Body)
	}
	if v != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("%s %s: bad JSON: %v\n%s", method, path, err, rec.Body)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := NewServer(twoNodeSource(), nil)
	var out struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
	}
	get(t, srv, "/healthz", http.StatusOK, &out)
	if out.Status != "ok" || out.Nodes != 2 {
		t.Fatalf("healthz = %+v", out)
	}
}

func TestNodesListSortedSummaries(t *testing.T) {
	srv := NewServer(twoNodeSource(), nil)
	var out []nodeSummary
	get(t, srv, "/nodes", http.StatusOK, &out)
	if len(out) != 2 {
		t.Fatalf("got %d summaries, want 2", len(out))
	}
	if out[0].ID != 1 || out[1].ID != 2 {
		t.Fatalf("ids not sorted: %v, %v", out[0].ID, out[1].ID)
	}
	if out[0].GossipsSent != 10 || out[0].ViewSize != 1 || out[1].EventsDelivered != 22 {
		t.Fatalf("summaries wrong: %+v", out)
	}
}

func TestNodeSnapshotAndErrors(t *testing.T) {
	srv := NewServer(twoNodeSource(), nil)

	var snap Snapshot
	get(t, srv, "/nodes/1", http.StatusOK, &snap)
	if snap.ID != 1 || snap.DroppedDeliveries != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Buffers == nil || snap.Buffers.DigestLen != 7 || snap.Buffers.SubsLen != 2 {
		t.Fatalf("buffers = %+v", snap.Buffers)
	}

	var snap2 Snapshot
	get(t, srv, "/nodes/2", http.StatusOK, &snap2)
	if snap2.Buffers != nil {
		t.Fatalf("node 2 should have no buffer view, got %+v", snap2.Buffers)
	}

	get(t, srv, "/nodes/99", http.StatusNotFound, nil)
	get(t, srv, "/nodes/abc", http.StatusBadRequest, nil)
	get(t, srv, "/nodes/0", http.StatusBadRequest, nil)
	get(t, srv, "/nodes/4294967297", http.StatusBadRequest, nil) // node 1, were it truncated to 32 bits
}

// TestStatsAggregates gives every engine counter of both nodes a distinct
// value, so a counter the aggregate leaves out or sums twice shows.
func TestStatsAggregates(t *testing.T) {
	src := twoNodeSource()
	for _, id := range []proto.ProcessID{1, 2} {
		snap := src.snaps[id]
		v := reflect.ValueOf(&snap.Stats).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(uint64(id)*1000 + uint64(i)) // node 1: 1000+i, node 2: 2000+i
		}
		src.snaps[id] = snap
	}
	srv := NewServer(src, nil)
	var out struct {
		Nodes             int             `json:"nodes"`
		Engine            core.Stats      `json:"engine"`
		DroppedDeliveries uint64          `json:"dropped_deliveries"`
		Transport         transport.Stats `json:"transport"`
	}
	get(t, srv, "/stats", http.StatusOK, &out)
	if out.Nodes != 2 {
		t.Fatalf("nodes = %d", out.Nodes)
	}
	got := reflect.ValueOf(out.Engine)
	for i := 0; i < got.NumField(); i++ {
		if want := uint64(3000 + 2*i); got.Field(i).Uint() != want {
			t.Errorf("aggregate %s = %d, want %d", got.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
	if out.DroppedDeliveries != 3 {
		t.Fatalf("dropped deliveries = %d", out.DroppedDeliveries)
	}
	if out.Transport.Sent != 100 || out.Transport.DroppedInPartition != 4 {
		t.Fatalf("transport stats wrong: %+v", out.Transport)
	}
}

// parseExposition checks Prometheus text format line by line and returns
// the sample values keyed by full series name (including labels).
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("exposition line without value: %q", line)
		}
		name, raw := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		if _, dup := samples[name]; dup {
			t.Fatalf("duplicate series %q", name)
		}
		samples[name] = v
	}
	return samples
}

func TestMetricsExposition(t *testing.T) {
	col := NewCollector()
	base := time.Now()
	id := proto.EventID{Origin: 1, Seq: 1}
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 1, EventID: id, When: base})
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 2, EventID: id, When: base.Add(8 * time.Millisecond)})

	srv := NewServer(twoNodeSource(), col)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := parseExposition(t, rec.Body.String())

	want := map[string]float64{
		"lpbcast_nodes":                                       2,
		"lpbcast_events_delivered_total":                      34,
		"lpbcast_dropped_deliveries_total":                    3,
		"lpbcast_transport_sent_total":                        100,
		"lpbcast_transport_dropped_in_partition_total":        4,
		"lpbcast_transport_bytes_total":                       4096,
		`lpbcast_node_gossips_sent_total{node="1"}`:           10,
		`lpbcast_node_gossips_sent_total{node="2"}`:           20,
		`lpbcast_node_view_size{node="2"}`:                    2,
		`lpbcast_node_pending_events{node="1"}`:               5,
		`lpbcast_node_subs_len{node="1"}`:                     2,
		"lpbcast_delivery_latency_seconds_count":              1,
		`lpbcast_delivery_latency_seconds_bucket{le="0.01"}`:  1,
		`lpbcast_delivery_latency_seconds_bucket{le="0.005"}`: 0,
		`lpbcast_delivery_latency_seconds_bucket{le="+Inf"}`:  1,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("series %q missing from exposition", name)
		}
		if got != v {
			t.Fatalf("%s = %g, want %g", name, got, v)
		}
	}
	// Node 2 reports no occupancy: no buffer gauges for it.
	if _, ok := samples[`lpbcast_node_pending_events{node="2"}`]; ok {
		t.Fatal("node 2 should not expose buffer gauges")
	}
	// Histogram buckets must be cumulative (monotone non-decreasing).
	prev := -1.0
	for _, le := range col.Buckets() {
		v := samples[fmt.Sprintf("lpbcast_delivery_latency_seconds_bucket{le=%q}", formatLE(le))]
		if v < prev {
			t.Fatalf("histogram not cumulative at le=%g: %g < %g", le, v, prev)
		}
		prev = v
	}
}

func TestCollectorLatency(t *testing.T) {
	col := NewCollector()
	base := time.Now()
	id := proto.EventID{Origin: 7, Seq: 3}

	// Non-deliver kinds and unknown origins are ignored.
	col.Record(trace.Event{Kind: trace.KindGossipSent, Node: 7, EventID: id, When: base})
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 9, EventID: proto.EventID{Origin: 5, Seq: 1}, When: base})
	if _, count, _ := col.Hist(); count != 0 {
		t.Fatalf("premature observations: %d", count)
	}

	// Origin stamps publish time; two other nodes observe.
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 7, EventID: id, When: base})
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 8, EventID: id, When: base.Add(2 * time.Millisecond)})
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 9, EventID: id, When: base.Add(40 * time.Millisecond)})

	cum, count, sum := col.Hist()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if sum < 0.041 || sum > 0.043 {
		t.Fatalf("sum = %g, want ~0.042", sum)
	}
	// 2ms falls in the 0.0025 bucket, 40ms in the 0.05 bucket.
	buckets := col.Buckets()
	for i, le := range buckets {
		var want uint64
		switch {
		case le >= 0.05:
			want = 2
		case le >= 0.0025:
			want = 1
		}
		if cum[i] != want {
			t.Fatalf("bucket le=%g: %d, want %d", le, cum[i], want)
		}
	}
}

func TestCollectorEviction(t *testing.T) {
	col := NewCollector()
	base := time.Now()
	// Overflow the publish-time table; the earliest event is evicted.
	for i := 0; i < maxTrackedEvents+1; i++ {
		col.Record(trace.Event{
			Kind: trace.KindDeliver, Node: 1,
			EventID: proto.EventID{Origin: 1, Seq: uint32(i + 1)},
			When:    base,
		})
	}
	// Seq 1 was evicted: delivering it elsewhere records nothing.
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 2,
		EventID: proto.EventID{Origin: 1, Seq: 1}, When: base.Add(time.Millisecond)})
	if _, count, _ := col.Hist(); count != 0 {
		t.Fatalf("evicted event still observed: count=%d", count)
	}
	// Seq 2 survived.
	col.Record(trace.Event{Kind: trace.KindDeliver, Node: 2,
		EventID: proto.EventID{Origin: 1, Seq: 2}, When: base.Add(time.Millisecond)})
	if _, count, _ := col.Hist(); count != 1 {
		t.Fatalf("surviving event not observed: count=%d", count)
	}
}

func TestFaultEndpointsWithoutInjector(t *testing.T) {
	srv := NewServer(twoNodeSource(), nil) // Injector() == nil
	get(t, srv, "/faults", http.StatusNotImplemented, nil)
	do(t, srv, http.MethodPost, "/faults/partition", `{}`, http.StatusNotImplemented, nil)
	do(t, srv, http.MethodPost, "/faults/loss", `{"epsilon":0.5}`, http.StatusNotImplemented, nil)
	do(t, srv, http.MethodPost, "/faults/topology", `{"kind":"flat"}`, http.StatusNotImplemented, nil)
	do(t, srv, http.MethodDelete, "/faults/partitions", "", http.StatusNotImplemented, nil)
}

// networkSource wraps a live in-process network for fault tests.
func networkSource(net *transport.Network) *fakeSource {
	src := twoNodeSource()
	src.inj = net
	return src
}

// awaitMessage fails unless a message reaches ep within two seconds: the
// fabric hands datagrams to the endpoint's delivery goroutine, not to the
// sender's.
func awaitMessage(t *testing.T, ep *transport.Endpoint) {
	t.Helper()
	select {
	case <-ep.Recv():
	case <-time.After(2 * time.Second):
		t.Fatal("no message arrived within 2s")
	}
}

func subscribeMsg(from, to proto.ProcessID) proto.Message {
	return proto.Message{Kind: proto.SubscribeMsg, From: from, To: to, Subscriber: from}
}

func TestFaultLifecycleOverHTTP(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{Seed: 7})
	defer net.Close()
	a, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(networkSource(net), nil)

	// Install a two-cluster topology over HTTP: node 1 alone in cluster A.
	do(t, srv, http.MethodPost, "/faults/topology",
		`{"kind":"twocluster","split":1}`, http.StatusOK, nil)

	// Cut the WAN link indefinitely.
	var cut struct {
		Partition partitionView `json:"partition"`
	}
	do(t, srv, http.MethodPost, "/faults/partition",
		`{"classes":["wan"]}`, http.StatusOK, &cut)
	if !cut.Partition.Forever || !cut.Partition.Active {
		t.Fatalf("partition view = %+v", cut.Partition)
	}

	// Cross-cluster traffic is swallowed: no datagram leaves.
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	if st := net.Stats(); st.DroppedInPartition != 1 || st.Datagrams != 0 {
		t.Fatalf("stats = %+v, want the message dropped in the partition and no datagram", st)
	}

	// /faults reports the active window.
	var state struct {
		Topology   string          `json:"topology"`
		Partitions []partitionView `json:"partitions"`
	}
	get(t, srv, "/faults", http.StatusOK, &state)
	if len(state.Partitions) != 1 || !state.Partitions[0].Active {
		t.Fatalf("faults state = %+v", state)
	}
	if !strings.Contains(state.Topology, "TwoCluster") {
		t.Fatalf("topology = %q", state.Topology)
	}

	// Heal and verify traffic flows again.
	var healed struct {
		Cleared int `json:"cleared"`
	}
	do(t, srv, http.MethodDelete, "/faults/partitions", "", http.StatusOK, &healed)
	if healed.Cleared != 1 {
		t.Fatalf("cleared = %d, want 1", healed.Cleared)
	}
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	if st := net.Stats(); st.Datagrams != 1 {
		t.Fatalf("healed link carried %d datagrams, want 1", st.Datagrams)
	}
	awaitMessage(t, b)
}

func TestFaultValidationErrors(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{Seed: 7})
	defer net.Close()
	srv := NewServer(networkSource(net), nil)

	// Unknown fields, bad classes, bad kinds, bad epsilon: all 400.
	do(t, srv, http.MethodPost, "/faults/partition", `{"clases":["wan"]}`, http.StatusBadRequest, nil)
	do(t, srv, http.MethodPost, "/faults/partition", `{"classes":["sideways"]}`, http.StatusBadRequest, nil)
	do(t, srv, http.MethodPost, "/faults/topology", `{"kind":"donut"}`, http.StatusBadRequest, nil)
	do(t, srv, http.MethodPost, "/faults/topology", `{"kind":"twocluster","split":0}`, http.StatusBadRequest, nil)
	// Per-class delays are not a live fault: the fields are unknown.
	do(t, srv, http.MethodPost, "/faults/topology",
		`{"kind":"twocluster","split":1,"wan":{"epsilon":0.1,"min_delay":2,"max_delay":4}}`, http.StatusBadRequest, nil)
	do(t, srv, http.MethodPost, "/faults/loss", `{"epsilon":1.5}`, http.StatusBadRequest, nil)
	do(t, srv, http.MethodPost, "/faults/loss", `{"epsilon":0.5,"per_link":true}`, http.StatusBadRequest, nil)
	// Cutting the WAN class on a flat (classless) fabric is rejected.
	do(t, srv, http.MethodPost, "/faults/partition", `{"classes":["wan"]}`, http.StatusBadRequest, nil)
}

func TestLossEndpointOverHTTP(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{Seed: 7})
	defer net.Close()
	a, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(networkSource(net), nil)

	do(t, srv, http.MethodPost, "/faults/loss", `{"epsilon":1.0}`, http.StatusOK, nil)
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	if st := net.Stats(); st.Dropped != 1 || st.Datagrams != 0 {
		t.Fatalf("stats = %+v: a message survived epsilon=1 loss", st)
	}

	do(t, srv, http.MethodPost, "/faults/loss", `{"epsilon":0}`, http.StatusOK, nil)
	if err := a.Send(subscribeMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	if st := net.Stats(); st.Dropped != 1 || st.Datagrams != 1 {
		t.Fatalf("stats = %+v: loss not disabled", st)
	}
	awaitMessage(t, b)
}

// TestPartitionHammer injects and heals partitions over HTTP while
// traffic flows, to shake out races in the network's fault state (run
// with -race).
func TestPartitionHammer(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{Seed: 7})
	defer net.Close()
	const peers = 4
	eps := make([]*transport.Endpoint, peers)
	for i := range eps {
		ep, err := net.Attach(proto.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	srv := NewServer(networkSource(net), nil)
	do(t, srv, http.MethodPost, "/faults/topology",
		fmt.Sprintf(`{"kind":"twocluster","split":%d}`, peers/2), http.StatusOK, nil)

	httpDo := func(method, path, body string) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}

	var work, drain sync.WaitGroup
	stop := make(chan struct{})
	// Drainers keep inboxes from backing up.
	for _, ep := range eps {
		drain.Add(1)
		go func(ep *transport.Endpoint) {
			defer drain.Done()
			for {
				select {
				case <-stop:
					return
				case <-ep.Recv():
				}
			}
		}(ep)
	}
	// Senders blast cross-cluster traffic (Send never blocks: datagrams go
	// to the endpoints' bounded queues or are dropped).
	for i, ep := range eps {
		work.Add(1)
		go func(i int, ep *transport.Endpoint) {
			defer work.Done()
			self := proto.ProcessID(i + 1) // eps[i] is attached as i+1
			for j := 0; j < 300; j++ {
				dst := proto.ProcessID((i+j)%peers + 1)
				if dst == self {
					dst = proto.ProcessID(i%peers) + 1
				}
				_ = ep.Send(subscribeMsg(self, dst))
			}
		}(i, ep)
	}
	// Injectors cut, scrape, and heal concurrently.
	for g := 0; g < 3; g++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for j := 0; j < 50; j++ {
				httpDo(http.MethodPost, "/faults/partition", `{"classes":["wan"],"duration_ms":5}`)
				httpDo(http.MethodGet, "/metrics", "")
				httpDo(http.MethodGet, "/faults", "")
				httpDo(http.MethodDelete, "/faults/partitions", "")
			}
		}()
	}
	work.Wait()
	close(stop)
	drain.Wait()

	// The fabric must end healed and consistent.
	httpDo(http.MethodDelete, "/faults/partitions", "")
	if got := len(net.Partitions()); got != 0 {
		t.Fatalf("%d partitions survive the final heal", got)
	}
	var buf bytes.Buffer
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	buf.ReadFrom(rec.Body)
	parseExposition(t, buf.String())
}
