package lpbcast

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// ctlClient drives a control-plane HTTP server in tests.
type ctlClient struct {
	t    *testing.T
	base string
}

func (c ctlClient) do(method, path, body string, wantStatus int) []byte {
	c.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		c.t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, wantStatus, out)
	}
	return out
}

// scrape parses a /metrics exposition into sample values.
func (c ctlClient) scrape() map[string]float64 {
	c.t.Helper()
	body := c.do(http.MethodGet, "/metrics", "", http.StatusOK)
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			c.t.Fatalf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			c.t.Fatalf("bad metrics value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestControlPlanePartitionCutsAndHeals is the control plane's
// end-to-end acceptance test: a live cluster is observed and
// fault-injected purely over HTTP. A POSTed WAN partition provably cuts
// cross-cluster delivery — the B side cannot learn a fresh event while
// the cut holds — and a DELETE heals it, after which the digest-driven
// retransmission pull recovers the missed payload on every node.
func TestControlPlanePartitionCutsAndHeals(t *testing.T) {
	const n = 10
	const split = 5
	cluster, err := NewCluster(ClusterConfig{
		N:              n,
		GossipInterval: 5 * time.Millisecond,
		Seed:           42,
		ControlPlane:   true,
		NodeOptions: []Option{
			WithViewSize(9), // full membership: every link exists
			WithFanout(3),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	srv := httptest.NewServer(cluster.ControlHandler())
	defer srv.Close()
	c := ctlClient{t: t, base: srv.URL}

	// Let views mix, then split the fabric 5|5 and cut the WAN link.
	time.Sleep(50 * time.Millisecond)
	c.do(http.MethodPost, "/faults/topology",
		fmt.Sprintf(`{"kind":"twocluster","split":%d}`, split), http.StatusOK)
	c.do(http.MethodPost, "/faults/partition", `{"classes":["wan"]}`, http.StatusOK)

	// Publish on the A side; the A side delivers, the B side cannot.
	ev, err := cluster.Node(1).Publish([]byte("during the cut"))
	if err != nil {
		t.Fatal(err)
	}
	for id := ProcessID(2); id <= split; id++ {
		if !cluster.AwaitDelivery(id, ev.ID, 10*time.Second) {
			t.Fatalf("A-side node %v never delivered %v", id, ev.ID)
		}
	}
	// The partition drops at send time, so no message carrying the event
	// ever entered a B-side inbox: B-side engines cannot know it, at any
	// point in the cut's lifetime.
	for id := ProcessID(split + 1); id <= n; id++ {
		node := cluster.Node(id)
		node.mu.Lock()
		knows := node.engine.Knows(ev.ID)
		node.mu.Unlock()
		if knows {
			t.Fatalf("B-side node %v learned %v across an active partition", id, ev.ID)
		}
	}
	if st := cluster.Network().Stats(); st.DroppedInPartition == 0 {
		t.Fatal("no traffic was dropped by the partition; the cut did nothing")
	}

	// The control plane reports the active cut.
	var faults struct {
		Partitions []struct {
			Active  bool `json:"active"`
			Forever bool `json:"forever"`
		} `json:"partitions"`
	}
	if err := json.Unmarshal(c.do(http.MethodGet, "/faults", "", http.StatusOK), &faults); err != nil {
		t.Fatal(err)
	}
	if len(faults.Partitions) != 1 || !faults.Partitions[0].Active || !faults.Partitions[0].Forever {
		t.Fatalf("faults state = %+v", faults)
	}
	if v := c.scrape()["lpbcast_partitions_active"]; v != 1 {
		t.Fatalf("lpbcast_partitions_active = %g, want 1", v)
	}

	// Heal over HTTP; the B side recovers the payload via gossip digests
	// and retransmission.
	c.do(http.MethodDelete, "/faults/partitions", "", http.StatusOK)
	for id := ProcessID(split + 1); id <= n; id++ {
		if !cluster.AwaitDelivery(id, ev.ID, 10*time.Second) {
			t.Fatalf("B-side node %v never recovered %v after the heal", id, ev.ID)
		}
	}

	// The post-heal scrape shows the system whole again.
	samples := c.scrape()
	if v := samples["lpbcast_partitions_active"]; v != 0 {
		t.Fatalf("lpbcast_partitions_active = %g after heal", v)
	}
	if v := samples["lpbcast_nodes"]; v != n {
		t.Fatalf("lpbcast_nodes = %g, want %d", v, n)
	}
	if v := samples["lpbcast_delivery_latency_seconds_count"]; v < 1 {
		t.Fatalf("delivery latency histogram empty (count %g)", v)
	}
	if v := samples[`lpbcast_node_gossips_sent_total{node="1"}`]; v < 1 {
		t.Fatalf("node 1 gossip counter missing or zero (%g)", v)
	}
}

// TestControlPlaneReadEndpoints exercises the read API of a live
// cluster over real HTTP.
func TestControlPlaneReadEndpoints(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		N:              4,
		GossipInterval: 5 * time.Millisecond,
		Seed:           7,
		ControlPlane:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	srv := httptest.NewServer(cluster.ControlHandler())
	defer srv.Close()
	c := ctlClient{t: t, base: srv.URL}

	var health struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
	}
	if err := json.Unmarshal(c.do(http.MethodGet, "/healthz", "", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Nodes != 4 {
		t.Fatalf("healthz = %+v", health)
	}

	var nodes []struct {
		ID       ProcessID `json:"id"`
		ViewSize int       `json:"view_size"`
	}
	if err := json.Unmarshal(c.do(http.MethodGet, "/nodes", "", http.StatusOK), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 || nodes[0].ID != 1 || nodes[0].ViewSize == 0 {
		t.Fatalf("nodes = %+v", nodes)
	}

	var snap struct {
		ID      ProcessID `json:"id"`
		Buffers *struct {
			DigestLen int `json:"digest_len"`
		} `json:"buffers"`
	}
	if err := json.Unmarshal(c.do(http.MethodGet, "/nodes/3", "", http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != 3 || snap.Buffers == nil {
		t.Fatalf("snapshot = %+v", snap)
	}

	c.do(http.MethodGet, "/nodes/99", "", http.StatusNotFound)

	var stats struct {
		Nodes     int `json:"nodes"`
		Transport struct {
			Sent uint64 `json:"sent"`
		} `json:"transport"`
	}
	// Publish one event so counters move.
	if _, err := cluster.Node(1).Publish([]byte("observable")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal(c.do(http.MethodGet, "/stats", "", http.StatusOK), &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Transport.Sent > 0 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("transport counters never moved: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stats.Nodes != 4 {
		t.Fatalf("stats nodes = %d", stats.Nodes)
	}
}

// TestNodeControlHandlerStandalone mounts the control plane on a single
// node: reads work, and fault injection is available precisely when the
// node runs on an in-process network.
func TestNodeControlHandlerStandalone(t *testing.T) {
	network := NewInprocNetwork(InprocConfig{Seed: 3})
	defer network.Close()
	ep, err := network.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(1, ep, WithGossipInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Close()

	srv := httptest.NewServer(NewControlHandler(node))
	defer srv.Close()
	c := ctlClient{t: t, base: srv.URL}

	var snap struct {
		ID ProcessID `json:"id"`
	}
	if err := json.Unmarshal(c.do(http.MethodGet, "/nodes/1", "", http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != 1 {
		t.Fatalf("snapshot id = %v", snap.ID)
	}
	// The endpoint's fabric is injectable.
	c.do(http.MethodGet, "/faults", "", http.StatusOK)
	c.do(http.MethodPost, "/faults/loss", `{"epsilon":0.25}`, http.StatusOK)
	samples := c.scrape()
	if v := samples["lpbcast_nodes"]; v != 1 {
		t.Fatalf("lpbcast_nodes = %g, want 1", v)
	}
	if _, ok := samples[`lpbcast_node_view_size{node="1"}`]; !ok {
		t.Fatal("per-node series missing from standalone exposition")
	}
}

// TestClusterNodeBounds is the regression test for the out-of-range
// panic: Cluster.Node must return nil for ids outside 1..N instead of
// indexing out of bounds.
func TestClusterNodeBounds(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		N:              2,
		GossipInterval: 10 * time.Millisecond,
		Seed:           1,
		DeferStart:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if got := cluster.Node(0); got != nil {
		t.Fatalf("Node(0) = %v, want nil", got)
	}
	if got := cluster.Node(3); got != nil {
		t.Fatalf("Node(3) = %v, want nil", got)
	}
	if got := cluster.Node(ProcessID(1 << 31)); got != nil {
		t.Fatalf("Node(huge) = %v, want nil", got)
	}
	if got := cluster.Node(1); got == nil || got.ID() != 1 {
		t.Fatalf("Node(1) = %v", got)
	}
	if got := cluster.Node(2); got == nil || got.ID() != 2 {
		t.Fatalf("Node(2) = %v", got)
	}
	// AwaitDelivery tolerates unknown ids instead of panicking.
	if cluster.AwaitDelivery(99, EventID{Origin: 1, Seq: 1}, time.Millisecond) {
		t.Fatal("AwaitDelivery(99) reported delivery on a nonexistent node")
	}
}
