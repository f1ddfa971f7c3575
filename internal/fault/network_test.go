package fault

import (
	"math"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

func TestLinkProfileValidate(t *testing.T) {
	t.Parallel()
	ok := []LinkProfile{
		{},
		{Epsilon: -1},              // inherit
		{Epsilon: 0.5},             // explicit
		{MinDelay: 1, MaxDelay: 3}, // range
	}
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", p, err)
		}
	}
	bad := []LinkProfile{
		{Epsilon: 1},
		{MinDelay: -1},
		{MaxDelay: -2},
		{MinDelay: 3, MaxDelay: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: expected an error", p)
		}
	}
}

func TestTwoClusterClasses(t *testing.T) {
	t.Parallel()
	topo := TwoCluster{Split: 4, Local: LinkProfile{Epsilon: -1}, WAN: LinkProfile{Epsilon: 0.3, MinDelay: 2, MaxDelay: 5}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src, dst proto.ProcessID
		want     LinkClass
	}{
		{1, 4, LinkLocal}, {4, 1, LinkLocal}, {5, 8, LinkLocal},
		{1, 5, LinkWAN}, {8, 4, LinkWAN},
	}
	for _, c := range cases {
		if got := topo.Class(c.src, c.dst); got != c.want {
			t.Errorf("Class(%v,%v) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
	if got := MaxLinkDelay(topo); got != 5 {
		t.Errorf("MaxLinkDelay = %d, want 5", got)
	}
	if (TwoCluster{}).Validate() == nil {
		t.Error("Split=0 validated")
	}
}

func TestHierarchicalClasses(t *testing.T) {
	t.Parallel()
	// Clusters of 3 processes, regions of 2 clusters: processes 1-3 and
	// 4-6 share region 0, processes 7-9 start region 1.
	topo := Hierarchical{
		ClusterSize: 3, ClustersPerRegion: 2,
		Local:  LinkProfile{},
		WAN:    LinkProfile{MinDelay: 1, MaxDelay: 1},
		Global: LinkProfile{MinDelay: 3, MaxDelay: 6},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src, dst proto.ProcessID
		want     LinkClass
	}{
		{1, 3, LinkLocal}, {4, 6, LinkLocal},
		{1, 4, LinkWAN}, {6, 2, LinkWAN},
		{1, 7, LinkGlobal}, {9, 5, LinkGlobal},
	}
	for _, c := range cases {
		if got := topo.Class(c.src, c.dst); got != c.want {
			t.Errorf("Class(%v,%v) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
	if got := MaxLinkDelay(topo); got != 6 {
		t.Errorf("MaxLinkDelay = %d, want 6", got)
	}
	if (Hierarchical{ClustersPerRegion: 1}).Validate() == nil {
		t.Error("ClusterSize=0 validated")
	}
}

func TestTopologyLossRates(t *testing.T) {
	t.Parallel()
	topo := TwoCluster{Split: 1, Local: LinkProfile{Epsilon: -1}, WAN: LinkProfile{Epsilon: 0.5}}
	loss := NewTopologyLoss(topo, 0.05, rng.New(1))
	const draws = 200000
	local, wan := 0, 0
	for i := 0; i < draws; i++ {
		if loss.Drop(2, 3, 0) { // local: inherits the 0.05 fallback
			local++
		}
		if loss.Drop(1, 2, 0) { // wan: explicit 0.5
			wan++
		}
	}
	if got := float64(local) / draws; math.Abs(got-0.05) > 0.01 {
		t.Errorf("local (inherited) drop rate = %v, want ≈0.05", got)
	}
	if got := float64(wan) / draws; math.Abs(got-0.5) > 0.01 {
		t.Errorf("wan drop rate = %v, want ≈0.5", got)
	}
}

func TestDelayModels(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	if d := (FixedDelay{Rounds: 3}); d.Delay(1, 2, 0, r) != 3 || d.MaxDelay() != 3 {
		t.Error("FixedDelay misbehaves")
	}
	if (FixedDelay{Rounds: -1}).Validate() == nil {
		t.Error("negative fixed delay validated")
	}
	u := UniformDelay{Min: 1, Max: 4}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		d := u.Delay(1, 2, 0, r)
		if d < 1 || d > 4 {
			t.Fatalf("uniform delay %d outside [1,4]", d)
		}
		seen[d] = true
	}
	if len(seen) != 4 {
		t.Errorf("uniform delay covered %d of 4 values", len(seen))
	}
	for _, bad := range []UniformDelay{{Min: -1, Max: 2}, {Min: 3, Max: 1}} {
		if bad.Validate() == nil {
			t.Errorf("%+v validated", bad)
		}
	}
	// Degenerate ranges draw nothing: the stream is untouched.
	before := r.State()
	if d := (UniformDelay{Min: 2, Max: 2}).Delay(1, 2, 0, r); d != 2 {
		t.Errorf("degenerate uniform delay = %d", d)
	}
	if r.State() != before {
		t.Error("degenerate uniform delay consumed a draw")
	}
}

func TestTopologyDelay(t *testing.T) {
	t.Parallel()
	topo := TwoCluster{Split: 2, Local: LinkProfile{}, WAN: LinkProfile{MinDelay: 2, MaxDelay: 4}}
	d := TopologyDelay{T: topo}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	if got := d.Delay(1, 2, 0, r); got != 0 {
		t.Errorf("local delay = %d, want 0", got)
	}
	for i := 0; i < 100; i++ {
		if got := d.Delay(1, 3, 0, r); got < 2 || got > 4 {
			t.Errorf("wan delay %d outside [2,4]", got)
		}
	}
	if got := d.MaxDelay(); got != 4 {
		t.Errorf("MaxDelay = %d, want 4", got)
	}
	if (TopologyDelay{}).Validate() == nil {
		t.Error("nil topology validated")
	}
}

func TestPartitionCuts(t *testing.T) {
	t.Parallel()
	p := Partition{From: 10, To: 20, Classes: []LinkClass{LinkWAN}}
	if p.Cuts(LinkWAN, 9) || p.Cuts(LinkWAN, 20) {
		t.Error("cut outside the window")
	}
	if !p.Cuts(LinkWAN, 10) || !p.Cuts(LinkWAN, 19) {
		t.Error("window bounds wrong: [From, To) expected")
	}
	if p.Cuts(LinkLocal, 15) {
		t.Error("cut a class it does not name")
	}
	all := Partition{From: 5, To: 6}
	if !all.Cuts(LinkLocal, 5) || !all.Cuts(LinkGlobal, 5) {
		t.Error("empty Classes should cut everything")
	}
	if !CutLink([]Partition{p, all}, LinkLocal, 5) || CutLink([]Partition{p, all}, LinkLocal, 12) {
		t.Error("CutLink schedule lookup wrong")
	}
}

func TestValidatePartitions(t *testing.T) {
	t.Parallel()
	ok := []Partition{
		{From: 0, To: 5, Classes: []LinkClass{LinkWAN}},
		{From: 5, To: 8, Classes: []LinkClass{LinkWAN}}, // adjacent is fine
		{From: 2, To: 4, Classes: []LinkClass{LinkLocal}},
	}
	if err := ValidatePartitions(ok, 2, 10); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	cases := []struct {
		name    string
		parts   []Partition
		classes int
		horizon uint64
		want    string
	}{
		{"empty window", []Partition{{From: 3, To: 3}}, 1, 0, "empty window"},
		{"inverted window", []Partition{{From: 5, To: 2}}, 1, 0, "empty window"},
		{"outside horizon", []Partition{{From: 12, To: 15}}, 1, 10, "outside the horizon"},
		{"unknown class", []Partition{{From: 0, To: 2, Classes: []LinkClass{LinkGlobal}}}, 2, 0, "outside [0,2)"},
		{"duplicate class", []Partition{{From: 0, To: 2, Classes: []LinkClass{LinkWAN, LinkWAN}}}, 2, 0, "duplicate"},
		{"overlap same class", []Partition{
			{From: 0, To: 5, Classes: []LinkClass{LinkWAN}},
			{From: 4, To: 8, Classes: []LinkClass{LinkWAN}},
		}, 2, 0, "overlapping"},
		{"overlap via empty classes", []Partition{
			{From: 0, To: 5},
			{From: 4, To: 8, Classes: []LinkClass{LinkLocal}},
		}, 2, 0, "overlapping"},
	}
	for _, tc := range cases {
		err := ValidatePartitions(tc.parts, tc.classes, tc.horizon)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestLinkClassString(t *testing.T) {
	t.Parallel()
	if LinkLocal.String() != "local" || LinkWAN.String() != "wan" || LinkGlobal.String() != "global" {
		t.Error("named class strings wrong")
	}
	if LinkClass(7).String() != "class(7)" {
		t.Error("fallback class string wrong")
	}
	p := Partition{From: 1, To: 2, Classes: []LinkClass{LinkWAN}}
	if got := p.String(); got != "partition[1,2)[wan]" {
		t.Errorf("partition string = %q", got)
	}
	if got := (Partition{From: 1, To: 2}).String(); got != "partition[1,2)" {
		t.Errorf("all-class partition string = %q", got)
	}
}
