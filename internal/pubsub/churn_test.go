package pubsub

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
)

// churnRow is one single-topic churn scenario (§3.4 at scale): n members
// subscribe and settle for 10 steps, then for rounds steps joins
// subscribe through a contact the bus picks and leaves cancel, then 5
// quiet steps let the last joins and leaves settle.
type churnRow struct {
	name               string
	n, joins, leaves   int
	rounds             int
	seed               uint64
	topology           fault.Topology
	partitions         []fault.Partition
	minJoined, minLeft int
	minFinal, maxFinal int
	// orphans is how many active members end outside the largest
	// component: pinned for the rows with a topology, 0 for the others.
	orphans int
	// lateStale is how many stale view references lateStale reads: pinned
	// for the rows with a topology, 0 for the others.
	lateStale int
}

// churnResult is what a churn scenario measures on the topic's view graph.
type churnResult struct {
	final, joined, left, refused   int
	maxComponents, finalComponents int
	inDegreeMean, inDegreeStddev   float64
	stale                          int
	// orphans are the active members outside the largest final component.
	orphans []proto.ProcessID
	// leftAt is the bus round each leaver cancelled in.
	leftAt map[proto.ProcessID]uint64
}

func (r churnResult) String() string {
	return fmt.Sprintf("churn(final=%d joined=%d left=%d refused=%d maxComponents=%d finalComponents=%d indegree=%.1f±%.1f stale=%d orphans=%v)",
		r.final, r.joined, r.left, r.refused, r.maxComponents, r.finalComponents, r.inDegreeMean, r.inDegreeStddev, r.stale, r.orphans)
}

// churnEngine is the engine the churn rows run: the paper's l = 15 with the
// unsubscription TTL sized to the churn horizon and the unSubs buffers to
// the circulating unsubscription volume. Too short a TTL resurrects
// departed members once their unsubscriptions expire; too small a buffer
// makes the refusal rule block departures.
func churnEngine() core.Config {
	cfg := core.DefaultConfig()
	cfg.Membership.UnsubTTL = 60
	cfg.Membership.MaxUnsubs = 40
	cfg.Membership.UnsubRefusalLen = 35
	return cfg
}

// TestChurnValidation: the bus refuses a churn engine it could not run. A
// zero Fanout means "the default engine", so each invalid engine sets one.
func TestChurnValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewBus(Config{Seed: 1, Engine: churnEngine()}); err != nil {
		t.Fatalf("churn engine refused: %v", err)
	}
	fanout := churnEngine()
	fanout.Fanout = fanout.Membership.MaxView + 1
	unsubs := churnEngine()
	unsubs.Membership.MaxUnsubs = 0
	for name, engine := range map[string]core.Config{
		"fanout past view": fanout,
		"no unSubs buffer": unsubs,
	} {
		if _, err := NewBus(Config{Seed: 1, Engine: engine}); err == nil {
			t.Errorf("%s: invalid engine accepted", name)
		}
	}
}

// activeGraph restricts a view graph to its own members: the views of the
// active members, less the entries that name anyone else.
func activeGraph(g membership.Graph) membership.Graph {
	out := membership.Graph{}
	for pid, view := range g {
		var kept []proto.ProcessID
		for _, q := range view {
			if _, ok := g[q]; ok {
				kept = append(kept, q)
			}
		}
		out[pid] = kept
	}
	return out
}

// TestBusGraph: a member in its leave grace is not a node of the graph, and
// the views are unfiltered, so a view still naming it shows.
func TestBusGraph(t *testing.T) {
	t.Parallel()
	b := newTestBus(t, Config{Seed: 3})
	var subs []*Subscription
	for i := 0; i < 8; i++ {
		sub, err := b.NewClient(fmt.Sprint(i)).Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	b.StepN(10)
	if err := subs[0].Cancel(); err != nil {
		t.Fatal(err)
	}
	g := b.Graph("t")
	if _, ok := g[subs[0].m.pid]; ok || len(g) != 7 {
		t.Fatalf("graph in the leaver's grace has %d members, the leaver among them: %v", len(g), g)
	}
	if deg := g.InDegrees()[subs[0].m.pid]; deg == 0 {
		t.Errorf("no view names the leaver a step after it cancelled: %v", g)
	}
	if len(b.Graph("none")) != 0 {
		t.Error("an unknown topic has members")
	}
}

// churnTopic is the one topic a churn row runs on.
const churnTopic = "churn"

// staleHorizon is how long a view may keep naming a member that left: its
// leave grace and its unsubscription's TTL together.
var staleHorizon = uint64(leaveGraceRounds) + churnEngine().Membership.UnsubTTL

// staleRefs counts the references in the views of g, at bus round now, to
// members that left more than staleHorizon rounds before.
func staleRefs(g membership.Graph, leftAt map[proto.ProcessID]uint64, now uint64) int {
	n := 0
	for _, view := range g {
		for _, q := range view {
			if at, ok := leftAt[q]; ok && now > at+staleHorizon {
				n++
			}
		}
	}
	return n
}

// lateStale steps b on, churn-free, until the last leave runChurn measured in
// res is more than staleHorizon rounds old, and counts the stale references
// then: the read at which every leave of the row can be stale.
func lateStale(b *Bus, res churnResult) int {
	var last uint64
	for _, at := range res.leftAt {
		last = max(last, at)
	}
	for b.Now() <= last+staleHorizon {
		b.Step()
	}
	return staleRefs(b.Graph(churnTopic), res.leftAt, b.Now())
}

// runChurn drives one row on a fresh bus and measures it. Leavers are drawn
// from a stream of the row's seed; a refused cancel (the unSubs buffer is
// full, §3.4) is counted and the leaves wait for the next round.
func runChurn(t *testing.T, row churnRow) (churnResult, *Bus) {
	t.Helper()
	b := newTestBus(t, Config{
		Seed:       row.seed,
		Epsilon:    0.05,
		Topology:   row.topology,
		Partitions: row.partitions,
		Engine:     churnEngine(),
	})
	var active []*Subscription
	clients := 0
	subscribe := func() {
		sub, err := b.NewClient(fmt.Sprintf("c%d", clients)).Subscribe(churnTopic, nil)
		if err != nil {
			t.Fatal(err)
		}
		clients++
		active = append(active, sub)
	}
	for i := 0; i < row.n; i++ {
		subscribe()
	}
	b.StepN(10)

	res := churnResult{leftAt: map[proto.ProcessID]uint64{}}
	pick := rng.New(row.seed)
	for r := 0; r < row.rounds; r++ {
		for j := 0; j < row.joins; j++ {
			subscribe()
			res.joined++
		}
		for j := 0; j < row.leaves && len(active) > 2; j++ {
			i := pick.Intn(len(active))
			if err := active[i].Cancel(); err != nil {
				if !errors.Is(err, membership.ErrUnsubRefused) {
					t.Fatal(err)
				}
				res.refused++
				break
			}
			res.leftAt[active[i].m.pid] = b.Now()
			active = append(active[:i], active[i+1:]...)
			res.left++
		}
		b.Step()
		if c := len(activeGraph(b.Graph(churnTopic)).Components()); c > res.maxComponents {
			res.maxComponents = c
		}
	}
	b.StepN(5)

	raw := b.Graph(churnTopic)
	g := activeGraph(raw)
	comps := g.Components()
	res.final = len(g)
	res.finalComponents = len(comps)
	res.inDegreeMean, res.inDegreeStddev, _, _ = g.InDegreeStats()
	largest := 0
	for i, c := range comps {
		if len(c) > len(comps[largest]) {
			largest = i
		}
	}
	for i, c := range comps {
		if i != largest {
			res.orphans = append(res.orphans, c...)
		}
	}
	res.stale = staleRefs(raw, res.leftAt, b.Now())
	return res, b
}

// churnRows are the scenarios TestBusChurn bounds. The wan rows are the
// steady row on two clusters split at pid 30, with WAN links delayed 1–3
// rounds and cut over rounds [20, 30).
func churnRows() []churnRow {
	steady := churnRow{
		name: "steady", n: 60, joins: 1, leaves: 1, rounds: 40, seed: 1,
		minJoined: 40, minLeft: 30, minFinal: 40, maxFinal: 80,
	}
	wan := func(seed uint64, orphans, lateStale int) churnRow {
		r := steady
		r.name = fmt.Sprintf("wan/seed=%d", seed)
		r.seed, r.orphans, r.lateStale = seed, orphans, lateStale
		r.topology = fault.TwoCluster{
			Split: 30,
			Local: fault.LinkProfile{Epsilon: -1},
			WAN:   fault.LinkProfile{Epsilon: -1, MinDelay: 1, MaxDelay: 3},
		}
		r.partitions = []fault.Partition{{From: 20, To: 30, Classes: []fault.LinkClass{fault.LinkWAN}}}
		return r
	}
	return []churnRow{
		steady,
		{name: "shrinking", n: 80, leaves: 2, rounds: 30, seed: 23, minLeft: 30, minFinal: 20, maxFinal: 79},
		{name: "growing", n: 20, joins: 2, rounds: 30, seed: 29, minJoined: 60, minFinal: 80, maxFinal: 80},
		wan(1, 0, 0), wan(23, 1, 1), wan(31, 1, 1),
	}
}

// TestBusChurn measures the §3.4 membership under continuous joins and
// graceful leaves on the topic's view graph: the population follows joins
// and leaves, views stay useful (mean in-degree near l), and no active view
// names a member that left longer ago than grace + UnsubTTL, neither 5
// quiet rounds after churn nor once every leave is that old (lateStale; the
// first read comes before any leave can be stale). Without a topology the
// graph stays connected: at most two components while it churns (a join
// still propagating), one once churn stops.
//
// The wan rows pin two findings instead. A join request lost to the WAN's
// delay or cut orphans its joiner — an empty view, a view naming only a
// departed member, or an island with a joiner that joined through it — and
// nothing re-sends a join, so the orphan stays isolated; every other active
// member stays in the largest component. And after the cut some views
// still name departed members once every leave is past grace + UnsubTTL,
// where no ε-only row has any: §3.4's TTL bounds how long an
// unsubscription travels, not how long a stale id does.
func TestBusChurn(t *testing.T) {
	t.Parallel()
	for _, row := range churnRows() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			res, b := runChurn(t, row)
			if res.joined < row.minJoined || res.left < row.minLeft {
				t.Fatalf("churn did not happen: %v", res)
			}
			if res.final < row.minFinal || res.final > row.maxFinal {
				t.Errorf("final population %d outside [%d, %d]: %v", res.final, row.minFinal, row.maxFinal, res)
			}
			if res.inDegreeMean < 5 {
				t.Errorf("final in-degree mean %v too low: %v", res.inDegreeMean, res)
			}
			if res.stale != 0 {
				t.Errorf("%d stale view references to long-departed members: %v", res.stale, res)
			}
			if err := b.TotalNetStats().Conserved(); err != nil {
				t.Error(err)
			}
			// Read again once every leave is past the horizon, after the
			// reading TestBusChurnPinned pins.
			if late := lateStale(b, res); late != row.lateStale {
				t.Errorf("%d stale view references once every leave is %d rounds old, want %d: %v",
					late, staleHorizon+1, row.lateStale, res)
			}
			if row.topology == nil {
				if res.maxComponents > 2 {
					t.Errorf("membership badly partitioned during churn: %v", res)
				}
				if res.finalComponents != 1 {
					t.Errorf("membership not reconnected after churn: %v", res)
				}
				return
			}
			if len(res.orphans) != row.orphans {
				t.Errorf("%d orphans, want %d: %v", len(res.orphans), row.orphans, res)
			}
			for _, pid := range res.orphans {
				if pid <= proto.ProcessID(row.n) {
					t.Errorf("orphan %v is not a joiner: %v", pid, res)
				}
			}
		})
	}
}

// TestBusChurnDeterministic: the same row and seed measure the same, on the
// view graph and in the network counters.
func TestBusChurnDeterministic(t *testing.T) {
	t.Parallel()
	for _, row := range churnRows() {
		a, ba := runChurn(t, row)
		b, bb := runChurn(t, row)
		if fmt.Sprint(a) != fmt.Sprint(b) || ba.TotalNetStats() != bb.TotalNetStats() {
			t.Errorf("%s: same seed diverged:\n%v %+v\n%v %+v", row.name, a, ba.TotalNetStats(), b, bb.TotalNetStats())
		}
	}
}

// TestBusChurnPinned pins the steady row's measures and network counters
// across versions: it is the referee for the bus's churn path — join
// requests dispatched through the network model, members removed at the
// end of their grace, and traffic to departed members accounted as unknown
// destinations — and for the order in which it draws.
func TestBusChurnPinned(t *testing.T) {
	t.Parallel()
	res, b := runChurn(t, churnRows()[0])
	const want = "churn(final=63 joined=40 left=37 refused=3 maxComponents=1 finalComponents=1 indegree=14.8±4.8 stale=0 orphans=[])"
	if got := res.String(); got != want {
		t.Fatalf("steady churn = %s, want %s", got, want)
	}
	// The summary rounds the in-degree; the full figures move with any draw.
	const wantFull = "indegree 14.777777777777779±4.841764221439753 net {Sent:10166 Dropped:499 ToCrashed:0 UnknownDest:121 Delivered:9546 DeliveredLate:0 DroppedInPartition:0 InFlight:0 TruncatedChase:0}"
	if got := fmt.Sprintf("indegree %v±%v net %+v", res.inDegreeMean, res.inDegreeStddev, b.TotalNetStats()); got != wantFull {
		t.Fatalf("steady churn: %s, want %s", got, wantFull)
	}
}
