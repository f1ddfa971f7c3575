package golden

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/pbcast"
	"repro/internal/proto"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind discriminates the two scenario families.
type Kind int

const (
	// KindCluster drives a sim.Cluster (one flat broadcast group).
	KindCluster Kind = iota
	// KindBus drives a pubsub.Bus (topics, live churn).
	KindBus
)

// Publish schedules one notification: process index Proc publishes at the
// top of round Round, before the round's gossip runs (the experiment-loop
// convention).
type Publish struct {
	Round, Proc int
}

// Load is an arithmetic publish rotation: Rate publishes per round over
// rounds [From, To], at process indices (31r+17k) mod N. It generates
// sustained pressure without per-scenario publish tables.
type Load struct {
	From, To, Rate int
}

// BusPublish schedules one notification on a topic rank's seed member.
type BusPublish struct {
	Round, Rank int
}

// ChurnPhase adds live membership churn to a bus scenario: during rounds
// [From, To], Joins fresh clients subscribe to topic rank TopicRank and
// Leaves of the oldest churn-created subscriptions cancel, each round.
// A cancel refused by the unSubs-buffer bound (§3.4 back-pressure) is
// recorded on the tape and retried the next round.
type ChurnPhase struct {
	From, To  int
	Joins     int
	TopicRank int
	Leaves    int
}

// BusSetup is the bus-scenario half of a Scenario.
type BusSetup struct {
	// Cfg shapes the bus; the recorder installs its own Tracer.
	Cfg pubsub.Config
	// Workload is the initial Zipf deployment (Topics > 0 required).
	Workload pubsub.Workload
	// Publishes schedules notifications by topic rank.
	Publishes []BusPublish
	// Churn schedules live join/leave phases.
	Churn []ChurnPhase
}

// Scenario is one named golden workload. The zero value is not useful;
// scenarios live in the registry (scenarios.go) and are looked up by name.
type Scenario struct {
	// Name is the registry key and the tape's base filename.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Kind selects the cluster or bus recorder.
	Kind Kind
	// Rounds is the recorded horizon (gossip rounds / bus steps).
	Rounds int
	// CheckpointEvery inserts NetStats/engine/view checkpoint blocks every
	// k rounds (0 means every 8); the final round always checkpoints.
	CheckpointEvery int
	// PerProcess lists each delivery as its own sorted line instead of
	// aggregating per-event counts — readable for small scenarios, too
	// verbose for saturation ones.
	PerProcess bool
	// BothClocks marks a cluster scenario whose tape must be byte-identical
	// on ClockRounds and ClockEvent (rounds-granular, synchronous models
	// only — the clock-bridge guarantee).
	BothClocks bool
	// Knobs is a free-form fingerprint suffix naming the knobs that make
	// the scenario adversarial (printed into the tape header).
	Knobs string

	// Opts configures the cluster (KindCluster). The recorder installs its
	// own Tracer and, for variant checks, overrides RunConfig.
	Opts sim.Options
	// Publishes and Load schedule cluster notifications.
	Publishes []Publish
	Load      Load

	// Bus configures the bus scenario (KindBus).
	Bus BusSetup
}

func (s Scenario) checkpointEvery() int {
	if s.CheckpointEvery <= 0 {
		return 8
	}
	return s.CheckpointEvery
}

// Record produces the scenario's canonical tape, using the scenario's own
// run configuration.
func Record(s Scenario) ([]byte, error) {
	return RecordVariant(s, s.Opts.RunConfig)
}

// RecordVariant records a cluster scenario under an alternate execution
// configuration (Workers, Clock) — the tape must come out byte-identical,
// which the golden tests assert. Bus scenarios have a single-threaded
// deterministic executor, so rc is ignored for them.
func RecordVariant(s Scenario, rc sim.RunConfig) ([]byte, error) {
	switch s.Kind {
	case KindCluster:
		return recordCluster(s, rc)
	case KindBus:
		return recordBus(s)
	default:
		return nil, fmt.Errorf("golden: unknown scenario kind %d", int(s.Kind))
	}
}

// collector buffers trace events between round boundaries. The sharded
// executors record concurrently, hence the lock; drain order is
// canonicalized by the tape writer, never trusted.
type collector struct {
	mu  sync.Mutex
	evs []trace.Event
}

// Record implements trace.Tracer.
func (c *collector) Record(e trace.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

// drain returns and clears the buffered events.
func (c *collector) drain() []trace.Event {
	c.mu.Lock()
	out := c.evs
	c.evs = nil
	c.mu.Unlock()
	return out
}

func recordCluster(s Scenario, rc sim.RunConfig) ([]byte, error) {
	opts := s.Opts
	col := &collector{}
	opts.Tracer = col
	opts.RunConfig = rc
	c, err := sim.NewCluster(opts)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", s.Name, err)
	}
	defer c.Close()
	col.drain() // warmup rounds are not part of the tape

	var w tapeWriter
	w.linef("golden-tape v%d", Version)
	w.linef("scenario %s", s.Name)
	w.linef("kind cluster")
	w.linef("config n=%d proto=%s seed=%d eps=%g tau=%g rounds=%d",
		opts.N, opts.Protocol, opts.Seed, opts.Epsilon, opts.Tau, s.Rounds)
	if s.Knobs != "" {
		w.linef("knobs %s", s.Knobs)
	}

	published := 0
	for r := 1; r <= s.Rounds; r++ {
		w.linef("round %d", r)
		for _, p := range s.Publishes {
			if p.Round != r {
				continue
			}
			ev, err := c.PublishAt(p.Proc)
			if err != nil {
				return nil, fmt.Errorf("golden: %s: publish round %d: %w", s.Name, r, err)
			}
			w.linef("publish p=%s ev=%s", proto.ProcessID(p.Proc+1), ev.ID)
			published++
		}
		if s.Load.Rate > 0 && r >= s.Load.From && r <= s.Load.To {
			for k := 0; k < s.Load.Rate; k++ {
				i := (31*r + 17*k) % opts.N
				ev, err := c.PublishAt(i)
				if err != nil {
					return nil, fmt.Errorf("golden: %s: load publish round %d: %w", s.Name, r, err)
				}
				w.linef("publish p=%s ev=%s", proto.ProcessID(i+1), ev.ID)
				published++
			}
		}
		c.RunRound()
		writeDelivers(&w, col.drain(), s.PerProcess)
		if r%s.checkpointEvery() == 0 || r == s.Rounds {
			writeClusterCheckpoint(&w, c)
		}
	}
	w.linef("end rounds=%d published=%d", s.Rounds, published)
	return w.bytes(), nil
}

func recordBus(s Scenario) ([]byte, error) {
	cfg := s.Bus.Cfg
	col := &collector{}
	cfg.Tracer = col
	bus, err := pubsub.NewBus(cfg)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", s.Name, err)
	}
	pop, err := s.Bus.Workload.Deploy(bus, nil)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: deploy: %w", s.Name, err)
	}

	var w tapeWriter
	w.linef("golden-tape v%d", Version)
	w.linef("scenario %s", s.Name)
	w.linef("kind bus")
	w.linef("config topics=%d subs=%d zipf=%g wseed=%d seed=%d eps=%g rounds=%d",
		s.Bus.Workload.Topics, s.Bus.Workload.Subscribers, s.Bus.Workload.S,
		s.Bus.Workload.Seed, cfg.Seed, cfg.Epsilon, s.Rounds)
	if s.Knobs != "" {
		w.linef("knobs %s", s.Knobs)
	}
	setup := col.drain()
	w.linef("setup joins=%d", countKind(setup, trace.KindJoinSent))

	var churnSubs []*pubsub.Subscription
	churnSeq := 0
	published := 0
	for r := 1; r <= s.Rounds; r++ {
		w.linef("round %d", r)
		for _, p := range s.Bus.Publishes {
			if p.Round != r {
				continue
			}
			ev, err := pop.PublishAt(p.Rank, nil)
			if err != nil {
				return nil, fmt.Errorf("golden: %s: publish round %d: %w", s.Name, r, err)
			}
			w.linef("publish t=%s ev=%s", pubsub.TopicName(p.Rank), ev.ID)
			published++
		}
		for _, ph := range s.Bus.Churn {
			if r < ph.From || r > ph.To {
				continue
			}
			for k := 0; k < ph.Joins; k++ {
				churnSeq++
				cl := bus.NewClient(fmt.Sprintf("churn%05d", churnSeq))
				sub, err := cl.Subscribe(pubsub.TopicName(ph.TopicRank), nil)
				if err != nil {
					return nil, fmt.Errorf("golden: %s: churn join round %d: %w", s.Name, r, err)
				}
				churnSubs = append(churnSubs, sub)
			}
			refused := 0
			for k := 0; k < ph.Leaves && len(churnSubs) > 0; k++ {
				if err := churnSubs[0].Cancel(); err != nil {
					if errors.Is(err, membership.ErrUnsubRefused) {
						// §3.4 back-pressure: the unSubs buffer is full.
						// Leave the subscription queued and retry next round.
						refused++
						break
					}
					return nil, fmt.Errorf("golden: %s: churn leave round %d: %w", s.Name, r, err)
				}
				churnSubs = churnSubs[1:]
			}
			if refused > 0 {
				w.linef("cancel-refused n=%d", refused)
			}
		}
		bus.Step()
		evs := col.drain()
		writeBusMembership(&w, evs)
		writeDelivers(&w, evs, s.PerProcess)
		if r%s.checkpointEvery() == 0 || r == s.Rounds {
			writeBusCheckpoint(&w, bus)
		}
	}
	w.linef("end rounds=%d published=%d", s.Rounds, published)
	return w.bytes(), nil
}

func countKind(evs []trace.Event, k trace.Kind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// writeDelivers serializes one round's deliveries canonically: either one
// sorted line per (process, event) or an aggregated per-event count —
// both forms are invariant under the executors' intra-round ordering.
func writeDelivers(w *tapeWriter, evs []trace.Event, perProcess bool) {
	if perProcess {
		var ds []trace.Event
		for _, e := range evs {
			if e.Kind == trace.KindDeliver {
				ds = append(ds, e)
			}
		}
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].Node != ds[j].Node {
				return ds[i].Node < ds[j].Node
			}
			return ds[i].EventID.Less(ds[j].EventID)
		})
		for _, e := range ds {
			w.linef("deliver p=%s ev=%s", e.Node, e.EventID)
		}
		return
	}
	counts := map[proto.EventID]int{}
	for _, e := range evs {
		if e.Kind == trace.KindDeliver {
			counts[e.EventID]++
		}
	}
	ids := make([]proto.EventID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		w.linef("delivered ev=%s n=%d", id, counts[id])
	}
}

// writeBusMembership serializes one round's joins and leaves, sorted.
func writeBusMembership(w *tapeWriter, evs []trace.Event) {
	var joins, leaves []proto.ProcessID
	for _, e := range evs {
		switch e.Kind {
		case trace.KindJoinSent:
			joins = append(joins, e.Node)
		case trace.KindLeave:
			leaves = append(leaves, e.Node)
		}
	}
	sort.Slice(joins, func(i, j int) bool { return joins[i] < joins[j] })
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	for _, p := range joins {
		w.linef("join p=%s", p)
	}
	for _, p := range leaves {
		w.linef("leave p=%s", p)
	}
}

func writeNetStats(w *tapeWriter, n sim.NetStats) {
	w.linef("net sent=%d delivered=%d late=%d dropped=%d crashed=%d unknown=%d partition=%d inflight=%d truncated=%d",
		n.Sent, n.Delivered, n.DeliveredLate, n.Dropped, n.ToCrashed,
		n.UnknownDest, n.DroppedInPartition, n.InFlight, n.TruncatedChase)
}

func writeClusterCheckpoint(w *tapeWriter, c *sim.Cluster) {
	writeNetStats(w, c.NetStats())
	var es core.Stats
	var ps pbcast.Stats
	engines, nodes := 0, 0
	for i := 0; i < c.N(); i++ {
		switch p := c.Process(i).(type) {
		case *core.Engine:
			es.Add(p.Stats())
			engines++
		case *pbcast.Node:
			ps.Add(p.Stats())
			nodes++
		}
	}
	if engines > 0 {
		w.linef("engines sent=%d recv=%d pub=%d delivered=%d dup=%d assumed=%d rtreq=%d rtserved=%d rtmiss=%d rttimeout=%d overflow=%d",
			es.GossipsSent, es.GossipsReceived, es.EventsPublished,
			es.EventsDelivered, es.DuplicatesDropped, es.AssumedFromDigest,
			es.RetransmitRequests, es.RetransmitServed, es.RetransmitMisses,
			es.RetransmitTimeouts, es.EventsOverflowed)
	}
	if nodes > 0 {
		w.linef("pnodes sent=%d recv=%d pub=%d delivered=%d dup=%d solicit=%d retrans=%d hoplimit=%d",
			ps.GossipsSent, ps.GossipsReceived, ps.MessagesPublished,
			ps.MessagesDelivered, ps.DuplicatesDropped, ps.Solicitations,
			ps.Retransmissions, ps.HopLimitRefusals)
	}
	writeViews(w, c.Graph())
}

// writeViews summarizes the membership graph as (alive procs, total view
// edges, FNV-1a over the pid-sorted adjacency) — a full-view fingerprint
// in one line.
func writeViews(w *tapeWriter, g membership.Graph) {
	pids := make([]proto.ProcessID, 0, len(g))
	for pid := range g {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	h := fnv.New64a()
	var buf [8]byte
	edges := 0
	for _, pid := range pids {
		putUint64(&buf, uint64(pid))
		h.Write(buf[:])
		for _, q := range g[pid] {
			putUint64(&buf, uint64(q))
			h.Write(buf[:])
		}
		edges += len(g[pid])
	}
	w.linef("views procs=%d edges=%d hash=%016x", len(pids), edges, h.Sum64())
}

func putUint64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}

func writeBusCheckpoint(w *tapeWriter, bus *pubsub.Bus) {
	writeNetStats(w, bus.TotalNetStats())
	topics := bus.Topics()
	parts := make([]string, 0, len(topics))
	for _, t := range topics {
		parts = append(parts, fmt.Sprintf("%s=%d", t, bus.TopicSize(t)))
	}
	w.linef("topics %s", strings.Join(parts, " "))
}
