// Package sim is the evaluation harness of the reproduction: a
// round-synchronous simulator in the style of the paper's §5.1 ("we have
// simulated the entire system in a single process ... synchronous gossip
// rounds in which each process gossips once"), with the §4.1 failure
// model: Bernoulli message loss ε and a crashed fraction τ.
//
// The simulator drives the real protocol engines (internal/core for
// lpbcast, internal/pbcast for Bimodal Multicast) through the shared
// Process interface, so simulation results measure the same code that
// runs over real transports. Two experiment types cover all of the
// paper's empirical figures:
//
//   - InfectionExperiment traces the propagation of a single event
//     (Figs. 5(a), 5(b), 7(a));
//   - ReliabilityExperiment measures delivery reliability 1-β under a
//     continuous publication load with bounded buffers
//     (Figs. 6(a), 6(b), 7(b)).
package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/idmap"
	"repro/internal/membership"
	"repro/internal/netmodel"
	"repro/internal/pbcast"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Process is the engine-side contract the simulator drives: the paper's
// process does two things (Fig. 1), handle a gossip it receives and emit one
// gossip per period. It is the contract lpbcast.Engine gives the live node,
// and both core.Engine and pbcast.Node satisfy it.
type Process interface {
	Self() proto.ProcessID
	TickAppend(now uint64, out []proto.Message) []proto.Message
	HandleMessageAppend(m proto.Message, now uint64, out []proto.Message) []proto.Message
}

// Protocol selects which broadcast algorithm a cluster runs.
type Protocol int

const (
	// Lpbcast is the paper's algorithm (internal/core).
	Lpbcast Protocol = iota
	// PbcastPartial is Bimodal Multicast over the lpbcast membership
	// layer (§6.2).
	PbcastPartial
	// PbcastTotal is classic Bimodal Multicast with a complete view.
	PbcastTotal
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Lpbcast:
		return "lpbcast"
	case PbcastPartial:
		return "pbcast/partial"
	case PbcastTotal:
		return "pbcast/total"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Options configures a simulated cluster.
type Options struct {
	// N is the number of processes.
	N int
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Protocol selects the broadcast algorithm.
	Protocol Protocol
	// Lpbcast configures the engines when Protocol == Lpbcast.
	Lpbcast core.Config
	// Pbcast configures the nodes for the pbcast protocols.
	Pbcast pbcast.Config
	// Epsilon is the per-message loss probability ε (paper: 0.05); see
	// netmodel.Config, as for Delay, Topology and Partitions.
	Epsilon float64
	// Tau is the crashed fraction per run (paper: 0.01). Crash times are
	// sampled uniformly over the run's horizon.
	Tau float64
	// Horizon is the number of rounds used when sampling crash times; the
	// experiment runners set it to their round count.
	Horizon uint64
	// WarmupRounds lets membership gossip mix the views before the
	// measured part of the experiment starts.
	WarmupRounds int
	// FirstPhaseDelivery, for the pbcast protocols, is the per-receiver
	// delivery probability of the unreliable first-phase multicast (IP
	// multicast in Bimodal Multicast). 0 disables the first phase — the
	// configuration of the paper's Fig. 7, whose curves start at one
	// infected process.
	FirstPhaseDelivery float64
	// RingSeed seeds each view with only the successor process instead of
	// a uniform random sample, so view quality depends entirely on the
	// membership gossip — used by the §6.1 membership-frequency ablation.
	RingSeed bool
	// Async selects unsynchronized gossip periods, the regime of the
	// paper's real measurements (§3.2: "non-synchronized periodical
	// gossips"). Processes tick once per period in a random order, and a
	// process that receives fresh information before its own tick forwards
	// it within the same period (≈2 hops per period on average, vs exactly
	// 1 in synchronous mode). Periods follow the deterministic wavefront
	// schedule of async.go. Synchronous mode (false) matches
	// the paper's §5.1 simulations and the Markov analysis.
	Async bool
	// RunConfig selects the shard count (Workers), the time base (Clock,
	// PeriodMs), and the buffer-poisoning debug mode; see RunConfig. The
	// embed keeps the historical field names (o.Workers, o.PoisonRecycled)
	// working unchanged.
	RunConfig
	// Delay, Topology and Partitions are the network model beside Epsilon,
	// with netmodel.Config's semantics and rules: nil Delay and Topology is
	// the paper's §5.1 same-round network. A millisecond delay model needs
	// ClockEvent, and partition windows must start inside the Horizon when
	// one is set.
	Delay      fault.DelayModel
	Topology   fault.Topology
	Partitions []fault.Partition
	// Tracer, when set, observes protocol events during the run through
	// the same trace.Tracer seam the live runtime uses. The simulator
	// currently emits KindDeliver — one event per first delivery, with
	// Node set to the delivering process, EventID to the notification, and
	// N to the current round (When stays zero: virtual time has no wall
	// clock). With more than one shard the tracer is invoked concurrently
	// from the handle phase, so implementations must be safe for concurrent use
	// (all trace sinks are). Delivery *order* within a round is executor-
	// dependent — one process handles its messages in queue order, the
	// order across processes within a hop is unspecified on any worker
	// count (docs/ARCHITECTURE.md, the handling-order contract); the
	// per-round delivery *set* is not — consumers that need byte-stable
	// output (internal/golden) sort each round's events before serializing.
	Tracer trace.Tracer
}

// network is the options' network model.
func (o Options) network() netmodel.Config {
	return netmodel.Config{Epsilon: o.Epsilon, Topology: o.Topology, Delay: o.Delay, Partitions: o.Partitions}
}

// netClock is what the run configuration's clock means to the network.
func (o Options) netClock() netmodel.Clock {
	clock := netmodel.Clock{Horizon: o.Horizon}
	if o.Clock == ClockEvent {
		clock.PeriodMs = o.periodMillis()
	}
	return clock
}

// DefaultOptions returns the paper's standard simulation setup for n
// processes: lpbcast, F=3, l=15, ε=0.05, τ=0.01.
func DefaultOptions(n int) Options {
	return Options{
		N:       n,
		Seed:    1,
		Lpbcast: core.DefaultConfig(),
		Pbcast:  pbcast.DefaultConfig(),
		Epsilon: 0.05,
		Tau:     0.01,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.N < 2 {
		return errors.New("sim: need at least 2 processes")
	}
	if o.Tau < 0 || o.Tau >= 1 {
		return fmt.Errorf("sim: tau %v out of [0,1)", o.Tau)
	}
	if o.FirstPhaseDelivery < 0 || o.FirstPhaseDelivery > 1 {
		return fmt.Errorf("sim: FirstPhaseDelivery %v out of [0,1]", o.FirstPhaseDelivery)
	}
	if o.WarmupRounds < 0 {
		return fmt.Errorf("sim: WarmupRounds %d must be non-negative", o.WarmupRounds)
	}
	if err := o.RunConfig.validateRun(); err != nil {
		return err
	}
	if err := o.network().Validate(o.netClock()); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	switch o.Protocol {
	case Lpbcast:
		return o.Lpbcast.Validate()
	case PbcastPartial, PbcastTotal:
		return o.Pbcast.Validate()
	default:
		return fmt.Errorf("sim: unknown protocol %d", int(o.Protocol))
	}
}

// NetStats counts network-level activity during a run; it is the shared
// stats.NetStats (one definition for every routing harness — the sim
// executors here and the pubsub Bus). See that type for the counter
// semantics and the conservation invariant Conserved checks.
type NetStats = stats.NetStats

// Cluster is a simulated system of processes plus its failure model.
type Cluster struct {
	opts      Options
	procs     []Process
	ids       []proto.ProcessID
	index     idmap.Table // pid ↔ dense process index
	sinks     []procSink  // per-process delivery sinks
	pools     []*core.Pools
	network   *netmodel.Model
	crashes   *fault.CrashSchedule
	rec       *recorder
	tickRNG   *rng.Source
	mcastRNG  *rng.Source
	now       uint64
	net       NetStats
	deliverFn func(owner proto.ProcessID, ev proto.Event)
	exec      *shardedExecutor // runs every round and period, on 1..W shards
	poolToken *poolToken       // finalized with the cluster; see poolCleanup
	// emit holds one emission arena per executor shard: every engine of
	// shard s (shardRange) cuts its emissions from emit[s]. Each keeps one
	// generation per period a message can be in flight
	// (netmodel.Model.Generations), and RunRound rotates them all once the
	// period is over.
	emit []proto.EmitArena
	// ledgers[i] counts the messages process i sends, on a cluster built
	// empty (NewEmptyCluster); on any other it is nil, and net counts them
	// all.
	ledgers []*stats.NetStats
	// arrivalDests holds the destination indices of the arrivals the last
	// settleArrivals put on the queue, and arrivalLedgers the ledgers the
	// ring hands out beside them; both are retained across periods.
	arrivalDests   []int
	arrivalLedgers []*stats.NetStats
	// viewIdxScratch/viewPIDScratch back uniformView: initial views are
	// drawn one process at a time through shared scratch, so seeding n
	// processes costs two allocations total instead of two per process.
	viewIdxScratch []int
	viewPIDScratch []proto.ProcessID

	// The clock. Every cluster runs on virtual instants: round r ends at
	// instant r*periodMs, so period p covers the instants ((p-1)*periodMs,
	// p*periodMs]. On the event clock an instant is a millisecond; on the
	// round clock periodMs is 1 and a period is its boundary instant. Ticks
	// are positions in the period, not timers: synchronous ticks fire at the
	// boundary in index order, async ones at their phase offsets. The only
	// timers are the in-flight ring's arrival markers (internal/netmodel).
	periodMs uint64 // gossip period length in instants
	nowMs    uint64 // current virtual instant
	// Async: each process ticks at a fixed phase offset within every period
	// (phase[i] ∈ [1, periodMs]), and the event clock walks a period in
	// ascending (phase, index) order (phaseOrder). The round clock's phases
	// are all the boundary, and it draws its order afresh every period
	// (async.go).
	phase []uint64
}

// forceSparseIndex is a test hook: when set, the cluster's pid table
// routes every lookup through idmap's sparse fallback instead of the dense
// forward array, so equivalence tests can pin the two paths against each
// other.
var forceSparseIndex bool

// NewCluster builds a cluster of n processes with uniformly random initial
// views of size l (the analysis' uniform-view assumption, §4.1), then runs
// the configured warmup rounds.
func NewCluster(opts Options) (*Cluster, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(opts.Seed)
	c := &Cluster{
		opts:    opts,
		crashes: fault.NewCrashSchedule(),
		rec:     newRecorder(opts.N),
	}
	c.index.SetSparseOnly(forceSparseIndex)
	c.index.Reserve(proto.ProcessID(opts.N), opts.N)
	// Stream discipline: the root splits happen in a fixed order that
	// depends only on the options, never on the shard count, so runs of the
	// same options share every stream whatever their Workers. The delay
	// stream is split only when a delay model is in force, keeping
	// zero-delay runs bit-identical to pre-delay versions.
	lossRNG := root.Split()
	c.tickRNG = root.Split()
	c.mcastRNG = root.Split()
	var delayRNG *rng.Source
	if opts.network().EffectiveDelay() != nil {
		delayRNG = root.Split()
	}
	c.buildNetwork(lossRNG, delayRNG, effectiveWorkers(opts.Workers, opts.N))
	c.deliverFn = func(owner proto.ProcessID, ev proto.Event) { c.rec.record(owner, ev) }
	if tr := opts.Tracer; tr != nil {
		inner := c.deliverFn
		c.deliverFn = func(owner proto.ProcessID, ev proto.Event) {
			inner(owner, ev)
			tr.Record(trace.Event{Kind: trace.KindDeliver, Node: owner, EventID: ev.ID, N: int(c.now)})
		}
	}

	c.ids = make([]proto.ProcessID, opts.N)
	for i := 0; i < opts.N; i++ {
		pid := proto.ProcessID(i + 1)
		c.ids[i] = pid
		c.index.Add(pid)
	}
	viewRNG := root.Split()
	if err := c.buildEngines(root, viewRNG); err != nil {
		return nil, err
	}

	if opts.Tau > 0 {
		horizon := opts.Horizon
		if horizon == 0 {
			horizon = 10
		}
		c.crashes.SampleCrashes(c.ids, opts.Tau, horizon, root.Split())
	}

	// Clock setup. The async phase stream is the LAST root split, so every
	// other stream keeps its position whatever the regime and the clock —
	// which is what lets the bridge tests demand byte-for-byte equal results.
	c.periodMs = opts.periodMillis()
	if opts.Async {
		evRNG := root.Split()
		c.phase = make([]uint64, opts.N)
		for i := range c.phase {
			c.phase[i] = 1 + uint64(evRNG.Intn(int(c.periodMs)))
		}
	}

	c.exec = newShardedExecutor(c, len(c.emit))

	for i := 0; i < opts.WarmupRounds; i++ {
		c.RunRound()
	}
	return c, nil
}

// buildNetwork builds the cluster's network model on the given loss and
// delay streams and its w emission arenas, one per executor shard, each
// keeping one generation per period a message can be in flight.
func (c *Cluster) buildNetwork(lossRNG, delayRNG *rng.Source, w int) {
	c.network = netmodel.New(c.opts.network(), c.opts.netClock(), lossRNG, delayRNG)
	c.network.SetPoison(c.opts.PoisonRecycled)
	c.emit = make([]proto.EmitArena, w)
	for s := range c.emit {
		c.emit[s].SetGenerations(c.network.Generations())
		if c.opts.PoisonRecycled {
			c.emit[s].SetPoison(netmodel.PoisonGossip)
		}
	}
}

// NewEmptyCluster builds a cluster with no processes, whose membership
// the caller changes between periods (Add, Remove): one shard, the
// synchronous schedule, the round clock and no crashes. Of opts it reads
// the network (Epsilon, Delay, Topology, Partitions, Horizon) and
// PoisonRecycled, and it refuses what it cannot run: N, Tau, Async,
// Workers > 1 and the event clock. The loss stream and, when a delay model
// is in force, the delay stream are split from root in that order.
func NewEmptyCluster(opts Options, root *rng.Source) (*Cluster, error) {
	if opts.N != 0 || opts.Tau != 0 || opts.Async || opts.Workers > 1 || opts.Clock != ClockRounds {
		return nil, errors.New("sim: an empty cluster runs one synchronous shard on the round clock, without crashes")
	}
	if err := opts.network().Validate(opts.netClock()); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	c := &Cluster{opts: opts, crashes: fault.NewCrashSchedule(), rec: newRecorder(0), periodMs: 1, ledgers: []*stats.NetStats{}}
	lossRNG := root.Split()
	var delayRNG *rng.Source
	if opts.network().EffectiveDelay() != nil {
		delayRNG = root.Split()
	}
	c.buildNetwork(lossRNG, delayRNG, 1)
	c.exec = newShardedExecutor(c, 1)
	return c, nil
}

// Add puts p into a free slot of a cluster built by NewEmptyCluster — the
// slot a Remove freed last, or a new one — to tick from the next period on.
// It binds p to the shard's emission arena, when p emits into one, and
// counts every message p sends in ledger. p's id must be new to the
// cluster.
func (c *Cluster) Add(p Process, ledger *stats.NetStats) {
	pid := p.Self()
	if c.ledgers == nil {
		panic("sim: Add on a cluster not built by NewEmptyCluster")
	}
	if _, dup := c.index.Lookup(pid); dup {
		panic(fmt.Sprintf("sim: Add(%v): already a process of the cluster", pid))
	}
	ix := int(c.index.Add(pid))
	if ix == len(c.procs) {
		c.procs, c.ids, c.ledgers = append(c.procs, nil), append(c.ids, 0), append(c.ledgers, nil)
		c.exec.shardOf = append(c.exec.shardOf, 0)
		c.exec.hi[0] = len(c.procs)
	}
	c.procs[ix], c.ids[ix], c.ledgers[ix] = p, pid, ledger
	if e, ok := p.(interface{ SetEmitArena(*proto.EmitArena) }); ok {
		e.SetEmitArena(&c.emit[0])
	}
}

// Remove takes process pid out of the cluster between periods and frees
// its slot. A message still in flight to it settles as an unknown
// destination when it arrives.
func (c *Cluster) Remove(pid proto.ProcessID) {
	if ix, ok := c.index.Lookup(pid); ok {
		c.procs[ix], c.ids[ix], c.ledgers[ix] = nil, 0, nil
		c.index.Release(pid)
	}
}

// Route sends m between periods — a join request, say — through the filter
// and barrier a period's traffic takes: it is classified at the current
// instant in its sender's ledger, delivered now or parked by the delay
// model, and the responses are chased.
func (c *Cluster) Route(m proto.Message) {
	e := c.exec
	e.clearInboxes()
	e.queue = append(e.queue[:0], m)
	e.asyncRoute(0, &e.queue[0])
	e.asyncBarrier()
}

// ledger is the NetStats that counts a message from sender: the sender's
// own on a cluster built empty, the cluster's on any other.
func (c *Cluster) ledger(sender proto.ProcessID) *stats.NetStats {
	if c.ledgers != nil {
		if ix, ok := c.index.Lookup(sender); ok {
			return c.ledgers[ix]
		}
	}
	return &c.net
}

// uniformView draws l distinct members (excluding process i itself), or
// just the ring successor when RingSeed is set. The returned slice is the
// cluster's seeding scratch, valid until the next call — Seed copies it.
func (c *Cluster) uniformView(i, l int, r *rng.Source) []proto.ProcessID {
	if c.opts.RingSeed {
		c.viewPIDScratch = append(c.viewPIDScratch[:0], c.ids[(i+1)%c.opts.N])
		return c.viewPIDScratch
	}
	c.viewIdxScratch = r.SampleAppend(c.viewIdxScratch[:0], c.opts.N-1, l)
	out := c.viewPIDScratch[:0]
	for _, j := range c.viewIdxScratch {
		// Map [0, N-2] onto ids skipping index i.
		if j >= i {
			j++
		}
		out = append(out, c.ids[j])
	}
	c.viewPIDScratch = out
	return out
}

// Close releases the executor's persistent worker goroutines; a one-shard
// cluster has none, and Close does nothing. It is idempotent, and
// optional: an abandoned cluster's workers are reclaimed by a GC cleanup,
// but the experiment runners close promptly. RunRound must not be called
// after Close.
func (c *Cluster) Close() { c.exec.pool.shutdown() }

// Process returns the i-th process (0-based).
func (c *Cluster) Process(i int) Process { return c.procs[i] }

// N returns the cluster size.
func (c *Cluster) N() int { return c.opts.N }

// Now returns the current round number.
func (c *Cluster) Now() uint64 { return c.now }

// NowMs returns the current virtual instant: milliseconds on the event
// clock; on the round clock, whose period is one instant, the round number.
func (c *Cluster) NowMs() uint64 { return c.nowMs }

// NetStats returns the cumulative network counters.
func (c *Cluster) NetStats() NetStats { return c.net }

// Crashed reports whether process pid is crashed at the current round.
func (c *Cluster) Crashed(pid proto.ProcessID) bool { return c.crashes.Crashed(pid, c.now) }

// AliveCount returns the number of non-crashed processes.
func (c *Cluster) AliveCount() int { return c.opts.N - c.crashes.CrashedCount(c.now) }

// maxChase bounds the same-round response cascade (requests triggering
// replies triggering requests, ...) as a safety valve against protocol
// bugs; well-behaved engines drain in one or two hops.
const maxChase = 16

// RunRound advances the simulation one gossip period.
//
// In synchronous mode (the default, matching §5.1 and the analysis), any
// delayed messages due at the period boundary arrive first (drained from
// the in-flight ring in their deterministic enqueue order); then every
// alive process emits its periodic gossip, the network applies partition,
// loss, crash and delay filtering, and receivers process the arrivals and
// surviving same-instant messages, so information travels exactly one hop
// per round plus whatever the delay model adds. Same-instant responses
// (e.g. pbcast solicitations) are chased until the wire drains. Arrivals a
// millisecond delay model lands inside the period are handled at their own
// instants, before the boundary.
//
// In Async mode, processes tick once per period — in a random order on the
// round clock, at fixed phase offsets on the event clock — and a receiver
// that has not yet ticked forwards fresh information within the same
// period, as in the paper's unsynchronized testbed. An arrival is visible
// to every tick at or after its instant. Periods run the deterministic
// wavefront schedule (async.go).
//
// There is one schedule per regime, the same on both clocks, and it runs on
// 1..W shards (RunConfig.Workers) with results bit-for-bit identical for
// any W.
func (c *Cluster) RunRound() {
	c.now++
	c.runRoundBody()
	if c.opts.PoisonRecycled {
		c.exec.poisonRecycled()
	}
	// The delay ring poisons what the period drained, and takes back its
	// oldest generation, only now, after every consumer is done; then each
	// shard's arena takes back the emissions of the oldest period it holds,
	// whose every message has arrived.
	c.network.EndPeriod(c.nowMs)
	for s := range c.emit {
		c.emit[s].Reset()
	}
}

// runRoundBody runs one period of the regime's schedule, and leaves nowMs
// at the period's boundary.
func (c *Cluster) runRoundBody() {
	if c.opts.Async {
		c.exec.runAsyncPeriod()
	} else {
		c.exec.runRound()
	}
}

// verdict is the cluster's word on a message's destination for the network
// model: its process index, whether it is a process of the cluster, and
// whether it is alive now. Every schedule routes messages through the one
// netmodel filter with it, so the accounting (and the loss and delay
// streams' draw-per-message discipline) cannot drift between them.
func (c *Cluster) verdict(to proto.ProcessID) (di int, known, alive bool) {
	ix, known := c.index.Lookup(to)
	return int(ix), known, known && !c.crashes.Crashed(to, c.now)
}

// settleArrivals empties the in-flight bucket of instant at in its
// deterministic enqueue order, settles each message's accounting
// (netmodel.Arrive), and appends the survivors to msgs — closing the gaps the
// messages to crashed destinations leave — and their destination process
// indices to dests.
func (c *Cluster) settleArrivals(at uint64, msgs []proto.Message, dests []int) ([]proto.Message, []int) {
	base := len(msgs)
	kept := base
	msgs, c.arrivalLedgers = c.network.Drain(at, msgs, c.arrivalLedgers[:0])
	for k := base; k < len(msgs); k++ {
		di, known, alive := c.verdict(msgs[k].To)
		if netmodel.Arrive(c.arrivalLedgers[k-base], known, alive) {
			if kept != k {
				msgs[kept] = msgs[k]
			}
			kept++
			dests = append(dests, di)
		}
	}
	return msgs[:kept], dests
}

// PublishAt publishes a fresh event at process index i (0-based) through
// the cluster's protocol, running pbcast's unreliable first-phase
// multicast when configured.
func (c *Cluster) PublishAt(i int) (proto.Event, error) {
	switch p := c.procs[i].(type) {
	case *core.Engine:
		return p.Publish(nil)
	case *pbcast.Node:
		ev, err := p.Publish(nil)
		if err != nil {
			return ev, err
		}
		if c.opts.FirstPhaseDelivery > 0 {
			for j, q := range c.procs {
				if j == i {
					continue
				}
				node, ok := q.(*pbcast.Node)
				if !ok {
					continue
				}
				// Each receiver's copy of the first-phase multicast is a
				// real message, filtered and accounted like gossip traffic
				// but for the delay model (netmodel.Model.Multicast).
				_, _, alive := c.verdict(c.ids[j])
				if c.network.Multicast(c.ids[i], c.ids[j], c.now, alive, &c.net, c.mcastRNG, c.opts.FirstPhaseDelivery) {
					node.HandleFirstPhase(ev)
				}
			}
		}
		return ev, nil
	default:
		return proto.Event{}, fmt.Errorf("sim: unsupported process type %T", c.procs[i])
	}
}

// Graph snapshots every process's current view for membership analyses.
func (c *Cluster) Graph() membership.Graph {
	g := membership.Graph{}
	for i, p := range c.procs {
		pid := c.ids[i]
		if p == nil || c.crashes.Crashed(pid, c.now) {
			continue
		}
		switch e := p.(type) {
		case *core.Engine:
			g[pid] = e.View()
		case *pbcast.Node:
			g[pid] = e.View()
		}
	}
	return g
}

// DeliveredCount returns how many processes have delivered ev.
func (c *Cluster) DeliveredCount(id proto.EventID) int { return c.rec.count(id) }

// HasDelivered reports whether process pid has delivered id.
func (c *Cluster) HasDelivered(pid proto.ProcessID, id proto.EventID) bool {
	di, ok := c.index.Lookup(pid)
	if !ok {
		return false
	}
	return c.rec.has(int(di), id)
}

// recorder tracks first deliveries per (event, process). record is called
// concurrently by the executor's handle phase, so it locks; the resulting
// counts are order-independent (a set union plus cardinality), which keeps
// runs bit-identical across shard counts.
type recorder struct {
	mu     sync.Mutex
	n      int
	events map[proto.EventID]*eventRecord
}

type eventRecord struct {
	seen  idmap.Bitset // one bit per process, for the life of the cluster
	count int
}

func newRecorder(n int) *recorder {
	return &recorder{n: n, events: make(map[proto.EventID]*eventRecord)}
}

func (r *recorder) record(owner proto.ProcessID, ev proto.Event) {
	r.mu.Lock()
	rec, ok := r.events[ev.ID]
	if !ok {
		rec = &eventRecord{}
		rec.seen.Grow(r.n)
		r.events[ev.ID] = rec
	}
	if i := int(owner) - 1; i >= 0 && i < r.n && !rec.seen.Get(i) {
		rec.seen.Set(i)
		rec.count++
	}
	r.mu.Unlock()
}

func (r *recorder) count(id proto.EventID) int {
	if rec, ok := r.events[id]; ok {
		return rec.count
	}
	return 0
}

func (r *recorder) has(i int, id proto.EventID) bool {
	rec, ok := r.events[id]
	return ok && i >= 0 && i < r.n && rec.seen.Get(i)
}

// eventIDs returns all recorded event ids, sorted for determinism.
func (r *recorder) eventIDs() []proto.EventID {
	out := make([]proto.EventID, 0, len(r.events))
	for id := range r.events {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
