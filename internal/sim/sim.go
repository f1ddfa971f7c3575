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
	"repro/internal/pbcast"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Process is the engine-side contract the simulator drives. Both
// core.Engine and pbcast.Node satisfy it.
type Process interface {
	Self() proto.ProcessID
	Tick(now uint64) []proto.Message
	HandleMessage(m proto.Message, now uint64) []proto.Message
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
	// Epsilon is the per-message loss probability (paper: 0.05).
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
	// Delay is the network delay model: how many whole rounds (periods) a
	// surviving message spends in flight before delivery (see
	// fault.DelayModel). nil with no Topology means every message arrives
	// in its send round, the paper's §5.1 semantics. When a Topology is
	// set and Delay is nil, the topology's per-link-class delay profiles
	// apply (fault.TopologyDelay); an explicit Delay overrides them.
	Delay fault.DelayModel
	// Topology assigns every (src, dst) link a class with its own loss
	// probability and delay range (fault.Topology): two-cluster LAN/WAN
	// splits, hierarchical site structures, or Uniform. When set, it
	// replaces the flat Bernoulli ε with per-link loss (profiles with a
	// negative Epsilon inherit the global ε) and — unless Delay overrides
	// — drives per-link delays. Partition classes refer to this topology.
	Topology fault.Topology
	// Partitions schedules link cuts: during each partition's [From, To)
	// round window, messages sent across the named link classes are
	// dropped (NetStats.DroppedInPartition); at To the partition heals.
	// Windows cutting the same class must not overlap, and must start
	// inside the horizon when one is set (Validate enforces both).
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

// maxDelayBound caps a delay model's MaxDelay: the in-flight ring is
// pre-sized to MaxDelay+1 buckets, so the bound keeps a misconfigured
// model from allocating an absurd ring.
const maxDelayBound = 4096

// eventDelayBoundMs caps the delay span in virtual milliseconds on the
// event clock, where the in-flight ring is keyed by instant: one bucket
// per millisecond of span.
const eventDelayBoundMs = 1 << 16

// effectiveDelay resolves the delay model in force: an explicit Delay
// wins, a Topology with any nonzero delay profile implies the
// topology-backed model, and nil means the zero-delay fast path.
func (o Options) effectiveDelay() fault.DelayModel {
	if o.Delay != nil {
		return o.Delay
	}
	if o.Topology != nil && fault.MaxLinkDelay(o.Topology) > 0 {
		return fault.TopologyDelay{T: o.Topology}
	}
	return nil
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
	if o.Epsilon < 0 || o.Epsilon >= 1 {
		return fmt.Errorf("sim: epsilon %v out of [0,1)", o.Epsilon)
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
	if o.Delay != nil {
		if err := o.Delay.Validate(); err != nil {
			return fmt.Errorf("sim: delay model: %w", err)
		}
	}
	if o.Topology != nil {
		if err := o.Topology.Validate(); err != nil {
			return fmt.Errorf("sim: topology: %w", err)
		}
	}
	if d := o.effectiveDelay(); d != nil {
		// A scenario must not mix time units: millisecond-valued delay
		// models need the event clock (the round executors would silently
		// coerce ms to rounds), and cannot be combined with a topology
		// whose link profiles carry their own round-granular delays.
		if fault.Unit(d) == fault.UnitMillis {
			if o.Clock != ClockEvent {
				return fmt.Errorf("sim: millisecond delay model requires Clock: ClockEvent; the round clock cannot honor sub-round latencies")
			}
			if o.Topology != nil && fault.MaxLinkDelay(o.Topology) > 0 {
				return fmt.Errorf("sim: scenario mixes a millisecond delay model with round-granular topology link delays; express the delays in one unit")
			}
		}
		max := d.MaxDelay()
		if max < 0 {
			return fmt.Errorf("sim: delay model MaxDelay %d negative", max)
		}
		if o.Clock == ClockEvent {
			span := uint64(max)
			if fault.Unit(d) == fault.UnitRounds {
				span *= o.periodMillis()
			}
			if span > eventDelayBoundMs {
				return fmt.Errorf("sim: delay span %d ms exceeds the event clock's bound %d ms", span, eventDelayBoundMs)
			}
		} else if max > maxDelayBound {
			return fmt.Errorf("sim: delay model MaxDelay %d outside [0,%d]", max, maxDelayBound)
		}
	}
	if len(o.Partitions) > 0 {
		classes := 1
		if o.Topology != nil {
			classes = o.Topology.Classes()
		}
		if err := fault.ValidatePartitions(o.Partitions, classes, o.Horizon); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
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
	sinks     []procSink  // per-process delivery sinks (lpbcast path)
	pools     []*core.Pools
	loss      fault.LossModel
	crashes   *fault.CrashSchedule
	topo      fault.Topology    // nil: flat network, every link LinkLocal
	delay     fault.DelayModel  // nil: zero-delay fast path
	delayRNG  *rng.Source       // delay jitter stream (delay != nil only)
	fl        *inflightQueue    // delayed-message ring (delay != nil only)
	maxDelay  int               // the delay model's declared bound
	parts     []fault.Partition // scheduled link cuts
	hasParts  bool
	rec       *recorder
	tickRNG   *rng.Source
	mcastRNG  *rng.Source
	now       uint64
	net       NetStats
	deliverFn func(owner proto.ProcessID, ev proto.Event)
	exec      *shardedExecutor // runs every round and period, on 1..W shards
	// arrivalDests holds the destination indices of the arrivals the last
	// settleArrivals put on the queue, retained across periods.
	arrivalDests []int
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
	// timers are the in-flight ring's arrival markers (inflight.go).
	periodMs uint64 // gossip period length in instants
	nowMs    uint64 // current virtual instant
	unitMs   uint64 // instants per delay-model unit: periodMs for rounds models, 1 for Millis
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
		topo:    opts.Topology,
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
	if c.topo != nil {
		c.loss = fault.NewTopologyLoss(c.topo, opts.Epsilon, root.Split())
	} else {
		c.loss = fault.NewBernoulli(opts.Epsilon, root.Split())
	}
	c.tickRNG = root.Split()
	c.mcastRNG = root.Split()
	if d := opts.effectiveDelay(); d != nil {
		c.delay = d
		c.delayRNG = root.Split()
		c.maxDelay = d.MaxDelay()
	}
	c.parts = opts.Partitions
	c.hasParts = len(c.parts) > 0
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
	if opts.Protocol == Lpbcast {
		if err := c.buildEngines(root, viewRNG); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < opts.N; i++ {
			pid := c.ids[i]
			var node *pbcast.Node
			var err error
			switch opts.Protocol {
			case PbcastPartial:
				node, err = pbcast.New(pid, opts.Pbcast, c.deliverer(pid), root.Split())
				if err == nil {
					node.Seed(c.uniformView(i, opts.Pbcast.Membership.MaxView, viewRNG))
				}
			case PbcastTotal:
				cfg := opts.Pbcast
				cfg.Mode = pbcast.TotalView
				node, err = pbcast.New(pid, cfg, c.deliverer(pid), root.Split())
				if err == nil {
					node.SetTotalView(c.ids)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("sim: process %v: %w", pid, err)
			}
			c.procs = append(c.procs, node)
		}
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
	c.unitMs = c.periodMs
	if c.delay != nil {
		if fault.Unit(c.delay) == fault.UnitMillis {
			c.unitMs = 1
		}
		c.fl = newInflight(c.maxDelay * int(c.unitMs))
		c.fl.check = opts.PoisonRecycled
	}
	if opts.Async {
		evRNG := root.Split()
		c.phase = make([]uint64, opts.N)
		for i := range c.phase {
			c.phase[i] = 1 + uint64(evRNG.Intn(int(c.periodMs)))
		}
	}

	c.exec = newShardedExecutor(c, effectiveWorkers(opts.Workers, opts.N))

	for i := 0; i < opts.WarmupRounds; i++ {
		c.RunRound()
	}
	return c, nil
}

// deliverer returns the per-process delivery callback.
func (c *Cluster) deliverer(pid proto.ProcessID) func(ev proto.Event) {
	return func(ev proto.Event) { c.deliverFn(pid, ev) }
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
	// The wheel ends the period at its boundary, and the drained delay-ring
	// slots go back to the pool only now, after every consumer (and any
	// poisoning pass) is done.
	c.fl.park(c.nowMs)
	c.fl.recycle()
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

// classify runs one message through the network's partition, crash, loss,
// and delay filtering and updates the counters: the message lands in Sent
// plus exactly one of UnknownDest, DroppedInPartition, ToCrashed, Dropped,
// or Delivered — or enters the in-flight delay ring and is counted in
// InFlight until its arrival round settles it. It returns the
// destination's process index and whether the message is deliverable right
// now. Every schedule routes messages through this single helper, so the
// accounting (and the loss and delay streams' draw-per-message discipline)
// cannot drift between them.
//
// Filter order is part of the model: a cut link swallows traffic before
// the destination's liveness is consulted, loss applies only to traffic
// that could physically arrive, and only surviving messages draw a delay.
func (c *Cluster) classify(m proto.Message) (int, bool) {
	c.net.Sent++
	di, ok := c.index.Lookup(m.To)
	if !ok {
		c.net.UnknownDest++
		return -1, false
	}
	if c.hasParts && fault.CutLink(c.parts, c.linkClass(m.From, m.To), c.now) {
		c.net.DroppedInPartition++
		return -1, false
	}
	if c.crashes.Crashed(m.To, c.now) {
		c.net.ToCrashed++
		return -1, false
	}
	if c.loss.Drop(m.From, m.To, c.now) {
		c.net.Dropped++
		return -1, false
	}
	if c.delay != nil {
		d := c.delay.Delay(m.From, m.To, c.now, c.delayRNG)
		if d < 0 || d > c.maxDelay {
			// A model returning a negative delay or more than its declared
			// MaxDelay would silently skew results or corrupt the ring;
			// fail loudly instead.
			panic(fmt.Sprintf("sim: delay %d outside the model's [0, MaxDelay=%d]", d, c.maxDelay))
		}
		if d > 0 {
			// The ring is keyed by virtual instant; this one is strictly
			// after nowMs, which never trails the ring's wheel.
			c.fl.enqueue(&m, c.nowMs+uint64(d)*c.unitMs, c.now)
			c.net.InFlight++
			return -1, false
		}
	}
	c.net.Delivered++
	return int(di), true
}

// linkClass resolves the class of a link under the configured topology;
// without one, every link is LinkLocal.
func (c *Cluster) linkClass(src, dst proto.ProcessID) fault.LinkClass {
	if c.topo != nil {
		return c.topo.Class(src, dst)
	}
	return fault.LinkLocal
}

// arrive settles one in-flight message at its arrival round: the message
// leaves InFlight and lands in ToCrashed (the destination crashed while it
// was in the air) or Delivered (+DeliveredLate). Partition, loss, and
// unknown-destination filtering already happened at send time in classify,
// and none of it draws randomness here, so arrivals perturb no stream.
func (c *Cluster) arrive(to proto.ProcessID) (int, bool) {
	c.net.InFlight--
	if c.crashes.Crashed(to, c.now) {
		c.net.ToCrashed++
		return -1, false
	}
	c.net.Delivered++
	c.net.DeliveredLate++
	di, _ := c.index.Lookup(to) // classified at send time, so present
	return int(di), true
}

// settleArrivals empties the in-flight bucket of instant at in its
// deterministic enqueue order, settles each message's accounting, and
// appends the survivors to msgs — closing the gaps the messages to crashed
// destinations leave — and their destination process indices to dests.
func (c *Cluster) settleArrivals(at uint64, msgs []proto.Message, dests []int) ([]proto.Message, []int) {
	kept := len(msgs)
	msgs = c.fl.drain(at, msgs)
	for k := kept; k < len(msgs); k++ {
		if di, ok := c.arrive(msgs[k].To); ok {
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
		return p.Publish(nil), nil
	case *pbcast.Node:
		ev := p.Publish(nil)
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
				// real message: it is counted in Sent and runs through the
				// same partition and crash filtering and accounting as
				// gossip traffic, with the phase's own unreliability
				// applied first and the network loss model ε on top. Only
				// the delay model is exempt — the first phase stands in
				// for IP multicast and is modeled as instantaneous.
				c.net.Sent++
				if c.hasParts && fault.CutLink(c.parts, c.linkClass(c.ids[i], c.ids[j]), c.now) {
					c.net.DroppedInPartition++
					continue
				}
				if c.crashes.Crashed(c.ids[j], c.now) {
					c.net.ToCrashed++
					continue
				}
				if !c.mcastRNG.Bool(c.opts.FirstPhaseDelivery) {
					c.net.Dropped++
					continue
				}
				if c.loss.Drop(c.ids[i], c.ids[j], c.now) {
					c.net.Dropped++
					continue
				}
				c.net.Delivered++
				node.HandleFirstPhase(ev)
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
		if c.crashes.Crashed(pid, c.now) {
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
