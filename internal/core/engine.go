// Package core implements the lpbcast protocol engine — the paper's
// Figure 1 pseudocode — in sans-IO style: the engine consumes incoming
// protocol messages and clock ticks, mutates its bounded local state, and
// returns the messages to transmit. It never touches the network or the
// wall clock itself, so the exact same engine is driven by the
// round-synchronous simulator (reproducing the paper's §5.1 simulations),
// by the goroutine-per-process in-memory cluster (reproducing the §5.2
// measurements), and by the live UDP node.
package core

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
)

// DigestMode selects the representation of the eventIds buffer.
type DigestMode int

const (
	// FlatDigest is the plain bounded window of the newest identifiers
	// whose size |eventIds|m the paper's measurements vary (Fig. 6(b)).
	FlatDigest DigestMode = iota
	// CompactDigest is the §3.2 optimization: per originator, a contiguous
	// delivered watermark plus the sparse out-of-order identifiers.
	CompactDigest
)

// String implements fmt.Stringer.
func (m DigestMode) String() string {
	switch m {
	case FlatDigest:
		return "flat"
	case CompactDigest:
		return "compact"
	default:
		return fmt.Sprintf("digestmode(%d)", int(m))
	}
}

// Config parameterizes an engine. Field names follow the paper's notation
// where one exists.
type Config struct {
	// Membership bounds the partial-view layer (l = Membership.MaxView).
	Membership membership.Config
	// Fanout is F: the number of gossip targets per period. Must satisfy
	// F <= l (§4.3).
	Fanout int
	// MaxEvents is |events|m: the bound on notifications buffered for
	// forwarding between two gossip emissions.
	MaxEvents int
	// MaxEventIDs is |eventIds|m: the bound on the delivered-identifier
	// digest advertised in outgoing gossips. Only used with FlatDigest.
	MaxEventIDs int
	// DigestMode selects the advertised digest representation: FlatDigest
	// gossips the |eventIds|m most recent identifiers (the paper's
	// measured configuration); CompactDigest gossips per-origin watermarks
	// plus sparse out-of-order identifiers (§3.2 optimization).
	DigestMode DigestMode
	// DedupMemory, when true (the default), applies the §3.2 per-sender
	// sequence compaction to duplicate suppression: the engine remembers
	// every delivered identifier in O(origins + out-of-order tail) space,
	// so identifiers evicted from the advertised digest window can never
	// be re-delivered. When false, the engine follows the Fig. 1
	// pseudocode literally — eventIds truncation forgets old identifiers
	// and re-arrivals may be delivered again (the approximation the paper
	// accepts in §5.2).
	DedupMemory bool
	// ArchiveSize bounds the store of old notifications kept to answer
	// retransmission requests; 0 disables retransmission serving. It must
	// not be negative, and the archive's ring, max(ArchiveSize,
	// MaxEventIDs) with the flat digest and ArchiveSize without it, holds
	// at most buffer.MaxArchiveRing ids.
	ArchiveSize int
	// AssumeFromDigest reproduces the paper's measurement methodology
	// (§5.2): "once a gossip receiver has received the identifier of a
	// notification, the notification itself is assumed to have been
	// received". An unknown identifier in an incoming digest is delivered
	// as a payload-less event and forwarded like any other notification.
	AssumeFromDigest bool
	// Retransmit enables the gossip-pull path: unknown identifiers in
	// incoming digests are requested from the digest's sender, who answers
	// from its archive. Mutually exclusive with AssumeFromDigest.
	Retransmit bool
	// MaxRetransmitPerGossip caps how many missing ids are requested per
	// incoming gossip (0 = no cap).
	MaxRetransmitPerGossip int
	// RetransmitTimeout re-arms unanswered retransmission requests: a
	// requested id still missing RetransmitTimeout time units after the
	// request was sent is re-requested — from the Logger when one is
	// configured, otherwise from a fresh random view member (the original
	// digest sender may have evicted the notification from its archive).
	// The unit is whatever `now` the driver ticks with. The simulator ticks
	// engines with the period number on both of its clocks, so there the
	// unit is gossip periods — 2 means two periods on ClockEvent with
	// PeriodMs=100 just as on ClockRounds, not 2 virtual ms; the topic bus
	// ticks with its step, a live node with milliseconds since start. The
	// timer fires on the periodic tick, so resolution is one gossip period; at
	// most one re-request message is emitted per period, carrying up to
	// MaxRetransmitPerGossip ids. 0 disables the timer (a lost request or
	// reply then loses the pull forever, the pre-timer behavior). Requires
	// Retransmit.
	RetransmitTimeout uint64
	// MembershipEvery gossips membership information (subs/unsubs) only on
	// every k-th emission — the §6.1 frequency experiment. 0 or 1 attaches
	// membership to every gossip (the paper's default; §6.1 reports that
	// k > 1 increases latency and hurts reliability).
	MembershipEvery int
	// WeightedEventEviction applies the §6.1 weighting idea to the events
	// buffer ("A similar scheme could also be applied to events and
	// eventIds"): each buffered notification tracks how many duplicate
	// copies have arrived, and when |events|m forces an eviction the
	// most-duplicated notification — the one most likely already widely
	// disseminated — is dropped first instead of a uniformly random one.
	WeightedEventEviction bool
	// Logger, when set, implements the rpbcast-style deterministic third
	// phase the paper sketches as future work (§7, cf. [26]): missing
	// notifications detected via digests are requested from the dedicated
	// logger process — whose archive is sized to hold everything — instead
	// of the digest's sender, giving strong delivery guarantees when the
	// logger is reachable. Requires Retransmit.
	Logger proto.ProcessID
}

// DefaultConfig mirrors the paper's measurement setup (§5.2): F=3, l=15,
// |eventIds|m=60.
func DefaultConfig() Config {
	return Config{
		Membership:  membership.DefaultConfig(),
		Fanout:      3,
		MaxEvents:   30,
		MaxEventIDs: 60,
		ArchiveSize: 200,
		DedupMemory: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Membership.Validate(); err != nil {
		return err
	}
	if c.Fanout <= 0 {
		return errors.New("core: Fanout must be positive")
	}
	if c.Fanout > c.Membership.MaxView {
		return fmt.Errorf("core: Fanout %d exceeds view size %d (need F <= l)", c.Fanout, c.Membership.MaxView)
	}
	if c.MaxEvents <= 0 {
		return errors.New("core: MaxEvents must be positive")
	}
	if c.DigestMode == FlatDigest && c.MaxEventIDs <= 0 {
		return errors.New("core: MaxEventIDs must be positive with the flat digest")
	}
	if c.ArchiveSize < 0 {
		return errors.New("core: ArchiveSize must be non-negative (0 disables the archive)")
	}
	if ring := max(c.ArchiveSize, c.flatWindow()); ring > buffer.MaxArchiveRing {
		return fmt.Errorf("core: an archive ring of %d ids exceeds %d (ArchiveSize, or MaxEventIDs with the flat digest)", ring, buffer.MaxArchiveRing)
	}
	if c.AssumeFromDigest && c.Retransmit {
		return errors.New("core: AssumeFromDigest and Retransmit are mutually exclusive")
	}
	if c.MembershipEvery < 0 {
		return errors.New("core: MembershipEvery must be non-negative")
	}
	if c.Logger != proto.NilProcess && !c.Retransmit {
		return errors.New("core: Logger requires Retransmit")
	}
	if c.RetransmitTimeout > 0 && !c.Retransmit {
		return errors.New("core: RetransmitTimeout requires Retransmit")
	}
	return nil
}

// Stats counts engine activity. All counters are cumulative.
type Stats struct {
	GossipsSent        uint64
	GossipsReceived    uint64
	EventsPublished    uint64
	EventsDelivered    uint64
	DuplicatesDropped  uint64
	AssumedFromDigest  uint64
	RetransmitRequests uint64
	RetransmitServed   uint64
	RetransmitMisses   uint64
	RetransmitTimeouts uint64 // ids re-requested after RetransmitTimeout expired
	EventsOverflowed   uint64 // notifications evicted from events by |events|m
}

// Deliverer receives events exactly once each (LPB-DELIVER). Events
// assumed from a digest (AssumeFromDigest) have a nil payload. The payload
// is the engine's one copy, which it also archives and forwards: read it,
// or copy it before writing to it.
type Deliverer func(e proto.Event)

// deliverFunc is a Deliverer as the EventSink an engine holds.
type deliverFunc Deliverer

func (f deliverFunc) DeliverEvent(e proto.Event) { f(e) }

// Engine is one process's lpbcast protocol state machine.
//
// Engine is not safe for concurrent use; drivers serialize access.
type Engine struct {
	self    proto.ProcessID
	cfg     *Config // read in place: engines built from one Pools share it
	mem     *membership.Manager
	events  *buffer.EventBuffer
	compact *buffer.CompactDigest
	archive *buffer.Archive // delivered ids, newest last: the flat digest and the retransmission store
	sink    EventSink       // nil: deliveries are only counted
	rng     *rng.Source

	nextSeq      uint32
	ticks        uint64
	eventWeights map[proto.EventID]int // duplicate counts (weighted eviction)
	stats        Stats

	// emit is where TickAppend cuts its gossip, its targets and a timed-out
	// re-request from (SetEmitArena, SetEmissionReuse).
	emit proto.Emitter

	// Retransmission-timeout state (Config.RetransmitTimeout): requested
	// ids awaiting a reply and their re-request deadlines.
	pending        []pendingRetransmit
	scratchRequest []proto.EventID
	scratchRearmed []pendingRetransmit
}

// pendingRetransmit is one outstanding retransmission request: an id the
// engine asked for but has not seen yet.
type pendingRetransmit struct {
	id       proto.EventID
	deadline uint64 // re-request once now reaches this
	attempts int    // re-requests so far; capped by maxRetransmitAttempts
}

// maxPendingRetransmits bounds the pending-request table — like every
// other engine buffer it must not grow with system size or run length.
const maxPendingRetransmits = 1024

// maxRetransmitAttempts bounds how many times one id is re-requested
// before the engine gives up on pulling it.
const maxRetransmitAttempts = 8

// maxPullRoom bounds what handleGossip sets aside for a pull request on the
// first miss. Under load nineteen pulls in twenty ask for at most four ids
// of a digest of sixty (more than half for one), so four is where one
// allocation replaces append's 1→2→4 at about the same bytes; room for the
// whole digest measured 2.7 % slower on sim-loaded-seq.
const maxPullRoom = 4

// digestDiffRoom is the stack room handleGossip gives the unknown ids of one
// digest: a digest of DefaultConfig's MaxEventIDs fits even when every id
// is new; the difference of a longer one spills to the heap.
const digestDiffRoom = 64

// New creates an engine for process self, in one allocation with a copy of
// cfg of its own. deliver may be nil (deliveries are then only counted).
func New(self proto.ProcessID, cfg Config, deliver Deliverer, r *rng.Source) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, errors.New("core: rng source must not be nil")
	}
	b := &struct {
		engineSlot
		cfg Config
	}{cfg: cfg}
	if err := b.init(self, &b.cfg, r, nil); err != nil {
		return nil, err
	}
	if deliver != nil {
		b.eng.sink = deliverFunc(deliver)
	}
	return &b.eng, nil
}

// Self returns the engine's process id.
func (e *Engine) Self() proto.ProcessID { return e.self }

// Stats returns a snapshot of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// View returns the current membership view (copy).
func (e *Engine) View() []proto.ProcessID { return e.mem.View() }

// ViewLen returns the current view size without copying.
func (e *Engine) ViewLen() int { return e.mem.ViewLen() }

// ViewCap returns the view bound l.
func (e *Engine) ViewCap() int { return e.cfg.Membership.MaxView }

// SetEmitArena makes TickAppend cut every emission from a, which the
// driver resets once it has consumed everything cut from it — the
// simulator, one arena per executor shard of one generation per period a
// message can be in flight, at the end of each period. nil returns the engine to a private arena (SetEmissionReuse).
func (e *Engine) SetEmitArena(a *proto.EmitArena) { e.emit.Bind(a) }

// SetEmissionReuse governs an engine with no driver-owned arena: on, its
// private arena is reset at each tick, making the steady-state emission
// path allocation-free, which is only safe when the driver serializes or
// fully consumes every emitted message before the next TickAppend call —
// both live transports encode datagrams inside SendBatch, so the live node
// enables this; off, each tick cuts from a fresh arena, so an emission stays
// valid for as long as anything holds it.
func (e *Engine) SetEmissionReuse(on bool) { e.emit.SetReuse(on) }

// Seed bootstraps the view with known members (used before the first
// gossip arrives, e.g. from a static seed list).
func (e *Engine) Seed(ps []proto.ProcessID) { e.mem.Seed(ps) }

// flatWindow is |eventIds|m with the flat digest, whose window is the
// newest deliveries of the archive's ring, and 0 without it.
func (c Config) flatWindow() int {
	if c.DigestMode == FlatDigest {
		return c.MaxEventIDs
	}
	return 0
}

// Knows reports whether the engine remembers delivering id (it is in
// eventIds). With DedupMemory the compact structure remembers every
// delivery; otherwise only the flat window — the newest |eventIds|m entries
// of the archive's ring, scanned — does, and old identifiers are forgotten.
func (e *Engine) Knows(id proto.EventID) bool {
	if e.compact != nil {
		return e.compact.Contains(id)
	}
	return e.archive.ContainsNewest(id, e.cfg.MaxEventIDs)
}

// Publish broadcasts a new notification (LPB-CAST): the event receives the
// next local sequence number, is delivered locally, and becomes eligible
// for the next outgoing gossip. Past sequence number proto.MaxSeq it
// refuses with proto.ErrSeqExhausted.
func (e *Engine) Publish(payload []byte) (proto.Event, error) {
	if e.nextSeq == proto.MaxSeq {
		return proto.Event{}, proto.ErrSeqExhausted
	}
	e.nextSeq++
	ev := proto.Event{ID: proto.EventID{Origin: e.self, Seq: e.nextSeq}}
	if len(payload) > 0 {
		ev.Payload = append([]byte(nil), payload...)
	}
	e.stats.EventsPublished++
	e.deliverEvent(ev)
	e.bufferForForwarding(ev)
	return ev, nil
}

// deliverEvent hands ev to the application and records its id: in the
// archive's ring, whose newest entries are the flat eventIds window, and,
// when enabled, in the compact dedup memory.
func (e *Engine) deliverEvent(ev proto.Event) {
	e.stats.EventsDelivered++
	if e.compact != nil {
		e.compact.Add(ev.ID)
	}
	e.archive.Store(ev)
	if e.sink != nil {
		e.sink.DeliverEvent(ev)
	}
}

// bufferForForwarding stages ev for the next outgoing gossip, respecting
// |events|m. Eviction is uniformly random by default; with
// WeightedEventEviction the most-duplicated notification goes first.
func (e *Engine) bufferForForwarding(ev proto.Event) {
	e.events.AddBounded(ev, e.cfg.MaxEvents+1) // one past the bound until the truncation below
	if !e.cfg.WeightedEventEviction {
		evicted := e.events.TruncateRandomDiscard(e.cfg.MaxEvents, e.rng)
		e.stats.EventsOverflowed += uint64(evicted)
		return
	}
	for e.events.Len() > e.cfg.MaxEvents {
		e.evictHeaviestEvent()
		e.stats.EventsOverflowed++
	}
}

// evictHeaviestEvent removes the buffered notification with the highest
// duplicate count, breaking ties uniformly.
func (e *Engine) evictHeaviestEvent() {
	victim := e.events.At(0).ID
	best := e.eventWeights[victim]
	ties := 1
	for i, ln := 1, e.events.Len(); i < ln; i++ {
		id := e.events.At(i).ID
		w := e.eventWeights[id]
		switch {
		case w > best:
			victim, best, ties = id, w, 1
		case w == best:
			ties++
			if e.rng.Intn(ties) == 0 {
				victim = id
			}
		}
	}
	e.events.Remove(victim)
	delete(e.eventWeights, victim)
}

// noteDuplicate records a redundant arrival of id for weighted eviction.
func (e *Engine) noteDuplicate(id proto.EventID) {
	if !e.cfg.WeightedEventEviction {
		return
	}
	if e.events.Contains(id) {
		if e.eventWeights == nil {
			e.eventWeights = make(map[proto.EventID]int)
		}
		e.eventWeights[id]++
	}
}

// HandleMessageAppend processes one incoming protocol message, appending
// any response messages to out and returning the extended slice. When out
// has sufficient capacity, the call performs no per-message allocation.
func (e *Engine) HandleMessageAppend(m proto.Message, now uint64, out []proto.Message) []proto.Message {
	switch m.Kind {
	case proto.GossipMsg:
		if m.Gossip == nil {
			return out
		}
		return e.handleGossip(out, m.Gossip, now)
	case proto.SubscribeMsg:
		e.handleSubscribe(m.Subscriber)
		return out
	case proto.RetransmitRequestMsg:
		return e.handleRetransmitRequest(out, m)
	case proto.RetransmitReplyMsg:
		e.handleRetransmitReply(m)
		return out
	default:
		return out
	}
}

// handleGossip runs the three reception phases of Fig. 1(a) plus digest
// processing, appending any retransmission request to out.
func (e *Engine) handleGossip(out []proto.Message, g *proto.Gossip, now uint64) []proto.Message {
	e.stats.GossipsReceived++

	// Phases 1 and 2: unsubscriptions update view and unSubs, then
	// subscriptions update view and subs.
	e.mem.Receive(g.Unsubs, g.Subs, now)

	// Phase 3: fresh notifications are delivered and staged for forwarding.
	for _, ev := range g.Events {
		if !validID(ev.ID) {
			continue // malformed: sequence numbers start at 1
		}
		if e.Knows(ev.ID) {
			e.stats.DuplicatesDropped++
			e.noteDuplicate(ev.ID)
			continue
		}
		ev = ev.Clone() // the one copy delivery, archive and events share
		e.deliverEvent(ev)
		e.bufferForForwarding(ev)
	}

	// Digest: watermark entries (compact mode) then individual ids. The ids
	// are first cut down to the ones the dedup memory does not hold, in one
	// batched read (buffer.CompactDigest.AppendMissing) instead of one probe
	// per id; without that memory the flat window is asked id by id. Either
	// way seen asks Knows again before it acts: the difference is taken
	// before anything is delivered, and a digest may repeat an id or name it
	// under a watermark as well. The request is allocated once, on the first
	// miss, with room for the entries still to be offered (a watermark entry
	// counts once) up to maxPullRoom; the rare larger pull grows the slice
	// as append does.
	var diff [digestDiffRoom]proto.EventID
	unknown := g.Digest
	if e.compact != nil {
		unknown = e.compact.AppendMissing(diff[:0], g.Digest)
	}
	var missing []proto.EventID
	room := len(g.DigestWatermarks) + len(unknown)
	seen := func(id proto.EventID) {
		if !validID(id) || e.Knows(id) {
			return
		}
		switch {
		case e.cfg.AssumeFromDigest:
			// §5.2 methodology: the identifier counts as the notification.
			e.stats.AssumedFromDigest++
			ev := proto.Event{ID: id}
			e.deliverEvent(ev)
			e.bufferForForwarding(ev)
		case e.cfg.Retransmit:
			limit := e.cfg.MaxRetransmitPerGossip
			if limit > 0 && len(missing) >= limit {
				return
			}
			if missing == nil {
				room = min(room, maxPullRoom)
				if limit > 0 {
					room = min(room, limit)
				}
				missing = make([]proto.EventID, 0, room)
			}
			missing = append(missing, id)
		}
	}
	for _, wm := range g.DigestWatermarks {
		// A watermark advertises every sequence number up to wm.Seq; only
		// chase the ones we do not know, bounded to avoid unbounded loops
		// on a hostile or corrupt watermark.
		e.expandWatermark(wm, seen)
		room--
	}
	for _, id := range unknown {
		seen(id)
		room--
	}

	if len(missing) == 0 {
		return out
	}
	e.stats.RetransmitRequests += uint64(len(missing))
	if e.cfg.RetransmitTimeout > 0 {
		e.trackPending(missing, now)
	}
	// rpbcast-style third phase: pull from the dedicated logger when one
	// is configured (and we are not it), otherwise from the gossip sender.
	server := g.From
	if e.cfg.Logger != proto.NilProcess && e.cfg.Logger != e.self {
		server = e.cfg.Logger
	}
	return append(out, proto.Message{
		Kind:    proto.RetransmitRequestMsg,
		From:    e.self,
		To:      server,
		Request: missing,
	})
}

// trackPending registers freshly requested ids for the retransmission
// timer: each becomes due for a re-request RetransmitTimeout time units
// from now. A full table drops the newest requests — the older entries
// are closer to their deadline and losing a pending slot only costs the
// timer, not the original request.
func (e *Engine) trackPending(ids []proto.EventID, now uint64) {
	deadline := now + e.cfg.RetransmitTimeout
	for _, id := range ids {
		if len(e.pending) >= maxPendingRetransmits {
			return
		}
		if e.pendingContains(id) {
			continue
		}
		e.pending = append(e.pending, pendingRetransmit{id: id, deadline: deadline})
	}
}

// pendingContains reports whether id already has a pending entry.
func (e *Engine) pendingContains(id proto.EventID) bool {
	for i := range e.pending {
		if e.pending[i].id == id {
			return true
		}
	}
	return false
}

// retransmitTimedOut re-requests timed-out pulls: the due ids still
// missing, in table order and capped like a regular pull at
// MaxRetransmitPerGossip, go out in one request — to the Logger when one is
// configured, otherwise to a fresh random view member, since the original
// sender did not answer. Answered ids leave the table, and re-requested ones
// advance their attempt count and deadline (giving up past
// maxRetransmitAttempts) and rotate to the back, so entries the cap leaves
// out head the next re-request instead of being starved by perpetually
// re-arming earlier ones. TickAppend calls it only with a non-empty view.
func (e *Engine) retransmitTimedOut(now uint64, a *proto.EmitArena, out []proto.Message) []proto.Message {
	if e.cfg.RetransmitTimeout == 0 {
		return out
	}
	req, max := e.scratchRequest[:0], e.cfg.MaxRetransmitPerGossip
	kept, rearmed := e.pending[:0], e.scratchRearmed[:0]
	for _, p := range e.pending {
		switch {
		case e.Knows(p.id): // answered (or assumed) since the request went out
		case p.deadline > now || max > 0 && len(req) >= max:
			kept = append(kept, p)
		default:
			req = append(req, p.id)
			if p.attempts++; p.attempts < maxRetransmitAttempts { // else give up: the id stays missing
				p.deadline = now + e.cfg.RetransmitTimeout
				rearmed = append(rearmed, p)
			}
		}
	}
	e.pending, e.scratchRequest, e.scratchRearmed = append(kept, rearmed...), req, rearmed
	if len(req) == 0 {
		return out
	}
	e.stats.RetransmitTimeouts += uint64(len(req))
	server := e.cfg.Logger
	if server == proto.NilProcess || server == e.self {
		server = e.mem.AppendTargets(a.PIDs(1)[:0], 1)[0]
	}
	sent := a.IDs(len(req))
	copy(sent, req)
	return append(out, proto.Message{Kind: proto.RetransmitRequestMsg, From: e.self, To: server, Request: sent})
}

// maxWatermarkExpansion bounds how many unknown sequence numbers a single
// watermark entry may fan out into.
const maxWatermarkExpansion = 1024

// expandWatermark walks the unknown identifiers advertised by a compact
// watermark entry, newest first so that recent events win the expansion
// budget.
func (e *Engine) expandWatermark(wm proto.EventID, seen func(proto.EventID)) {
	budget := maxWatermarkExpansion
	for seq := wm.Seq; seq >= 1 && budget > 0; seq-- {
		id := proto.EventID{Origin: wm.Origin, Seq: seq}
		if e.Knows(id) {
			// The compact digest is contiguous below the local watermark,
			// so the first known id ends the unknown suffix.
			if e.compact != nil && seq <= e.compact.Watermark(wm.Origin) {
				return
			}
			continue
		}
		seen(id)
		budget--
	}
}

// handleSubscribe processes a join request (§3.4): the subscription enters
// the view and the subs buffer, so it is gossiped "on behalf of" the
// joining process.
func (e *Engine) handleSubscribe(p proto.ProcessID) {
	if p == e.self || p == proto.NilProcess {
		return
	}
	e.mem.ApplySubs([]proto.ProcessID{p})
}

// handleRetransmitRequest answers from the archive, appending the reply
// message (if any) to out. An id the request repeats is answered once, so a
// reply holds at most as many events as the archive; the payloads are the
// archived slices, which nothing writes to.
func (e *Engine) handleRetransmitRequest(out []proto.Message, m proto.Message) []proto.Message {
	reply, misses := e.archive.Serve(m.Request)
	e.stats.RetransmitServed += uint64(len(reply))
	e.stats.RetransmitMisses += uint64(misses)
	if len(reply) == 0 {
		return out
	}
	return append(out, proto.Message{
		Kind:  proto.RetransmitReplyMsg,
		From:  e.self,
		To:    m.From,
		Reply: reply,
	})
}

// handleRetransmitReply delivers retransmitted notifications like phase 3.
func (e *Engine) handleRetransmitReply(m proto.Message) {
	for _, ev := range m.Reply {
		if !validID(ev.ID) {
			continue
		}
		if e.Knows(ev.ID) {
			e.stats.DuplicatesDropped++
			continue
		}
		ev = ev.Clone()
		e.deliverEvent(ev)
		e.bufferForForwarding(ev)
	}
}

// validID reports whether id is well-formed: a real originator and a
// sequence number ≥ 1 (seq 0 is reserved so per-sender watermarks have a
// natural zero).
func validID(id proto.EventID) bool {
	return id.Origin != proto.NilProcess && id.Seq > 0
}

// TickAppend performs one periodic gossip emission (Fig. 1(b)): build the
// gossip message, send it to F random view members, then clear events.
// Gossiping happens even with no fresh notifications, keeping digests and
// membership information flowing. now is the current deployment time
// (rounds or ms). The outgoing messages are appended to out and the
// extended slice returned. All appended messages share one read-only
// *proto.Gossip, cut with each of its lists at its exact length from the
// engine's emission arena (SetEmitArena, SetEmissionReuse) and never
// written by the engine afterwards, so the call does not allocate per
// emitted message: receivers must treat the gossip as immutable, which
// every driver in this repository does — engines copy events before
// retaining them and only read membership piggyback.
func (e *Engine) TickAppend(now uint64, out []proto.Message) []proto.Message {
	e.ticks++
	fanout := min(e.cfg.Fanout, e.mem.ViewLen())
	if fanout == 0 {
		return out // an empty view: nothing is sent, nothing consumed, no timer moves
	}
	a := e.emit.Tick()
	targets := e.mem.AppendTargets(a.PIDs(fanout)[:0], fanout)
	g := a.Gossip()
	g.From = e.self
	g.Events = e.events.AppendItems(a.Events(e.events.Len())[:0])
	g.Digest = e.appendDigestIDs(a.IDs(e.DigestLen())[:0])
	if k := e.cfg.MembershipEvery; k <= 1 || e.ticks%uint64(k) == 0 {
		g.Subs = e.mem.AppendSubs(a.PIDs(e.mem.SubsLen() + 1)[:0])
		g.Unsubs = e.mem.AppendUnsubs(a.Unsubs(e.mem.UnsubsLen())[:0], now)
	}
	if e.cfg.DigestMode == CompactDigest {
		g.DigestWatermarks = e.compact.AppendWatermarks(a.IDs(e.compact.Origins())[:0])
	}
	for _, t := range targets {
		out = append(out, proto.Message{
			Kind:   proto.GossipMsg,
			From:   e.self,
			To:     t,
			Gossip: g,
		})
	}
	e.stats.GossipsSent += uint64(len(targets))
	// "events ← ∅": each notification is gossiped at most once by this
	// process; older copies live only in the archive.
	e.events.Clear()
	e.eventWeights = nil
	return e.retransmitTimedOut(now, a, out)
}

// appendDigestIDs appends the advertised digest identifiers to dst.
func (e *Engine) appendDigestIDs(dst []proto.EventID) []proto.EventID {
	if e.cfg.DigestMode == CompactDigest {
		return e.compact.AppendSparse(dst)
	}
	return e.archive.AppendNewest(dst, e.cfg.MaxEventIDs)
}

// JoinVia returns the subscription request a joining process sends to a
// known member pj (§3.4). The caller transmits it and should retry on
// timeout until gossip starts arriving.
func (e *Engine) JoinVia(contact proto.ProcessID) (proto.Message, error) {
	if contact == e.self || contact == proto.NilProcess {
		return proto.Message{}, fmt.Errorf("core: invalid join contact %v", contact)
	}
	e.mem.Seed([]proto.ProcessID{contact})
	return proto.Message{
		Kind:       proto.SubscribeMsg,
		From:       e.self,
		To:         contact,
		Subscriber: e.self,
	}, nil
}

// Unsubscribe starts this process's departure (§3.4). The unsubscription
// spreads with subsequent Ticks; the process should keep gossiping for a
// grace period before going silent.
func (e *Engine) Unsubscribe(now uint64) error { return e.mem.Unsubscribe(now) }

// PendingEvents returns the notifications staged for the next gossip
// (diagnostics).
func (e *Engine) PendingEvents() int { return e.events.Len() }

// DigestLen returns the current number of identifiers the advertised
// digest retains (flat: windowed ids; compact: sparse ids only).
func (e *Engine) DigestLen() int {
	if e.cfg.DigestMode == CompactDigest {
		return e.compact.SparseLen()
	}
	return min(e.archive.Len(), e.cfg.MaxEventIDs)
}

// SubsLen returns the current subs buffer occupancy (diagnostics).
func (e *Engine) SubsLen() int { return e.mem.SubsLen() }

// UnsubsLen returns the current unSubs buffer occupancy (diagnostics).
func (e *Engine) UnsubsLen() int { return e.mem.UnsubsLen() }
