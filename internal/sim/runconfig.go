package sim

import "fmt"

// Clock selects the simulator's time base.
type Clock int

const (
	// ClockRounds is the round-lockstep base: a gossip period is one
	// virtual instant, so delays are whole-round granular and every process
	// ticks at every round boundary — the regime of the paper's §5.1
	// simulations. In Async mode each period draws a fresh tick order.
	ClockRounds Clock = iota
	// ClockEvent is the millisecond virtual-time base: a gossip period is
	// PeriodMs instants, and the cluster walks the instants that have
	// delayed arrivals pending — the in-flight ring's markers on a
	// hierarchical timer wheel (internal/event) — in order, ticks at their
	// positions in that walk. One RunRound still advances exactly one
	// gossip period, so experiment loops are unchanged. Round-granular
	// delay models keep their semantics (and reproduce round-clock results
	// exactly, whatever PeriodMs; the bridge tests assert byte-for-byte
	// equality — the round clock is this clock at one instant per period,
	// under the same step functions), while fault.Millis models land
	// between ticks at millisecond resolution. In Async mode each process
	// ticks at its own fixed phase offset within the period instead of in
	// a shuffled order at the boundary — the unsynchronized regime with
	// real, staggered tick times.
	ClockEvent
)

// String implements fmt.Stringer.
func (c Clock) String() string {
	switch c {
	case ClockRounds:
		return "rounds"
	case ClockEvent:
		return "event"
	default:
		return fmt.Sprintf("clock(%d)", int(c))
	}
}

// defaultPeriodMs is the gossip period in virtual milliseconds when
// ClockEvent is selected without an explicit PeriodMs.
const defaultPeriodMs = 100

// maxPeriodMs bounds the configured period so every timer a period
// schedules stays far inside the wheel's horizon.
const maxPeriodMs = 1 << 20

// RunConfig is the execution configuration shared by the process-cluster
// entry points — Options, FigureScale and MatrixSpec all embed it, so "how
// the simulation executes" is declared once instead of as per-surface field
// copies (TopicOptions has none: the pubsub Bus steps whole rounds on one
// goroutine). It selects the shard count
// (Workers), the time base (Clock, PeriodMs), and the buffer-poisoning
// debug mode; none of its fields change results, only how and how fast
// they are computed (Clock changes what a delay model's values can mean
// and where async ticks fall — see its docs — but is itself deterministic
// and independent of the shard count).
type RunConfig struct {
	// Workers is the number of shards a round (or async period) runs on;
	// there is one schedule per regime, the same on both clocks, and results
	// are bit-for-bit identical for any shard count and the same seed. 0 or
	// 1 is one shard: every phase runs inline on the caller's goroutine and
	// the cluster starts no workers. W > 1 fans the per-process work out to
	// W persistent workers with deterministic merges: in synchronous mode
	// the tick and handle phases of each round; in Async mode the
	// deliveries of each wave of the wavefront schedule (async.go), whose
	// ticks run in one sequential walk. A negative value selects
	// GOMAXPROCS shards, and the count never exceeds the number of
	// processes.
	Workers int
	// Clock selects the time base: one instant per period (round lockstep,
	// the default) or PeriodMs of them.
	Clock Clock
	// PeriodMs is the gossip period in virtual milliseconds on the event
	// clock (0 = defaultPeriodMs). Setting it with ClockRounds is a
	// configuration error: the round clock has no sub-round time.
	PeriodMs int
	// PoisonRecycled is a debug mode of the executor: recycled storage is
	// overwritten with sentinel values — at the end of every round (or
	// async period) the executor's outbox, response and queue slots and the
	// requests and replies drained from the in-flight ring, and every gossip
	// a shard's arena takes back when it recycles a generation — so any
	// consumer that still aliases it diverges loudly from the cloning
	// reference walk instead of reading stale data silently. Results must be identical with the flag on — the reuse
	// property tests assert this.
	PoisonRecycled bool
	// EmissionReuse is ignored.
	//
	// Deprecated: engines always emit into the executor's per-shard arenas,
	// whatever the shard count, and nothing reads this field. It
	// is still declared only because benchmark/ assigns it; it goes with
	// the PR that may edit benchmark/.
	EmissionReuse bool
}

// validateRun reports run-configuration errors.
func (rc RunConfig) validateRun() error {
	switch rc.Clock {
	case ClockRounds, ClockEvent:
	default:
		return fmt.Errorf("sim: unknown clock %d", int(rc.Clock))
	}
	if rc.PeriodMs < 0 || rc.PeriodMs > maxPeriodMs {
		return fmt.Errorf("sim: PeriodMs %d outside [0,%d]", rc.PeriodMs, maxPeriodMs)
	}
	if rc.PeriodMs != 0 && rc.Clock != ClockEvent {
		return fmt.Errorf("sim: PeriodMs is an event-clock knob; set Clock: ClockEvent")
	}
	return nil
}

// periodMillis resolves the gossip period in virtual instants: one on the
// round clock, the effective PeriodMs on the event clock.
func (rc RunConfig) periodMillis() uint64 {
	switch {
	case rc.Clock != ClockEvent:
		return 1
	case rc.PeriodMs <= 0:
		return defaultPeriodMs
	}
	return uint64(rc.PeriodMs)
}
