package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/proto"
	"repro/internal/rng"
)

// DelayUnit says how a DelayModel's values are to be read: as whole gossip
// rounds (the historical form, one unit per period) or as milliseconds of
// virtual time (the event-clock form, which lets latencies fall between
// ticks). The unit is a property of the model value, not of the draw: a
// simulator picks its clock from the model's unit and must refuse to mix
// units within one scenario.
type DelayUnit int

const (
	// UnitRounds reads delays as whole gossip rounds/periods.
	UnitRounds DelayUnit = iota
	// UnitMillis reads delays as milliseconds of virtual time.
	UnitMillis
)

// String implements fmt.Stringer.
func (u DelayUnit) String() string {
	switch u {
	case UnitRounds:
		return "rounds"
	case UnitMillis:
		return "ms"
	default:
		return fmt.Sprintf("unit(%d)", int(u))
	}
}

// Millis reinterprets a round-valued delay model's numbers as milliseconds
// of virtual time. The wrapped model's draws are unchanged — Millis only
// flips the unit reported by Unit, so `Millis{UniformDelay{Min: 10, Max:
// 40}}` is a 10–40 ms jitter model. Simulators must run such a model on an
// event clock; round-lockstep executors reject it.
type Millis struct {
	Model DelayModel
}

// Delay implements DelayModel; the returned value is in milliseconds.
func (m Millis) Delay(src, dst proto.ProcessID, now uint64, r *rng.Source) int {
	return m.Model.Delay(src, dst, now, r)
}

// MaxDelay implements DelayModel; the bound is in milliseconds.
func (m Millis) MaxDelay() int { return m.Model.MaxDelay() }

// Validate implements DelayModel.
func (m Millis) Validate() error {
	if m.Model == nil {
		return fmt.Errorf("fault: Millis wraps no model")
	}
	if _, nested := m.Model.(Millis); nested {
		return fmt.Errorf("fault: nested Millis wrapper")
	}
	return m.Model.Validate()
}

// Unit reports the unit a delay model's values are expressed in: UnitMillis
// for Millis-wrapped models, UnitRounds for everything else.
func Unit(m DelayModel) DelayUnit {
	if _, ok := m.(Millis); ok {
		return UnitMillis
	}
	return UnitRounds
}

// ParseDelaySpec parses the compact delay-model grammar shared by the
// matrix sweep's delay= key and the CLI:
//
//	""              no delay (nil model)
//	"fixed:2"       FixedDelay{2} rounds
//	"uniform:1-4"   UniformDelay{1,4} rounds
//	"ms:fixed:30"   Millis{FixedDelay{30}} — 30 ms of virtual time
//	"ms:uniform:10-40"  likewise, millisecond-valued
//
// A spec that names an exactly-zero delay ("fixed:0", "ms:fixed:0")
// returns a nil model: zero delay is the simulator's no-delay fast path,
// and representing it as nil keeps such runs bit-identical to runs that
// never mention delay (the delay RNG stream is only split when a model is
// in force). Range errors (negative or inverted bounds) are left to the
// model's own Validate so they surface with the rest of option validation.
func ParseDelaySpec(s string) (DelayModel, error) {
	spec := strings.TrimSpace(s)
	if spec == "" {
		return nil, nil
	}
	rest, ms := strings.CutPrefix(spec, "ms:")
	var m DelayModel
	switch {
	case strings.HasPrefix(rest, "fixed:"):
		v, err := strconv.Atoi(rest[len("fixed:"):])
		if err != nil {
			return nil, fmt.Errorf("fault: delay spec %q: bad fixed value", s)
		}
		m = FixedDelay{Rounds: v}
	case strings.HasPrefix(rest, "uniform:"):
		body := rest[len("uniform:"):]
		loStr, hiStr, ok := strings.Cut(body, "-")
		if !ok {
			return nil, fmt.Errorf("fault: delay spec %q: uniform wants min-max", s)
		}
		lo, err1 := strconv.Atoi(strings.TrimSpace(loStr))
		hi, err2 := strconv.Atoi(strings.TrimSpace(hiStr))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("fault: delay spec %q: bad uniform bounds", s)
		}
		m = UniformDelay{Min: lo, Max: hi}
	default:
		return nil, fmt.Errorf("fault: delay spec %q: want fixed:N, uniform:A-B, or an ms: prefix on either", s)
	}
	if f, ok := m.(FixedDelay); ok && f.Rounds == 0 {
		return nil, nil
	}
	if ms {
		m = Millis{Model: m}
	}
	return m, nil
}
