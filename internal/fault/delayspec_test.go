package fault

import (
	"reflect"
	"testing"
)

func TestParseDelaySpec(t *testing.T) {
	cases := []struct {
		in   string
		want DelayModel // nil means the no-delay fast path
	}{
		{"", nil},
		{"  ", nil},
		{"fixed:0", nil},
		{"ms:fixed:0", nil},
		{"fixed:2", FixedDelay{Rounds: 2}},
		{" fixed:3 ", FixedDelay{Rounds: 3}},
		{"uniform:1-4", UniformDelay{Min: 1, Max: 4}},
		{"ms:fixed:30", Millis{Model: FixedDelay{Rounds: 30}}},
		{"ms:uniform:10-40", Millis{Model: UniformDelay{Min: 10, Max: 40}}},
		// Range errors are deferred to Validate, not parse errors.
		{"fixed:-2", FixedDelay{Rounds: -2}},
		{"uniform:4-1", UniformDelay{Min: 4, Max: 1}},
	}
	for _, tc := range cases {
		got, err := ParseDelaySpec(tc.in)
		if err != nil {
			t.Errorf("ParseDelaySpec(%q): unexpected error %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseDelaySpec(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

func TestParseDelaySpecErrors(t *testing.T) {
	for _, in := range []string{
		"x",
		// The bare-integer forms are refused, zero included.
		"0",
		"2",
		" 3 ",
		"-2",
		"ms:0",
		"ms:30",
		"fixed:",
		"fixed:a",
		"uniform:1",
		"uniform:a-b",
		"ms:",
		"ms:uniform:1",
		"rounds:2",
	} {
		if m, err := ParseDelaySpec(in); err == nil {
			t.Errorf("ParseDelaySpec(%q) = %#v, want error", in, m)
		}
	}
}

func TestUnitAndMillisValidate(t *testing.T) {
	if u := Unit(FixedDelay{Rounds: 2}); u != UnitRounds {
		t.Fatalf("Unit(FixedDelay) = %v, want rounds", u)
	}
	if u := Unit(Millis{Model: FixedDelay{Rounds: 2}}); u != UnitMillis {
		t.Fatalf("Unit(Millis) = %v, want ms", u)
	}
	if u := Unit(nil); u != UnitRounds {
		t.Fatalf("Unit(nil) = %v, want rounds", u)
	}
	if err := (Millis{}).Validate(); err == nil {
		t.Fatal("Millis{} should fail validation")
	}
	if err := (Millis{Model: Millis{Model: FixedDelay{Rounds: 1}}}).Validate(); err == nil {
		t.Fatal("nested Millis should fail validation")
	}
	if err := (Millis{Model: FixedDelay{Rounds: -1}}).Validate(); err == nil {
		t.Fatal("Millis should surface the wrapped model's validation error")
	}
	if err := (Millis{Model: UniformDelay{Min: 10, Max: 40}}).Validate(); err != nil {
		t.Fatalf("valid Millis model rejected: %v", err)
	}
	m := Millis{Model: FixedDelay{Rounds: 30}}
	if got := m.MaxDelay(); got != 30 {
		t.Fatalf("Millis.MaxDelay = %d, want 30", got)
	}
	if got := m.Delay(1, 2, 0, nil); got != 30 {
		t.Fatalf("Millis.Delay = %d, want 30", got)
	}
}
