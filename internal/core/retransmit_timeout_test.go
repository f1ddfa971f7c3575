package core

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// timeoutEngine builds a Retransmit engine with the timer armed and a
// seeded view, so ticks have gossip targets and re-requests have members
// to retry against.
func timeoutEngine(t *testing.T, timeout uint64, mutate func(*Config)) *Engine {
	t.Helper()
	e, _ := newEngine(t, 1, func(c *Config) {
		c.Retransmit = true
		c.RetransmitTimeout = timeout
		if mutate != nil {
			mutate(c)
		}
	})
	e.Seed([]proto.ProcessID{2, 3, 4})
	return e
}

// requestMissing feeds the engine a digest advertising id from sender,
// returning the retransmission request it emits.
func requestMissing(t *testing.T, e *Engine, sender proto.ProcessID, id proto.EventID, now uint64) proto.Message {
	t.Helper()
	out := gossipTo(e, proto.Gossip{From: sender, Digest: []proto.EventID{id}}, now)
	if len(out) != 1 || out[0].Kind != proto.RetransmitRequestMsg {
		t.Fatalf("digest gossip emitted %v, want one retransmit request", out)
	}
	return out[0]
}

// retransmitRequests filters the retransmission requests out of a tick's
// emission.
func retransmitRequests(msgs []proto.Message) []proto.Message {
	var reqs []proto.Message
	for _, m := range msgs {
		if m.Kind == proto.RetransmitRequestMsg {
			reqs = append(reqs, m)
		}
	}
	return reqs
}

func TestRetransmitTimeoutValidate(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 5
	if err := cfg.Validate(); err == nil {
		t.Error("RetransmitTimeout without Retransmit validated, want error")
	}
	cfg.Retransmit = true
	if err := cfg.Validate(); err != nil {
		t.Errorf("Retransmit+RetransmitTimeout rejected: %v", err)
	}
}

// TestRetransmitTimeoutReRequests walks the full timer arc: a request
// goes unanswered, the deadline passes, and the next tick re-requests the
// id from a view member; once a reply delivers the notification, the
// pending entry is retired and the timer falls silent.
func TestRetransmitTimeoutReRequests(t *testing.T) {
	t.Parallel()
	e := timeoutEngine(t, 3, nil)
	id := proto.EventID{Origin: 9, Seq: 1}
	requestMissing(t, e, 2, id, 10)

	// Before the deadline (10+3) the timer stays quiet.
	if reqs := retransmitRequests(e.TickAppend(11, nil)); len(reqs) != 0 {
		t.Fatalf("tick before deadline re-requested %v", reqs)
	}
	if got := e.Stats().RetransmitTimeouts; got != 0 {
		t.Fatalf("RetransmitTimeouts = %d before deadline, want 0", got)
	}

	// At the deadline the tick emits exactly one re-request to a view
	// member, carrying the missing id.
	reqs := retransmitRequests(e.TickAppend(13, nil))
	if len(reqs) != 1 {
		t.Fatalf("tick at deadline emitted %d re-requests, want 1", len(reqs))
	}
	if got := reqs[0].Request; len(got) != 1 || got[0] != id {
		t.Fatalf("re-request carries %v, want [%v]", got, id)
	}
	if to := reqs[0].To; to != 2 && to != 3 && to != 4 {
		t.Fatalf("re-request sent to %v, not a view member", to)
	}
	if got := e.Stats().RetransmitTimeouts; got != 1 {
		t.Fatalf("RetransmitTimeouts = %d, want 1", got)
	}

	// The re-request re-armed the deadline to 13+3; a reply before then
	// retires the entry, and later ticks stay quiet for good.
	e.HandleMessageAppend(proto.Message{
		Kind:  proto.RetransmitReplyMsg,
		From:  3,
		To:    e.Self(),
		Reply: []proto.Event{{ID: id, Payload: []byte("x")}},
	}, 14, nil)
	for now := uint64(16); now < 40; now += 3 {
		if reqs := retransmitRequests(e.TickAppend(now, nil)); len(reqs) != 0 {
			t.Fatalf("tick at %d re-requested %v after the reply arrived", now, reqs)
		}
	}
	if got := e.Stats().RetransmitTimeouts; got != 1 {
		t.Fatalf("RetransmitTimeouts = %d after reply, want still 1", got)
	}
}

// TestRetransmitTimeoutGivesUp verifies the attempt cap: an id nobody can
// serve is re-requested maxRetransmitAttempts times and then dropped.
func TestRetransmitTimeoutGivesUp(t *testing.T) {
	t.Parallel()
	e := timeoutEngine(t, 1, nil)
	id := proto.EventID{Origin: 9, Seq: 1}
	requestMissing(t, e, 2, id, 0)

	total := 0
	for now := uint64(1); now < 100; now++ {
		total += len(retransmitRequests(e.TickAppend(now, nil)))
	}
	if total != maxRetransmitAttempts {
		t.Fatalf("unanswerable id re-requested %d times, want %d", total, maxRetransmitAttempts)
	}
	if got := e.Stats().RetransmitTimeouts; got != uint64(maxRetransmitAttempts) {
		t.Fatalf("RetransmitTimeouts = %d, want %d", got, maxRetransmitAttempts)
	}
}

// TestRetransmitTimeoutLogger routes re-requests to the configured logger
// instead of a random member.
func TestRetransmitTimeoutLogger(t *testing.T) {
	t.Parallel()
	e := timeoutEngine(t, 2, func(c *Config) { c.Logger = 4 })
	requestMissing(t, e, 2, proto.EventID{Origin: 9, Seq: 1}, 0)
	reqs := retransmitRequests(e.TickAppend(5, nil))
	if len(reqs) != 1 || reqs[0].To != 4 {
		t.Fatalf("logger re-request = %v, want one request to process 4", reqs)
	}
}

// TestRetransmitTimeoutCap verifies a single re-request respects
// MaxRetransmitPerGossip, and that the overflow entry is not starved: the
// re-requested entries rotate to the back of the table, so the left-out id
// heads the next period's re-request.
func TestRetransmitTimeoutCap(t *testing.T) {
	t.Parallel()
	e := timeoutEngine(t, 1, func(c *Config) { c.MaxRetransmitPerGossip = 2 })
	for seq := uint64(1); seq <= 3; seq++ {
		requestMissing(t, e, 2, proto.EventID{Origin: 9, Seq: seq}, 0)
	}
	first := retransmitRequests(e.TickAppend(2, nil))
	want := []proto.EventID{{Origin: 9, Seq: 1}, {Origin: 9, Seq: 2}}
	if len(first) != 1 || len(first[0].Request) != 2 ||
		first[0].Request[0] != want[0] || first[0].Request[1] != want[1] {
		t.Fatalf("capped re-request = %v, want one request with ids %v", first, want)
	}
	second := retransmitRequests(e.TickAppend(3, nil))
	if len(second) != 1 || len(second[0].Request) == 0 ||
		second[0].Request[0] != (proto.EventID{Origin: 9, Seq: 3}) {
		t.Fatalf("follow-up re-request = %v, want the starved id p9#3 first", second)
	}
}

// TestRetransmitTimeoutAbortSafe proves the compose scan is speculative:
// composing a due re-request, aborting, and recomposing yields the exact
// emission a direct compose would have, with no attempt counted.
func TestRetransmitTimeoutAbortSafe(t *testing.T) {
	t.Parallel()
	build := func() *Engine {
		cfg := DefaultConfig()
		cfg.Retransmit = true
		cfg.RetransmitTimeout = 1
		e, err := New(1, cfg, nil, rng.New(77))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		e.Seed([]proto.ProcessID{2, 3, 4, 5, 6})
		requestMissing(t, e, 2, proto.EventID{Origin: 9, Seq: 1}, 0)
		return e
	}
	speculative, direct := build(), build()

	spec := speculative.TickCompose(5, nil)
	speculative.TickAbort()
	if got := speculative.Stats().RetransmitTimeouts; got != 0 {
		t.Fatalf("aborted compose counted %d timeouts", got)
	}
	respec := speculative.TickCompose(5, nil)
	speculative.TickCommit(5)
	ref := direct.TickAppend(5, nil)

	if len(spec) != len(respec) || len(respec) != len(ref) {
		t.Fatalf("emission lengths diverge: compose %d, recompose %d, direct %d", len(spec), len(respec), len(ref))
	}
	for i := range ref {
		if respec[i].Kind != ref[i].Kind || respec[i].To != ref[i].To {
			t.Fatalf("message %d diverges after abort: %v vs %v", i, respec[i], ref[i])
		}
		if spec[i].Kind != ref[i].Kind || spec[i].To != ref[i].To {
			t.Fatalf("aborted compose %d had already diverged: %v vs %v", i, spec[i], ref[i])
		}
	}
	if got, want := speculative.Stats().RetransmitTimeouts, direct.Stats().RetransmitTimeouts; got != want {
		t.Fatalf("RetransmitTimeouts %d after abort+commit, direct path has %d", got, want)
	}
}
