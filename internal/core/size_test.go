package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
)

// storage reads the backing slice of one protocol buffer through the
// unexported fields named by path, so the size tests below need no accessor
// outside them; a renamed field fails them loudly.
func storage(e *Engine, path ...string) reflect.Value {
	v := reflect.ValueOf(e)
	for _, name := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.FieldByName(name)
	}
	return v
}

// TestIdleEngineHoldsNoEventStorage: a bound is a maximum, not a size. Forty
// pooled engines gossip membership for 20 rounds — every view full, every
// reception merging and truncating — without ever meeting an event or an
// unsubscription, and none of them holds a slot of events, unSubs or the
// ring of delivered ids that is both eventIds and the archive.
func TestIdleEngineHoldsNoEventStorage(t *testing.T) {
	const n = 40
	cfg := DefaultConfig()
	root := rng.New(5)
	var pools Pools
	engines := make([]*Engine, n)
	for i := range engines {
		var src rng.Source
		root.SplitInto(&src)
		e, err := NewIn(proto.ProcessID(i+1), cfg, nil, src, &pools)
		if err != nil {
			t.Fatal(err)
		}
		var seeds []proto.ProcessID
		for j := 1; j <= cfg.Membership.MaxView; j++ {
			seeds = append(seeds, proto.ProcessID((i+j)%n+1))
		}
		e.Seed(seeds)
		engines[i] = e
	}
	var out, replies []proto.Message
	for round := uint64(1); round <= 20; round++ {
		out = out[:0]
		for _, e := range engines {
			out = e.TickAppend(round, out)
		}
		for _, m := range out {
			replies = engines[m.To-1].HandleMessageAppend(m, round, replies[:0])
			if len(replies) != 0 {
				t.Fatalf("round %d: an idle system produced a response %+v", round, replies[0])
			}
		}
	}
	for _, e := range engines {
		if got := e.Stats().GossipsReceived; got == 0 {
			t.Fatalf("%v received no gossip: the test exercised nothing", e.Self())
		}
		if e.ViewLen() != cfg.Membership.MaxView || e.SubsLen() != cfg.Membership.MaxSubs {
			t.Fatalf("%v: view %d, subs %d: membership was not merged to its bounds", e.Self(), e.ViewLen(), e.SubsLen())
		}
		for _, buf := range []struct {
			name string
			path []string
		}{
			{"events", []string{"events", "inner", "items"}},
			{"eventIds and archive ring", []string{"archive", "ring"}},
			{"unSubs", []string{"mem", "unsubs", "inner", "items"}},
		} {
			if c := storage(e, buf.path...).Cap(); c != 0 {
				t.Errorf("%v: %s holds %d slots after 20 idle rounds, want 0", e.Self(), buf.name, c)
			}
		}
		if !storage(e, "archive", "side").IsNil() {
			t.Errorf("%v: the archive made a side after 20 idle rounds", e.Self())
		}
	}
}

// loadedEngine returns a pooled engine and a reception of 35 fresh
// notifications — more than |events|m — from seven origins, each carrying
// payload, after enough of them, with a tick every third, to bring every
// buffer to its high-water mark.
func loadedEngine(t *testing.T, payload []byte) (*Engine, func()) {
	t.Helper()
	cfg := DefaultConfig()
	var pools Pools
	e, err := NewIn(1, cfg, nil, *rng.New(99), &pools)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []proto.ProcessID
	for p := proto.ProcessID(2); int(p) <= cfg.Membership.MaxView+1; p++ {
		seeds = append(seeds, p)
	}
	e.Seed(seeds)
	const origins = 7
	g := &proto.Gossip{From: 2, Subs: []proto.ProcessID{2}, Events: make([]proto.Event, 35)}
	msg := proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: g}
	var out, ticked []proto.Message
	seq, now := uint32(0), uint64(0)
	receive := func() {
		for i := range g.Events {
			if i%origins == 0 {
				seq++
			}
			g.Events[i] = proto.Event{ID: proto.EventID{Origin: proto.ProcessID(2 + i%origins), Seq: seq}, Payload: payload}
		}
		out = e.HandleMessageAppend(msg, now, out[:0])
	}
	e.SetEmissionReuse(true)
	for i := 0; i < 60; i++ {
		receive()
		if i%3 == 2 { // events ← ∅, and the emission scratch reaches its size
			now++
			ticked = e.TickAppend(now, ticked[:0])
		}
	}
	if got, want := e.archive.Len(), cfg.ArchiveSize; got != want {
		t.Fatalf("archive holds %d events, want %d: the warm-up was too short", got, want)
	}
	return e, receive
}

// TestLoadedBuffersStopAtBound: growth on demand ends at the bound. A pooled
// engine receives 35 fresh notifications per gossip — more than |events|m —
// until every buffer is at its high-water mark: the events list is no larger
// than the 32-slot class it used to be given at construction; eventIds and
// the archive are one ring of max(ArchiveSize, |eventIds|m) 8-byte words,
// with no side for the payloads these notifications do not carry, and no
// other store of delivered ids beside it; and 1 000 further receptions
// allocate nothing.
func TestLoadedBuffersStopAtBound(t *testing.T) {
	cfg := DefaultConfig()
	e, receive := loadedEngine(t, nil)
	for i, engine := 0, reflect.TypeOf(*e); i < engine.NumField(); i++ {
		if f := engine.Field(i); f.Type == reflect.TypeOf(&buffer.IDBuffer{}) || f.Type == reflect.TypeOf(&buffer.FIFO[proto.EventID]{}) {
			t.Errorf("Engine.%s is a second store of delivered ids beside the archive", f.Name)
		}
	}
	if got := storage(e, "events", "inner", "items").Cap(); got < cfg.MaxEvents+1 || got > 32 {
		t.Errorf("events holds %d slots after a loaded warm-up, want %d to 32", got, cfg.MaxEvents+1)
	}
	ring := storage(e, "archive", "ring")
	if got, want := ring.Len(), max(cfg.ArchiveSize, cfg.MaxEventIDs); got != want || ring.Type().Elem().Size() != 8 {
		t.Errorf("archive ring of %d slots of %d bytes, want %d of 8", got, ring.Type().Elem().Size(), want)
	}
	if !storage(e, "archive", "side").IsNil() {
		t.Errorf("payload-less notifications made a side")
	}
	if size := unsafe.Sizeof(*e.archive); size > 56 {
		t.Errorf("the archive's header takes %d bytes, want at most 56", size)
	}
	delivered := e.Stats().EventsDelivered
	if allocs := testing.AllocsPerRun(1000, receive); allocs != 0 {
		t.Errorf("a loaded reception allocates %v times at the high-water mark, want 0", allocs)
	}
	if got := e.Stats().EventsDelivered - delivered; got != 1001*35 { // AllocsPerRun warms up once
		t.Errorf("%d deliveries over 1001 receptions of 35 fresh events", got)
	}
}

// TestOnePayloadCopyPerDelivery: at the high-water mark a reception of k
// fresh notifications of 64 bytes allocates k times, one copy each, which
// delivery, archive and events share; a served pull allocates its reply and
// no payload, answering with the archived slices.
func TestOnePayloadCopyPerDelivery(t *testing.T) {
	e, receive := loadedEngine(t, make([]byte, 64))
	const k = 35
	if allocs := testing.AllocsPerRun(200, receive); allocs != k {
		t.Errorf("a reception of %d fresh 64-byte notifications allocates %v times, want %d", k, allocs, k)
	}
	if got := storage(e, "archive", "side", "pay").Len(); got != DefaultConfig().ArchiveSize {
		t.Errorf("side ring of %d slots, want one per archive ring slot", got)
	}
	shared := 0
	for i := 0; i < e.events.Len(); i++ {
		ev := e.events.At(i)
		archived, ok := e.archive.Lookup(ev.ID)
		if !ok || len(ev.Payload) != 64 || &archived.Payload[0] != &ev.Payload[0] {
			t.Fatalf("%v: events and archive hold different copies of the payload", ev.ID)
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no buffered event to compare with the archive")
	}

	req := make([]proto.EventID, 0, 4)
	for i := 0; i < cap(req); i++ {
		req = append(req, e.events.At(i).ID)
	}
	pull := proto.Message{Kind: proto.RetransmitRequestMsg, From: 2, To: 1, Request: req}
	out := e.HandleMessageAppend(pull, 1, nil)
	if allocs := testing.AllocsPerRun(200, func() { out = e.HandleMessageAppend(pull, 1, out[:0]) }); allocs != 1 {
		t.Errorf("a served pull of %d ids allocates %v times, want 1 (its reply)", len(req), allocs)
	}
	if len(out) != 1 || len(out[0].Reply) != len(req) {
		t.Fatalf("pull of %d ids answered by %+v", len(req), out)
	}
	for _, ev := range out[0].Reply {
		archived, _ := e.archive.Lookup(ev.ID)
		if &archived.Payload[0] != &ev.Payload[0] {
			t.Fatalf("%v: the reply copied the archived payload", ev.ID)
		}
	}
}

// TestIdleEngineFootprint pins two rows of a process's memory budget, both
// per-process state that is not the protocol's own: a pooled engine's slot
// holds no copy of its configuration (engines share one) and one delivery
// seam (an EventSink; New wraps its Deliverer in one), and a Uniform
// view is a list of 4-byte ids, (l + |subs|m + 2)·4 bytes at DefaultConfig,
// with no weights beside it however much membership it merges. A Weighted
// view's weights are made with it, at the list's size, so its merges stay
// allocation-free.
func TestIdleEngineFootprint(t *testing.T) {
	if size := unsafe.Sizeof(engineSlot{}); size > 680 {
		t.Errorf("an engine slot takes %d bytes, want at most 680", size)
	}
	for _, policy := range []membership.Policy{membership.Uniform, membership.Weighted} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Membership.Policy = policy
			var pools Pools
			e, err := NewIn(1, cfg, nil, *rng.New(3), &pools)
			if err != nil {
				t.Fatal(err)
			}
			mc := cfg.Membership
			room := mc.MaxView + mc.MaxSubs + 2
			list := storage(e, "mem", "view", "list")
			if got, want := list.Cap()*int(list.Type().Elem().Size()), room*4; got != want {
				t.Errorf("the view's list holds %d bytes, want %d", got, want)
			}
			weights := storage(e, "mem", "view", "weights")
			checkWeights := func(when string) {
				switch {
				case policy == membership.Uniform && !weights.IsNil():
					t.Errorf("a Uniform view made weights %s", when)
				case policy == membership.Weighted && weights.Cap() != room:
					t.Errorf("a Weighted view's weights hold %d entries %s, want %d", weights.Cap(), when, room)
				}
			}
			checkWeights("at construction")
			gen := rng.New(4)
			subs := make([]proto.ProcessID, mc.MaxSubs+1)
			merge := func() {
				for i := range subs {
					subs[i] = proto.ProcessID(2 + gen.Intn(3*mc.MaxView)) // known and unknown ids alike
				}
				e.mem.ApplySubs(subs)
			}
			if allocs := testing.AllocsPerRun(1000, merge); allocs != 0 {
				t.Errorf("a merge allocates %v times, want 0", allocs)
			}
			if got := list.Cap(); got != room {
				t.Errorf("the view's list grew to %d entries, want %d", got, room)
			}
			checkWeights("after 1 001 merges")
		})
	}
}

// TestPoolsShareConfig: engines built from one Pools with equal Configs read
// one copy of it, their managers its Membership; a Config that differs in any
// one field, of Config or of membership.Config, gets a copy of its own. The
// fields are walked by reflection, so a field added to either Config that
// Config.equal does not compare fails here.
func TestPoolsShareConfig(t *testing.T) {
	build := func(p *Pools, self proto.ProcessID, cfg Config) *Engine {
		t.Helper()
		e, err := NewIn(self, cfg, nil, *rng.New(uint64(self)), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := storage(e, "mem", "cfg").Pointer(); got != uintptr(unsafe.Pointer(&e.cfg.Membership)) {
			t.Errorf("%v: the manager reads a Config of its own", self)
		}
		return e
	}
	clone := func(c Config) Config {
		c.Membership.Prioritary = slices.Clone(c.Membership.Prioritary)
		return c
	}
	base := DefaultConfig()
	base.Membership.Prioritary = []proto.ProcessID{7, 8}
	withPull := clone(base)
	withPull.Retransmit = true

	var pools Pools
	caller := clone(base)
	e1 := build(&pools, 1, caller)
	caller.Membership.Prioritary[0] = 9
	if e1.cfg.Membership.Prioritary[0] != 7 {
		t.Fatal("the shared Config aliases the caller's Prioritary")
	}
	if e2 := build(&pools, 2, clone(base)); e2.cfg != e1.cfg {
		t.Fatal("two engines built with equal Configs hold a copy each")
	}

	var fields [][]int // index paths into Config, membership.Config's fields inlined
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); f.Type == reflect.TypeOf(membership.Config{}) {
			for j := 0; j < f.Type.NumField(); j++ {
				fields = append(fields, []int{i, j})
			}
		} else {
			fields = append(fields, []int{i})
		}
	}
	for _, path := range fields {
		name := ct.FieldByIndex(path).Name
		changed := false
		for _, from := range []Config{base, withPull} { // Logger and RetransmitTimeout need Retransmit; AssumeFromDigest excludes it
			cfg := clone(from)
			switch f := reflect.ValueOf(&cfg).Elem().FieldByIndex(path); f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint32, reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Slice: // Prioritary: same length, other contents
				f.Index(f.Len() - 1).SetUint(f.Index(f.Len()-1).Uint() + 1)
			default:
				t.Fatalf("Config field %s of kind %s: teach Config.equal and this test to change it", name, f.Kind())
			}
			if cfg.Validate() != nil {
				continue
			}
			changed = true
			var p Pools
			shared := build(&p, 1, clone(from))
			own := build(&p, 2, cfg)
			if own.cfg == shared.cfg || !reflect.DeepEqual(*own.cfg, cfg) {
				t.Errorf("a Config differing in %s only shares the first engine's", name)
			}
		}
		if !changed {
			t.Errorf("no valid Config differs from the bases in %s alone: the test exercised nothing", name)
		}
	}
}
