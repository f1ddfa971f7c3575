package main

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/idmap"
	"repro/internal/membership"
	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The leaf probes time the layers under the engines on the messages the
// layer replay really emitted (sample), so the inputs have the workload's
// sizes: its digest lengths, its subs lists, its event counts. Each probe
// is one span of many calls; the span's name is the metric's stem.

// probeRounds repeats the sample so that a span is long enough to time.
const probeRounds = 64

// sampleParts flattens the sampled messages into the inputs probes need.
type sampleParts struct {
	ids    []proto.EventID
	events []proto.Event
	subs   [][]proto.ProcessID
}

func splitSample(sample []proto.Message) sampleParts {
	var p sampleParts
	for _, m := range sample {
		if m.Gossip == nil {
			for _, e := range m.Reply {
				p.events = append(p.events, e)
				p.ids = append(p.ids, e.ID)
			}
			p.ids = append(p.ids, m.Request...)
			continue
		}
		p.ids = append(p.ids, m.Gossip.Digest...)
		p.events = append(p.events, m.Gossip.Events...)
		p.subs = append(p.subs, m.Gossip.Subs)
	}
	if len(p.ids) == 0 { // a workload with one event still probes the buffers
		p.ids = append(p.ids, proto.EventID{Origin: 1, Seq: 1})
	}
	if len(p.events) == 0 {
		p.events = append(p.events, proto.Event{ID: p.ids[0]})
	}
	if len(p.subs) == 0 {
		p.subs = append(p.subs, []proto.ProcessID{1, 2, 3})
	}
	return p
}

var probeSink int // keeps probe results alive

// runLeafProbes records one span per leaf layer. n is the workload's
// process count (the id space lookups range over), view and fanout its
// membership sizes.
func runLeafProbes(tr *tracer, sample []proto.Message, n, view, fanout int, seed uint64) (wireBytesPerMsg float64) {
	p := splitSample(sample)
	r := rng.New(seed)
	tr.begin("probes", 0)
	defer tr.end(1)

	// rng: the target-selection draw (F of l) and a Zipf rank.
	var idx []int
	calls := probeRounds * 256
	tr.begin("rng.sample", 0)
	for i := 0; i < calls; i++ {
		idx = r.SampleAppend(idx[:0], view, fanout)
	}
	tr.end(int64(calls))
	z := rng.NewZipf(busTopics, busZipfS)
	tr.begin("rng.zipf", 0)
	for i := 0; i < calls; i++ {
		probeSink += z.Draw(r)
	}
	tr.end(int64(calls))
	probeSink += len(idx)

	// buffer: the keyed insert behind events/eventIds, the digest
	// membership test, and the archive lookup that serves a pull.
	ids := buffer.NewIDBuffer()
	tr.begin("buffer.keyed_add", 0)
	for k := 0; k < probeRounds; k++ {
		for _, id := range p.ids {
			ids.Add(id)
		}
		ids.TruncateOldestDiscard(60)
	}
	tr.end(int64(probeRounds * len(p.ids)))
	tr.begin("buffer.digest_contains", 0)
	for k := 0; k < probeRounds; k++ {
		for _, id := range p.ids {
			if ids.Contains(id) {
				probeSink++
			}
		}
	}
	tr.end(int64(probeRounds * len(p.ids)))
	arch := buffer.NewArchive(200)
	for _, e := range p.events {
		arch.Store(e)
	}
	tr.begin("buffer.archive_get", 0)
	for k := 0; k < probeRounds; k++ {
		for _, id := range p.ids {
			if _, ok := arch.Lookup(id); ok {
				probeSink++
			}
		}
	}
	tr.end(int64(probeRounds * len(p.ids)))

	// membership: pick F targets from a full view; merge a received subs
	// list (view insert + both truncations); truncate an over-full view.
	mcfg := membership.DefaultConfig()
	mcfg.MaxView, mcfg.MaxSubs = view, view
	mgr, err := membership.NewManager(proto.ProcessID(n+1), mcfg, r.Split())
	if err == nil {
		seedView := make([]proto.ProcessID, view)
		for i := range seedView {
			seedView[i] = proto.ProcessID(i + 1)
		}
		mgr.Seed(seedView)
		var targets []proto.ProcessID
		tr.begin("membership.pick", 0)
		for i := 0; i < calls; i++ {
			targets = mgr.AppendTargets(targets[:0], fanout)
		}
		tr.end(int64(calls))
		probeSink += len(targets)
		merges := 0
		tr.begin("membership.merge", 0)
		for k := 0; k < probeRounds; k++ {
			for _, s := range p.subs {
				mgr.ApplySubs(s)
				merges++
			}
		}
		tr.end(int64(merges))
	}
	v := membership.NewView(proto.ProcessID(n + 1))
	truncs := probeRounds * 64
	tr.begin("membership.truncate", 0)
	for k := 0; k < truncs; k++ {
		for i := 0; v.Len() < view+fanout; i++ {
			v.Add(proto.ProcessID(1 + r.Intn(n)))
		}
		probeSink += len(v.TruncateUniform(view, nil, r))
	}
	tr.end(int64(truncs))

	// idmap and pool: the dense-index lookup every routed message pays,
	// and the slab behind pooled engine construction.
	var tab idmap.Table
	tab.Reserve(proto.ProcessID(n), n)
	for i := 1; i <= n; i++ {
		tab.Add(proto.ProcessID(i))
	}
	tr.begin("idmap.lookup", 0)
	for i := 0; i < calls; i++ {
		if ix, ok := tab.Lookup(proto.ProcessID(1 + r.Intn(n))); ok {
			probeSink += int(ix)
		}
	}
	tr.end(int64(calls))
	var slab pool.Slab[[64]uint64]
	held := make([]*[64]uint64, 0, 256)
	tr.begin("pool.get", 0)
	for k := 0; k < probeRounds; k++ {
		for i := 0; i < 256; i++ {
			held = append(held, slab.Get())
		}
		for _, h := range held {
			slab.Put(h)
		}
		held = held[:0]
	}
	tr.end(int64(probeRounds * 256))

	// wire: encode and decode the sampled messages.
	if len(sample) > 0 {
		frames := make([][]byte, 0, len(sample))
		tr.begin("wire.encode", 0)
		for k := 0; k < probeRounds/8; k++ {
			frames = frames[:0]
			for _, m := range sample {
				if f, err := wire.Encode(m); err == nil {
					frames = append(frames, f)
				}
			}
		}
		tr.end(int64(probeRounds / 8 * len(sample)))
		tr.begin("wire.decode", 0)
		for k := 0; k < probeRounds/8; k++ {
			for _, f := range frames {
				if m, err := wire.Decode(f); err == nil {
					probeSink += int(m.Kind)
				}
			}
		}
		tr.end(int64(probeRounds / 8 * len(frames)))
		var bytes int
		for _, f := range frames {
			bytes += len(f)
		}
		wireBytesPerMsg = ratio(float64(bytes), float64(len(frames)))
	}
	probeTransports(tr, sample, fanout)
	return wireBytesPerMsg
}

// drainer discards what probe receivers get, on one goroutine per receiver,
// until halt.
type drainer struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func newDrainer() *drainer { return &drainer{stop: make(chan struct{})} }

func (d *drainer) watch(recv <-chan proto.Message) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case <-recv:
			case <-d.stop:
				return
			}
		}
	}()
}

// halt stops the goroutines and returns once they have exited.
func (d *drainer) halt() {
	close(d.stop)
	d.wg.Wait()
}

// probeSends is how many SendBatch calls a transport probe times.
const probeSends = 512

// probeTransports times one gossip round's SendBatch — fanout messages to
// fanout peers — on UDP loopback and on the in-process fabric. Receivers
// only drain: what is timed is the send path, and a probe that cannot set
// itself up (no sockets) leaves its metric at 0.
func probeTransports(tr *tracer, sample []proto.Message, fanout int) {
	var burst []proto.Message
	for _, m := range sample {
		if m.Gossip != nil && len(burst) < fanout {
			m.From, m.To = 1, proto.ProcessID(len(burst)+2)
			burst = append(burst, m)
		}
	}
	if len(burst) == 0 {
		return
	}
	probeUDP(tr, burst)
	probeInproc(tr, burst)
}

func probeUDP(tr *tracer, burst []proto.Message) {
	src, err := transport.NewUDP(1, "127.0.0.1:0")
	if err != nil {
		return
	}
	d := newDrainer()
	var sinks []*transport.UDP
	defer func() {
		d.halt()
		for _, s := range sinks {
			_ = s.Close() // probe teardown: nothing to do about a close error
		}
		_ = src.Close()
	}()
	for _, m := range burst {
		s, err := transport.NewUDP(m.To, "127.0.0.1:0")
		if err != nil {
			return
		}
		sinks = append(sinks, s)
		d.watch(s.Recv())
		if err := src.AddPeer(m.To, s.LocalAddr()); err != nil {
			return
		}
	}
	tr.begin("transport.udp_sendbatch", 0)
	for i := 0; i < probeSends; i++ {
		_ = src.SendBatch(burst) // loss is part of the model; the probe times the call
	}
	tr.end(probeSends)
}

func probeInproc(tr *tracer, burst []proto.Message) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	d := newDrainer()
	defer func() {
		d.halt()
		_ = net.Close()
	}()
	ep, err := net.Attach(1)
	if err != nil {
		return
	}
	for _, m := range burst {
		peer, err := net.Attach(m.To)
		if err != nil {
			return
		}
		d.watch(peer.Recv())
	}
	tr.begin("transport.inproc_sendbatch", 0)
	for i := 0; i < probeSends; i++ {
		_ = ep.SendBatch(burst)
	}
	tr.end(probeSends)
}
