package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
)

// busReplay is the layer replay of bus-zipf-churn: the same groups of
// engines, the same publish and churn schedule, and none of the bus — no
// clients, locks, dense index, deferred handlers or per-topic ledgers.
// Joins and leaves go through the engines' own membership calls, which is
// where membership.join_us and membership.unsub_us are measured.
type busReplay struct {
	tr        *tracer
	cfg       core.Config
	root      *rng.Source
	loss      fault.LossModel
	g         *gen
	zipf      *zipf
	members   []*busReplayMember // indexed by pid; nil once gone
	order     []proto.ProcessID  // ticking order: ascending pid
	active    [][]proto.ProcessID
	nActive   int
	now       uint64
	st        replayStats
	left      core.Stats // counters of members that left
	measuring bool
	cancels   int
	refused   int
	queue     []proto.Message
	next      []proto.Message
	surv      []proto.Message
	err       error // first join failure; the replay stops there
}

type busReplayMember struct {
	engine  *core.Engine
	topic   int
	pos     int // index in active[topic]; -1 once leaving
	leaving int
}

func newBusReplay(n int, seed uint64) (*busReplay, error) {
	cfg := core.DefaultConfig() // what a zero pubsub.Config.Engine means
	cfg.Retransmit = true
	cfg.MaxRetransmitPerGossip = 64
	root := rng.New(seed)
	r := &busReplay{cfg: cfg, root: root, loss: fault.NewBernoulli(busEpsilon, root.Split()),
		g: newGen(seed, "bus-load"), zipf: newZipf(busTopics, busZipfS),
		members: []*busReplayMember{nil}, active: make([][]proto.ProcessID, busTopics)}
	var pace deployPacer
	for i := 0; i < n; i++ {
		if err := r.join(r.zipf.draw(r.g)); err != nil {
			return nil, err
		}
		if pace.due(i + 1) {
			r.gossipRound()
		}
	}
	return r, nil
}

func (r *busReplay) engine(to proto.ProcessID) *core.Engine {
	if int(to) < len(r.members) && r.members[to] != nil {
		return r.members[to].engine
	}
	return nil
}

// join adds a member to a topic the way the bus does: a fresh engine that
// sends its subscription to one random active member of the group.
func (r *busReplay) join(topic int) error {
	op := int64(r.now)
	r.tr.begin("membership.join", op)
	defer r.tr.end(1)
	pid := proto.ProcessID(len(r.members))
	e, err := core.New(pid, r.cfg, nil, r.root.Split())
	if err != nil {
		return fmt.Errorf("replay: bus member: %w", err)
	}
	e.SetEmissionReuse(true)
	m := &busReplayMember{engine: e, topic: topic, pos: len(r.active[topic])}
	existing := r.active[topic]
	r.members = append(r.members, m)
	r.order = append(r.order, pid)
	r.active[topic] = append(r.active[topic], pid)
	r.nActive++
	if len(existing) == 0 {
		return nil
	}
	msg, err := e.JoinVia(existing[r.root.Intn(len(existing))])
	if err != nil {
		return fmt.Errorf("replay: join: %w", err)
	}
	r.queue = append(r.queue[:0], msg)
	r.dispatch(op)
	return nil
}

// step runs one bus round: publishes, cancel calls, one join per cancel
// that succeeded, every member's tick, then the hops.
func (r *busReplay) step() {
	r.now++
	op := int64(r.now)
	for i := 0; i < busPerStep; {
		if list := r.active[r.zipf.draw(r.g)]; len(list) > 0 {
			r.members[list[r.g.intn(busPublishers(len(list)))]].engine.Publish(nil)
			i++
		}
	}
	left := 0
	for i := 0; i < busPerStep; {
		k := r.g.intn(r.nActive)
		t := 0
		for k >= len(r.active[t]) {
			k -= len(r.active[t])
			t++
		}
		pid := r.active[t][k]
		if k < busPublishers(len(r.active[t])) || len(r.active[t]) <= busMinTopicSize || r.members[pid].leaving > 0 {
			continue // as the driver: publishers stay, and a pick is redrawn
		}
		i++
		m := r.members[pid]
		r.tr.begin("membership.unsub", op)
		err := m.engine.Unsubscribe(r.now)
		r.tr.end(1)
		r.cancels++
		if err != nil {
			r.refused++
			continue
		}
		last := r.active[t][len(r.active[t])-1]
		r.active[t][m.pos] = last
		r.members[last].pos = m.pos
		r.active[t] = r.active[t][:len(r.active[t])-1]
		m.pos, m.leaving = -1, busLeaveGrace
		r.nActive--
		left++
	}
	for i := 0; i < left; i++ {
		if err := r.join(r.zipf.draw(r.g)); err != nil {
			r.err = err
			return
		}
	}

	r.tick(op)
}

// gossipRound is a round without load: what the population does between
// joins during deployment.
func (r *busReplay) gossipRound() {
	r.now++
	r.tick(int64(r.now))
}

// tick runs every member's periodic gossip and routes the round's traffic.
func (r *busReplay) tick(op int64) {
	queue := r.queue[:0]
	ticks := 0
	keep := r.order[:0]
	r.tr.begin("core.tick", op)
	for _, pid := range r.order {
		m := r.members[pid]
		queue = m.engine.TickAppend(r.now, queue)
		ticks++
		if m.leaving > 0 {
			if m.leaving--; m.leaving == 0 {
				addStats(&r.left, m.engine.Stats())
				r.members[pid] = nil
				continue
			}
		}
		keep = append(keep, pid)
	}
	r.tr.end(int64(ticks))
	r.order = keep
	if r.measuring {
		r.st.procRounds += float64(ticks)
	}
	r.queue = queue
	r.dispatch(op)
}

// dispatch routes r.queue hop by hop with one loss decision per message.
func (r *busReplay) dispatch(op int64) {
	queue, next := r.queue, r.next
	for hop := 0; len(queue) > 0 && hop < 16; hop++ {
		surv := r.surv[:0]
		r.tr.begin("fault.classify", op)
		for _, m := range queue {
			if r.engine(m.To) == nil {
				continue
			}
			if r.loss.Drop(m.From, m.To, r.now) {
				continue
			}
			surv = append(surv, m)
		}
		r.tr.end(int64(len(queue)))
		if r.measuring {
			r.st.sent += uint64(len(queue))
			if hop == 0 && len(r.st.sample) < sampleCap && r.now%4 == 0 {
				r.st.sample = appendSample(r.st.sample, surv, 8)
			}
		}
		next = handleRuns(r.tr, op, surv, next[:0], r.now, r.engine)
		r.surv = surv
		queue, next = next, queue
	}
	r.queue, r.next = queue, next
}

func (r *busReplay) advance(steps int) {
	for i := 0; i < steps && r.err == nil; i++ {
		r.step()
	}
}
func (r *busReplay) attach(tr *tracer)  { r.tr, r.measuring = tr, true }
func (r *busReplay) stats() replayStats { return r.st }

// engineStats sums the counters of every member, present or gone.
func (r *busReplay) engineStats() core.Stats {
	s := r.left
	for _, m := range r.members {
		if m != nil {
			addStats(&s, m.engine.Stats())
		}
	}
	return s
}
