package pubsub

import "repro/internal/proto"

// delayRing is the Bus's deterministic in-flight queue: messages whose
// link delay is nonzero leave the current round's dispatch and are parked
// until the top of their arrival round. Like the simulator's ring, bucket
// (r mod maxDelay+1) holds exactly the messages arriving at round r, and
// draining front to back reproduces the enqueue order.
//
// Unlike the simulator's slot-recycling ring, this one deep-copies with
// plain clones: the engines run in emission-reuse mode, so a parked
// message must not alias their scratch, and delayed topologies are not on
// the Bus's alloc-gated fast path (the steady-round bench runs without a
// delay model), so simplicity wins over slot reuse here.
type delayRing struct {
	buckets [][]flEntry
}

// flEntry is one parked message plus the topic accounting it belongs to.
type flEntry struct {
	msg proto.Message
	ts  *topicState
}

func newDelayRing(maxDelay int) *delayRing {
	return &delayRing{buckets: make([][]flEntry, maxDelay+1)}
}

// enqueue parks a deep copy of m until round due. The caller guarantees
// due is within (now, now+maxDelay], so the target bucket cannot still
// hold undrained messages.
func (q *delayRing) enqueue(m proto.Message, ts *topicState, due uint64) {
	i := due % uint64(len(q.buckets))
	q.buckets[i] = append(q.buckets[i], flEntry{msg: m.Clone(), ts: ts})
}

// drain empties the current round's bucket, appending its messages and
// their topic tallies to the retained dispatch buffers.
func (q *delayRing) drain(now uint64, msgs []proto.Message, tally []*topicState) ([]proto.Message, []*topicState) {
	i := now % uint64(len(q.buckets))
	for _, e := range q.buckets[i] {
		msgs = append(msgs, e.msg)
		tally = append(tally, e.ts)
	}
	q.buckets[i] = q.buckets[i][:0]
	return msgs, tally
}
