package stats

import "fmt"

// NetStats counts network-level activity during a run. Every message that
// reaches the network is counted in Sent and in exactly one of Delivered,
// Dropped, ToCrashed, UnknownDest, or DroppedInPartition — or is waiting
// in the delay queue and counted in InFlight — so Sent is always the sum
// of those five outcome counters plus InFlight. TruncatedChase counts
// messages that never reached the network because the same-round response
// cascade hit the maxChase safety valve.
//
// The struct lives here so that every harness which routes messages — the
// sim executors and the pubsub Bus — shares one definition and one
// conservation check.
type NetStats struct {
	Sent        uint64
	Dropped     uint64 // lost to loss-model ε (or first-phase unreliability)
	ToCrashed   uint64 // addressed to a (by arrival time) crashed process
	UnknownDest uint64 // addressed to a PID outside the cluster
	Delivered   uint64
	// DeliveredLate is the subset of Delivered that spent at least one
	// round in the in-flight delay queue before arriving.
	DeliveredLate uint64
	// DroppedInPartition counts messages sent across a link class cut by
	// a scheduled Partition at send time.
	DroppedInPartition uint64
	// InFlight is the number of messages currently parked in the delay
	// queue: already Sent, not yet settled into an outcome counter. At
	// the end of a run it counts deliveries the horizon cut off.
	InFlight uint64
	// TruncatedChase counts messages still queued when a round's response
	// cascade hit the maxChase hop cap and was cut off; they were
	// discarded before any loss or crash filtering.
	TruncatedChase uint64
}

// Conserved checks the conservation invariant: every sent message settled
// into exactly one outcome counter or is still in flight. It returns a
// descriptive error on violation, nil otherwise.
func (s NetStats) Conserved() error {
	sum := s.Delivered + s.Dropped + s.ToCrashed + s.UnknownDest +
		s.DroppedInPartition + s.InFlight
	// A counter above Sent has wrapped below zero, which the sum, taken
	// modulo 2⁶⁴, can hide.
	if max(s.Delivered, s.Dropped, s.ToCrashed, s.UnknownDest, s.DroppedInPartition, s.InFlight) > s.Sent {
		return fmt.Errorf("netstats: a counter exceeds Sent=%d, so it wrapped below zero (%+v)", s.Sent, s)
	}
	if s.Sent != sum {
		return fmt.Errorf(
			"netstats: Sent=%d != Delivered+Dropped+ToCrashed+UnknownDest+DroppedInPartition+InFlight=%d (%+v)",
			s.Sent, sum, s)
	}
	if s.DeliveredLate > s.Delivered {
		return fmt.Errorf("netstats: DeliveredLate=%d > Delivered=%d", s.DeliveredLate, s.Delivered)
	}
	return nil
}

// Merge accumulates o into s. Summing per-topic (or per-shard) counters
// preserves conservation: the invariant is linear.
func (s *NetStats) Merge(o NetStats) {
	s.Sent += o.Sent
	s.Dropped += o.Dropped
	s.ToCrashed += o.ToCrashed
	s.UnknownDest += o.UnknownDest
	s.Delivered += o.Delivered
	s.DeliveredLate += o.DeliveredLate
	s.DroppedInPartition += o.DroppedInPartition
	s.InFlight += o.InFlight
	s.TruncatedChase += o.TruncatedChase
}
