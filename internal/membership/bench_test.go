package membership

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// BenchmarkApplySubs times phase 2 of gossip reception at the paper's
// bounds (l=15, 16 subscriptions per gossip) on its two extremes: ids drawn
// from 25 000 processes, so that nearly every one is new to the view and
// is appended, buffered and evicted again, and ids drawn from a 20-member
// group, so that nearly every one is found. cmd/lpbcast-bench carries the
// same two as its membership/merge cells.
func BenchmarkApplySubs(b *testing.B) {
	for _, c := range []struct {
		name     string
		universe int
	}{{"absent-heavy", 25_000}, {"present-heavy", 20}} {
		b.Run(c.name, func(b *testing.B) {
			gen := rng.New(7)
			m, err := NewManager(1, DefaultConfig(), gen.Split())
			if err != nil {
				b.Fatal(err)
			}
			gossips := make([][]proto.ProcessID, 64)
			for i := range gossips {
				gossips[i] = make([]proto.ProcessID, 16)
				for j := range gossips[i] {
					gossips[i][j] = proto.ProcessID(1 + gen.Intn(c.universe))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ApplySubs(gossips[i%len(gossips)])
			}
		})
	}
}

// BenchmarkApplyUnsubs times phase 1 of gossip reception at the paper's
// bounds (l=15, |unSubs|m = 15, 15 unsubscriptions per gossip, each stamped
// with the op's own time so that none is obsolete) on the same two
// extremes: ids drawn from 25 000 processes, so that nearly every one is new
// to unSubs, is appended and evicted again, and ids drawn from a 20-member
// group, so that nearly every one refreshes a buffered unsubscription. The
// view and subs are kept full from other processes. cmd/lpbcast-bench
// carries the same two as its membership/unsub-merge cells.
func BenchmarkApplyUnsubs(b *testing.B) {
	for _, c := range []struct {
		name     string
		universe int
	}{{"absent-heavy", 25_000}, {"present-heavy", 20}} {
		b.Run(c.name, func(b *testing.B) {
			gen := rng.New(7)
			m, err := NewManager(1, DefaultConfig(), gen.Split())
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]proto.ProcessID, 64*16)
			for i := range ids {
				ids[i] = proto.ProcessID(1 + gen.Intn(c.universe))
			}
			members := make([]proto.ProcessID, 30)
			for i := range members {
				members[i] = proto.ProcessID(30_000 + gen.Intn(25_000))
			}
			m.ApplySubs(members)
			unsubs := make([]proto.Unsubscription, 15)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gossip := ids[i%64*16:][:16]
				for j := range unsubs {
					unsubs[j] = proto.Unsubscription{Process: 1 + gossip[j], Stamp: uint64(i)}
				}
				m.ApplyUnsubs(unsubs, uint64(i))
			}
		})
	}
}

// BenchmarkSeed times the join-time merge of l = 15 distinct ids, drawn
// from 25 000 processes, into an empty view (emptied again between ops,
// inside the timing). It seeds one manager, which stays in cache; a
// cluster's build seeds each of n managers once, out of cache.
func BenchmarkSeed(b *testing.B) {
	gen := rng.New(7)
	m, err := NewManager(1, DefaultConfig(), gen.Split())
	if err != nil {
		b.Fatal(err)
	}
	views := make([][]proto.ProcessID, 64)
	for i := range views {
		for _, k := range gen.Sample(25_000, m.cfg.MaxView) {
			views[i] = append(views[i], proto.ProcessID(2+k)) // neither nil nor the owner
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.view.list = m.view.list[:0]
		m.Seed(views[i%len(views)])
	}
}
