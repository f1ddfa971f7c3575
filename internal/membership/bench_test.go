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
