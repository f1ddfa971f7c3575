package idmap_test

import (
	"fmt"

	"repro/internal/idmap"
	"repro/internal/proto"
)

// A Table turns sparse wire identities into dense array indices, and
// recycles indices when processes leave so downstream tables stay sized
// by the live population.
func ExampleTable() {
	var t idmap.Table
	t.Reserve(proto.ProcessID(100), 3) // one backing allocation up front

	a := t.Add(proto.ProcessID(7))
	b := t.Add(proto.ProcessID(42))
	fmt.Println(a, b, t.Len())

	// Key hot per-process state on the dense index, not the id.
	state := make([]string, t.Len()) // nothing released yet: every index is below Len
	state[a] = "seen"

	t.Release(proto.ProcessID(7))
	c := t.Add(proto.ProcessID(99)) // recycles index 0
	ix, ok := t.Lookup(proto.ProcessID(99))
	fmt.Println(c, ix, ok, t.ID(c))
	// Output:
	// 0 1 2
	// 0 0 true p99
}
