// Package membership implements lpbcast's gossip-based partial-view
// membership (§3 of the paper) as a separable layer, as argued in §6.2:
// every process keeps a bounded random view of the system, updated purely
// from subscriptions and unsubscriptions piggybacked on gossip messages.
//
// Two truncation policies are provided: the paper's default uniform random
// truncation (Fig. 1(a)) and the weighted heuristic of §6.1, which tracks
// per-entry "awareness" weights and preferentially evicts well-known
// processes to push the in-degree distribution towards uniform.
//
// The package also provides the view-graph analyses used by the evaluation:
// weakly-connected-component counting (the paper's partition notion, §4.4)
// and in-degree statistics (the uniformity discussion of §6.1).
package membership

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/buffer"
	"repro/internal/idmap"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Entry is a view member and its awareness weight, as Entries reports them.
// The weight counts how often the process was (re-)announced to us — a
// proxy for "how well known" it is (§6.1). Uniform policy ignores weights.
type Entry struct {
	Process proto.ProcessID
	Weight  int
}

// View is a bounded, duplicate-free set of processes, a list of ids of 4
// bytes each. It never contains its owner, and it keeps no index: a list at
// its high-water capacity never reallocates under the per-message add/evict
// churn, which keeps large simulations allocation-free in steady state. Its
// owner, Manager, answers the membership questions of gossip reception from
// an index of view and subs it builds for each received gossip (pidIndex);
// the exported Add, Remove, Weight and Bump scan the list. Truncation needs no
// candidate lists: it counts the evictable entries, draws and walks to the
// victim.
//
// Awareness weights live in a side list parallel to the ids, which exists
// only where a weight can differ from 1: the Weighted policy makes it at
// construction, a Bump on first use. Without it every entry weighs 1, so a
// Uniform view carries ids alone.
//
// View is not safe for concurrent use.
type View struct {
	owner   proto.ProcessID
	list    []proto.ProcessID
	weights []int // parallel to list; nil while every weight is 1

	removed  []proto.ProcessID // reused by TruncateUniform/TruncateWeighted (return value)
	keepBits idmap.Bitset      // reused by truncate (kept positions), prioritary sets only
}

// NewView creates an empty view owned by owner. The owner can never be
// added to its own view (§4.1, footnote 8).
func NewView(owner proto.ProcessID) *View {
	return &View{owner: owner}
}

// Init prepares a zero-value view in place — the allocation-free sibling
// of NewView for views embedded in pooled blocks.
func (v *View) Init(owner proto.ProcessID) { v.owner = owner }

// Grow pre-allocates the list for at least n entries. A view is full from
// the first round and every reception appends to it, so sizing it to its
// transient bound (l plus one gossip's subscription inflow) at construction
// keeps the per-message ApplySubs/truncate path from ever reallocating.
func (v *View) Grow(n int) { v.GrowIn(n, nil) }

// GrowIn is Grow with the list drawn from a pooled arena (a nil p falls
// back to the heap), so pre-sizing thousands of per-process views costs
// amortized chunk allocations instead of one heap allocation each.
func (v *View) GrowIn(n int, p *Pools) {
	if cap(v.list) >= n {
		return
	}
	var list []proto.ProcessID
	if p != nil {
		list = p.PIDs.Make(n)[:len(v.list)]
	} else {
		list = make([]proto.ProcessID, len(v.list), n)
	}
	copy(list, v.list)
	v.list = list
}

// weigh makes the weights exist, every present entry at 1, with room for
// the list's capacity: the Weighted policy's construction and a first Bump.
func (v *View) weigh() {
	v.weights = make([]int, len(v.list), cap(v.list))
	for i := range v.weights {
		v.weights[i] = 1
	}
}

// weight returns the weight of the entry at position i.
func (v *View) weight(i int) int {
	if v.weights == nil {
		return 1
	}
	return v.weights[i]
}

// indexOf returns p's position in the list, or -1.
func (v *View) indexOf(p proto.ProcessID) int { return slices.Index(v.list, p) }

// push appends p, absent and not the owner, at weight 1.
func (v *View) push(p proto.ProcessID) {
	v.list = append(v.list, p)
	if v.weights != nil {
		v.weights = append(v.weights, 1)
	}
}

// Add inserts p with weight 1, reporting whether it was added. Adding the
// owner or a duplicate is a no-op returning false.
func (v *View) Add(p proto.ProcessID) bool {
	if p == v.owner || p == proto.NilProcess {
		return false
	}
	if v.indexOf(p) >= 0 {
		return false
	}
	v.push(p)
	return true
}

// Remove deletes p, reporting whether it was present.
func (v *View) Remove(p proto.ProcessID) bool {
	i := v.indexOf(p)
	if i >= 0 {
		v.removeAt(i)
	}
	return i >= 0
}

// Len returns the number of entries.
func (v *View) Len() int { return len(v.list) }

// Processes returns a copy of the member identifiers in internal order.
func (v *View) Processes() []proto.ProcessID {
	return append([]proto.ProcessID(nil), v.list...)
}

// Entries returns the entries with their weights, in internal order.
func (v *View) Entries() []Entry {
	if len(v.list) == 0 {
		return nil
	}
	out := make([]Entry, len(v.list))
	for i, p := range v.list {
		out[i] = Entry{Process: p, Weight: v.weight(i)}
	}
	return out
}

// Weight returns p's awareness weight (0 if absent).
func (v *View) Weight(p proto.ProcessID) int {
	if i := v.indexOf(p); i >= 0 {
		return v.weight(i)
	}
	return 0
}

// Bump increments p's awareness weight, reporting whether p was present.
// Called when an incoming subs list re-announces a process we already know
// (§6.1: "the weight of pj is increased"). A view without weights makes
// them here.
func (v *View) Bump(p proto.ProcessID) bool {
	i := v.indexOf(p)
	if i >= 0 {
		v.bumpAt(i)
	}
	return i >= 0
}

// bumpAt increments the weight of the entry at position i.
func (v *View) bumpAt(i int) {
	if v.weights == nil {
		v.weigh()
	}
	v.weights[i]++
}

// pickRoom is the stack room AppendPick samples into: a fanout, not a view.
// Past it the sample spills to the heap, where rng.SampleAppend keeps its
// bookkeeping for a k that large anyway.
const pickRoom = 16

// AppendPick appends k distinct members chosen uniformly at random — the
// gossip target selection of Fig. 1(b) — to dst; if k >= Len() all members
// are appended in random order. It samples the indices into room on its own
// stack so the steady-state emission path does not allocate.
func (v *View) AppendPick(dst []proto.ProcessID, k int, r *rng.Source) []proto.ProcessID {
	if k <= 0 || len(v.list) == 0 {
		return dst
	}
	var room [pickRoom]int
	for _, j := range r.SampleAppend(room[:0], len(v.list), k) {
		dst = append(dst, v.list[j])
	}
	return dst
}

// removeAt deletes the entry at position i, moving the last into its place,
// and returns its id.
func (v *View) removeAt(i int) proto.ProcessID {
	p, last := v.list[i], len(v.list)-1
	v.list[i] = v.list[last]
	v.list = v.list[:last]
	if v.weights != nil {
		v.weights[i] = v.weights[last]
		v.weights = v.weights[:last]
	}
	return p
}

// TruncateUniform removes uniformly chosen entries until Len() <= max,
// never evicting processes in keep (the prioritary set, usually empty or
// a handful of ids). Removed processes are returned (they stay eligible
// for forwarding via subs, per Fig. 1(a) phase 2). The returned slice is
// scratch reused by the next truncation: consume it before calling any
// Truncate* method again, and do not retain it.
func (v *View) TruncateUniform(max int, keep []proto.ProcessID, r *rng.Source) []proto.ProcessID {
	v.removed = v.removed[:0]
	v.truncate(max, keep, false, r, nil, pidIndex{})
	return v.removed
}

// TruncateWeighted removes the highest-weight entries first (ties broken
// uniformly) until Len() <= max — the §6.1 heuristic: well-known entries
// "are more probable of being known by many other processes" and are
// evicted first. Entries in keep are never evicted. The returned slice
// follows TruncateUniform's scratch-reuse contract.
func (v *View) TruncateWeighted(max int, keep []proto.ProcessID, r *rng.Source) []proto.ProcessID {
	v.removed = v.removed[:0]
	v.truncate(max, keep, true, r, nil, pidIndex{})
	return v.removed
}

// truncate repeatedly evicts a victim among non-kept entries — uniformly,
// or the highest-weight entry with uniform tie-breaking when weighted is
// set. If every entry is protected by keep, the view is left over-full
// rather than evicting a prioritary process. Each eviction counts its
// candidates, draws once among them and, where a kept or lighter entry can
// stand in the way, walks to the drawn candidate in ascending position
// order: the draws are those of enumerating the candidates into a list and
// indexing it (the draw-identity contract, docs/ARCHITECTURE.md), without
// the list. Nothing here allocates: kept positions are marked in a bitset
// retained on the View and follow the swap-removals by a bit move.
//
// A uniform draw's bound, the number of candidates, falls by one an eviction
// whatever is evicted, so uniform draws are taken first, 32 at a time, and
// the evictions follow (draws before moves); a weighted bound depends on the
// weights the last eviction left, so weighted draws alternate with them.
//
// An evictee goes straight into subs, the owner's forwarding buffer, unless
// the index x shows it there (Fig. 1(a): it stays "eligible for being
// forwarded"); that draws nothing. x is read, not updated: nothing reads it
// after. The exported forms pass no subs and no index and collect the
// evictees in the slice they return, which only they ever grow.
func (v *View) truncate(max int, keep []proto.ProcessID, weighted bool, r *rng.Source, subs *buffer.PIDList, x pidIndex) {
	if max < 0 {
		max = 0
	}
	kept := 0
	if len(v.list) > max && len(keep) > 0 {
		v.keepBits.Clear()
		v.keepBits.Grow(len(v.list))
		for i := range v.list {
			for _, k := range keep {
				if v.list[i] == k {
					v.keepBits.Set(i)
					kept++
					break
				}
			}
		}
	}
	var draws [32]int
	for len(v.list) > max {
		n, best := len(v.list)-kept, 0
		k := min(n, len(v.list)-max, len(draws))
		if weighted {
			n = 0
			for i := range v.list {
				if kept > 0 && v.keepBits.Get(i) {
					continue
				}
				switch w := v.weight(i); {
				case n == 0 || w > best:
					best, n = w, 1
				case w == best:
					n++
				}
			}
			k = min(n, 1)
		}
		if k == 0 {
			break
		}
		for j := range draws[:k] {
			draws[j] = r.Intn(n - j)
		}
		for _, victim := range draws[:k] {
			if weighted || kept > 0 {
				c := victim
				for victim = 0; ; victim++ {
					if kept > 0 && v.keepBits.Get(victim) || weighted && v.weight(victim) != best {
						continue
					}
					if c--; c < 0 {
						break
					}
				}
			}
			if kept > 0 {
				v.keepBits.Move(len(v.list)-1, victim)
			}
			if p := v.removeAt(victim); subs != nil {
				subs.PushUnless(p, *x.slot(p)&inSubs != 0)
			} else {
				v.removed = append(v.removed, p)
			}
		}
	}
}

// SortedProcesses returns member identifiers in ascending order — for
// deterministic displays and tests.
func (v *View) SortedProcesses() []proto.ProcessID {
	ps := v.Processes()
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// String implements fmt.Stringer.
func (v *View) String() string {
	return fmt.Sprintf("view(%s)%v", v.owner, v.SortedProcesses())
}
