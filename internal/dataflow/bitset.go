// Package dataflow provides the dataflow analyses the compiler needs:
// reaching definitions (used to build the register dependence graph) and
// virtual-register liveness (SolveLiveness, used by the register
// allocator once per register class).
package dataflow

import "math/bits"

// BitSet is a fixed-capacity bit set.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns a set capable of holding values [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// NewBitSets returns k empty sets of capacity n that share one backing
// array, so a per-block family of sets costs two allocations.
func NewBitSets(k, n int) []BitSet {
	w := (n + 63) / 64
	words := make([]uint64, k*w)
	sets := make([]BitSet, k)
	for i := range sets {
		sets[i] = BitSet{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return sets
}

// Set adds i to the set.
func (s *BitSet) Set(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Clear removes i from the set.
func (s *BitSet) Clear(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is in the set.
func (s *BitSet) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// CopyFrom overwrites the set with o's contents.
func (s *BitSet) CopyFrom(o *BitSet) { copy(s.words, o.words) }

// UnionWith adds all of o's members; reports whether the set changed.
func (s *BitSet) UnionWith(o *BitSet) bool {
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// ForEach calls f for every member in increasing order.
func (s *BitSet) ForEach(f func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := trailingZeros(w)
			f(wi*64 + b)
			w &= w - 1
		}
	}
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
