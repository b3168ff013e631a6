package dataflow_test

import (
	"fmt"
	"testing"

	"fpint/internal/dataflow"
)

// TestBitSetEdgeSizes exercises the word-boundary sizes where the packed
// representation switches word counts: 0 (no words), 63/64 (one word,
// full), 65 (spills into a second word).
func TestBitSetEdgeSizes(t *testing.T) {
	for _, n := range []int{0, 63, 64, 65} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := dataflow.NewBitSet(n)
			if got := members(s); len(got) != 0 {
				t.Fatalf("fresh set has members %v", got)
			}
			for i := 0; i < n; i++ {
				s.Set(i)
			}
			if got := len(members(s)); got != n {
				t.Fatalf("full set has %d members, want %d", got, n)
			}
			if n > 0 {
				s.Clear(n - 1)
				if s.Has(n-1) || len(members(s)) != n-1 {
					t.Fatalf("clearing top bit %d failed", n-1)
				}
				s.Set(n - 1)
			}

			// CopyFrom on every size, including zero.
			c := dataflow.NewBitSet(n)
			c.CopyFrom(s)
			if len(members(c)) != n {
				t.Fatal("copy differs from original")
			}

			// Union with a sparse set: change iff n > 0 and the set was
			// not already full (it is full, so never).
			o := dataflow.NewBitSet(n)
			if n > 0 {
				o.Set(0)
				o.Set(n - 1)
			}
			if changed := s.UnionWith(o); changed {
				t.Fatal("union into a full set reported change")
			}
			if changed := o.UnionWith(s); (n > 2) != changed {
				t.Fatalf("union change = %v for n=%d", changed, n)
			}

			// ForEach must visit exactly the members, strictly ordered.
			prev, visits := -1, 0
			s.ForEach(func(i int) {
				if i <= prev || i >= n {
					t.Fatalf("ForEach out of order or range: %d after %d", i, prev)
				}
				prev = i
				visits++
			})
			if visits != n {
				t.Fatalf("ForEach visited %d members, want %d", visits, n)
			}

			// Clearing every member drains the set.
			c.ForEach(c.Clear)
			if got := members(c); len(got) != 0 {
				t.Fatalf("clearing every member left %v", got)
			}
		})
	}
}

// TestLivenessEdgeBlocks covers blocks the usual fixtures never hit:
// instruction-less pass-through blocks and unreachable blocks.
func TestLivenessEdgeBlocks(t *testing.T) {
	const v = 1
	t.Run("empty-pass-through", func(t *testing.T) {
		// entry(def v) → empty → exit(use v): the empty block must
		// transport liveness untouched.
		const entry, empty, exit = 0, 1, 2
		in, out := dataflow.SolveLiveness([][]int{{empty}, {exit}, nil},
			bitSets(2, nil, nil, []int{v}), bitSets(2, []int{v}, nil, nil))
		if !in[empty].Has(v) || !out[empty].Has(v) {
			t.Fatal("empty block does not transport liveness of v")
		}
		if !out[entry].Has(v) {
			t.Fatal("v not live out of its defining block")
		}
		if in[entry].Has(v) {
			t.Fatal("v live into entry despite being defined there")
		}
		if got := members(&out[exit]); len(got) != 0 {
			t.Fatalf("exit block has live-out values %v", got)
		}
	})
	t.Run("unreachable-user", func(t *testing.T) {
		// entry(def v, ret v) plus an orphan block that uses v but has no
		// predecessors: the solver must not propagate its demand anywhere.
		const entry, orphan = 0, 1
		in, out := dataflow.SolveLiveness([][]int{nil, nil},
			bitSets(2, nil, []int{v}), bitSets(2, []int{v}, nil))
		// Every block — reachable or not — gets live sets.
		if len(in) != 2 || len(out) != 2 {
			t.Fatalf("live sets for %d/%d blocks, want 2", len(in), len(out))
		}
		if !in[orphan].Has(v) {
			t.Fatal("orphan's use of v is not live into it")
		}
		// The orphan's demand for v must not leak into reachable code:
		// nothing precedes it, so v is not live out of entry.
		if got := members(&out[entry]); len(got) != 0 {
			t.Fatalf("unreachable use leaked into entry's live-out: %v", got)
		}
		if got := members(&out[orphan]); len(got) != 0 {
			t.Fatalf("orphan block has live-out values %v", got)
		}
	})
}
