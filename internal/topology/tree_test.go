package topology

import "testing"

// TestBinomialTreeBroadcastReachesAll checks the broadcast schedule by
// its contract rather than its bit rule: every round sends only from
// members that already hold the data to members that do not, each
// member sends or receives at most once a round, and after log₂g
// rounds every member holds it. Links must list exactly the senders'
// Link views.
func TestBinomialTreeBroadcastReachesAll(t *testing.T) {
	for _, c := range treeCases() {
		tree := BroadcastTree(c.size, c.root)
		has := make([]bool, c.size)
		has[c.root] = true
		for k := 0; k < tree.Rounds(); k++ {
			busy := make([]bool, c.size)
			tree.Links(k, func(src, dst int) {
				if !has[src] || has[dst] || busy[src] || busy[dst] {
					t.Fatalf("size %d root %d round %d: %d→%d (src has %v, dst has %v)", c.size, c.root, k, src, dst, has[src], has[dst])
				}
				busy[src], busy[dst] = true, true
				if peer, sends, ok := tree.Link(src, k); !ok || !sends || peer != dst {
					t.Fatalf("size %d root %d round %d: Link(%d) = (%d,%v,%v), Links says →%d", c.size, c.root, k, src, peer, sends, ok, dst)
				}
				if peer, sends, ok := tree.Link(dst, k); !ok || sends || peer != src {
					t.Fatalf("size %d root %d round %d: Link(%d) = (%d,%v,%v), Links says ←%d", c.size, c.root, k, dst, peer, sends, ok, src)
				}
			})
			for i, b := range busy {
				if _, _, ok := tree.Link(i, k); ok != b {
					t.Fatalf("size %d root %d round %d: member %d linked %v, in Links %v", c.size, c.root, k, i, ok, b)
				}
				has[i] = has[i] || b
			}
		}
		for i, h := range has {
			if !h {
				t.Fatalf("size %d root %d: member %d never receives", c.size, c.root, i)
			}
		}
		if want, _ := Log2(c.size); tree.Rounds() != want {
			t.Fatalf("size %d: %d rounds, want %d", c.size, tree.Rounds(), want)
		}
	}
}

// TestBinomialTreeReduceIsBroadcastReversed checks that a reduce
// walks the broadcast's links backwards, in the reverse round order,
// so each member sends once, after everything below it has arrived.
func TestBinomialTreeReduceIsBroadcastReversed(t *testing.T) {
	for _, c := range treeCases() {
		bcast, reduce := BroadcastTree(c.size, c.root), ReduceTree(c.size, c.root)
		n := bcast.Rounds()
		for k := 0; k < n; k++ {
			var fwd, back [][2]int
			bcast.Links(n-1-k, func(src, dst int) { fwd = append(fwd, [2]int{dst, src}) })
			reduce.Links(k, func(src, dst int) { back = append(back, [2]int{src, dst}) })
			if len(fwd) != len(back) {
				t.Fatalf("size %d root %d round %d: reduce %v, broadcast reversed %v", c.size, c.root, k, back, fwd)
			}
			for i := range fwd {
				if fwd[i] != back[i] {
					t.Fatalf("size %d root %d round %d: reduce %v, broadcast reversed %v", c.size, c.root, k, back, fwd)
				}
			}
		}
		var extra [][2]int
		reduce.Links(n, func(src, dst int) { extra = append(extra, [2]int{src, dst}) })
		bcast.Links(n, func(src, dst int) { extra = append(extra, [2]int{src, dst}) })
		if len(extra) != 0 {
			t.Fatalf("size %d: links past the last round: %v", c.size, extra)
		}
	}
}

type treeCase struct{ size, root int }

// treeCases are the power-of-two groups up to 16 members, from every
// root.
func treeCases() []treeCase {
	var out []treeCase
	for size := 1; size <= 16; size *= 2 {
		for root := 0; root < size; root++ {
			out = append(out, treeCase{size, root})
		}
	}
	return out
}
