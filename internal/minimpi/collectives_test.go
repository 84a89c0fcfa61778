package minimpi

import (
	"bytes"
	"testing"

	"dynacc/internal/sim"
)

// TestBcastTreeShape checks the binomial-tree edges BcastTree reports
// are a consistent spanning tree for every size up to 17 ranks: each
// non-root has exactly the parent that lists it as a child, the root
// has none, and the children come in decreasing-subtree order.
func TestBcastTreeShape(t *testing.T) {
	for size := 1; size <= 17; size++ {
		childOf := make(map[int]int) // child -> parent per the parents' lists
		for v := 0; v < size; v++ {
			_, children := BcastTree(size, v)
			prev := size
			for _, c := range children {
				if c <= v || c >= size {
					t.Fatalf("size=%d: rank %d lists child %d out of range", size, v, c)
				}
				if c >= prev {
					t.Errorf("size=%d: rank %d children %v not in decreasing order", size, v, children)
				}
				prev = c
				if old, dup := childOf[c]; dup {
					t.Fatalf("size=%d: rank %d claimed by parents %d and %d", size, c, old, v)
				}
				childOf[c] = v
			}
		}
		for v := 0; v < size; v++ {
			parent, _ := BcastTree(size, v)
			if v == 0 {
				if parent != -1 {
					t.Errorf("size=%d: root has parent %d", size, parent)
				}
				continue
			}
			if childOf[v] != parent {
				t.Errorf("size=%d: rank %d has parent %d but is listed under %d",
					size, v, parent, childOf[v])
			}
		}
		if len(childOf) != size-1 {
			t.Errorf("size=%d: tree covers %d non-roots, want %d", size, len(childOf), size-1)
		}
	}
}

// TestBcastvMatchesLinearBcast runs the tree Bcast, with a payload whose
// length the receivers do not know in advance, against a linear
// root-sends-to-everyone reference on the same communicator for every
// world size 1..17 and asserts each rank receives byte-identical data
// from both. This pins the tree schedule to the semantics of the naive
// broadcast it replaces.
func TestBcastvMatchesLinearBcast(t *testing.T) {
	for n := 1; n <= 17; n++ {
		for _, root := range []int{0, n / 2, n - 1} {
			payload := make([]byte, 300+31*n+root)
			for i := range payload {
				payload[i] = byte(i*7 + n + root)
			}
			runWorld(t, n, fastNet(), func(p *sim.Proc, c *Comm) {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				tree := c.Bcast(p, root, in)

				// Linear reference: the root sends its buffer directly to
				// every other rank, point to point.
				var linear []byte
				if c.Rank() == root {
					linear = payload
					for r := 0; r < n; r++ {
						if r != root {
							c.Send(p, r, 99, payload)
						}
					}
				} else {
					linear, _ = c.Recv(p, root, 99)
				}

				if !bytes.Equal(tree, linear) {
					t.Errorf("n=%d root=%d rank=%d: tree bcast differs from linear (%d vs %d bytes)",
						n, root, c.Rank(), len(tree), len(linear))
				}
				if !bytes.Equal(tree, payload) {
					t.Errorf("n=%d root=%d rank=%d: tree bcast corrupted payload", n, root, c.Rank())
				}
			})
		}
	}
}

// TestBcastvZeroAndLarge covers Bcast at the degenerate and the
// multi-segment payload sizes the QR panel broadcast exercises.
func TestBcastvZeroAndLarge(t *testing.T) {
	for _, size := range []int{0, 1, 64 * 1024} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i % 251)
		}
		runWorld(t, 6, fastNet(), func(p *sim.Proc, c *Comm) {
			var in []byte
			if c.Rank() == 2 {
				in = payload
			}
			out := c.Bcast(p, 2, in)
			if !bytes.Equal(out, payload) {
				t.Errorf("size=%d rank=%d: got %d bytes", size, c.Rank(), len(out))
			}
		})
	}
}
