package minimpi

import (
	"encoding/binary"
	"math"
	"sort"

	"dynacc/internal/sim"
)

// Reserved internal tags for collectives. Collective calls on a
// communicator must be made by all ranks in the same order (as in MPI);
// non-overtaking matching then keeps successive collectives separate even
// though they reuse tags. The values travel in socket frames, so a retired
// collective's tag is not reused.
const (
	tagBarrier Tag = -2
	tagBcast   Tag = -3
	tagGather  Tag = -5
)

// BcastTree returns the binomial-tree edges of one virtual rank in a
// broadcast over size ranks rooted at virtual rank 0: the parent it
// receives from (-1 for the root) and the children it forwards to, in
// forwarding order (largest subtree first — each send hands off the
// half of the remaining tree that has the most forwarding left to do).
// Callers with a non-zero root rotate ranks first, as Bcast does; the
// data-plane broadcast of magma uses the same schedule to fan a QR
// panel out daemon-to-daemon, so the wire pattern matches Bcast's.
func BcastTree(size, vrank int) (parent int, children []int) {
	parent = -1
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			parent = vrank - mask
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			children = append(children, vrank+mask)
		}
	}
	return parent, children
}

// Barrier blocks until every rank of the communicator has entered it.
// It uses the dissemination algorithm: ceil(log2 n) rounds of paired
// exchanges.
func (c *Comm) Barrier(p *sim.Proc) {
	n := c.Size()
	if n == 1 {
		return
	}
	for dist := 1; dist < n; dist *= 2 {
		to := (c.rank + dist) % n
		from := (c.rank - dist + n) % n
		sreq := c.isendAnyTag(to, tagBarrier, nil, 1, false)
		rreq := c.irecvAnyTag(from, tagBarrier)
		sreq.Wait(p)
		rreq.Wait(p)
	}
}

// Bcast distributes root's buffer to every rank over a binomial tree and
// returns the received copy (the root returns data unchanged). Callers on
// non-root ranks pass nil.
func (c *Comm) Bcast(p *sim.Proc, root int, data []byte) []byte {
	c.checkRank(root, "Bcast")
	n := c.Size()
	if n == 1 {
		return data
	}
	// Rotate ranks so the root is virtual rank 0, then run the classic
	// binomial tree: receive from the parent at the lowest set bit, then
	// forward to children at every smaller bit position.
	vrank := (c.rank - root + n) % n
	parent, children := BcastTree(n, vrank)
	if parent >= 0 {
		data, _ = c.irecvAnyTag((parent+root)%n, tagBcast).Wait(p)
	}
	for _, child := range children {
		c.isendAnyTag((child+root)%n, tagBcast, data, len(data), false).Wait(p)
	}
	return data
}

// Gather collects every rank's contribution at the root; the root returns
// the slices indexed by rank, others return nil. Contributions may have
// different sizes.
func (c *Comm) Gather(p *sim.Proc, root int, contrib []byte) [][]byte {
	c.checkRank(root, "Gather")
	if c.rank != root {
		c.isendAnyTag(root, tagGather, contrib, len(contrib), false).Wait(p)
		return nil
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), contrib...)
	reqs := make([]*Request, c.Size())
	for r := range reqs {
		if r != root {
			reqs[r] = c.irecvAnyTag(r, tagGather)
		}
	}
	for r, req := range reqs {
		if req != nil {
			out[r], _ = req.Wait(p)
		}
	}
	return out
}

// Allgather collects every rank's contribution everywhere: Gather at rank
// 0 followed by a broadcast of the concatenation.
func (c *Comm) Allgather(p *sim.Proc, contrib []byte) [][]byte {
	parts := c.Gather(p, 0, contrib)
	var blob []byte
	if c.rank == 0 {
		blob = packSlices(parts)
	}
	blob = c.Bcast(p, 0, blob)
	return unpackSlices(blob)
}

// packSlices/unpackSlices frame a [][]byte as one buffer for broadcast.
func packSlices(parts [][]byte) []byte {
	size := 4
	for _, p := range parts {
		size += 4 + len(p)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	for _, p := range parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

func unpackSlices(buf []byte) [][]byte {
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	out := make([][]byte, n)
	for i := range out {
		ln := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		out[i] = append([]byte(nil), buf[:ln]...)
		buf = buf[ln:]
	}
	return out
}

// F64Bytes encodes a float64 slice as a payload.
func F64Bytes(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// BytesF64 decodes a payload into float64 values.
func BytesF64(buf []byte) []float64 {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// Split partitions the communicator: ranks passing the same color form a
// new communicator, ordered by (key, old rank). Every rank must call
// Split; the call synchronizes like a collective. A negative color
// returns nil (the rank opts out), mirroring MPI_UNDEFINED.
func (c *Comm) Split(p *sim.Proc, color, key int) *Comm {
	// Exchange (color, key) so every rank can compute every group.
	mine := make([]byte, 12)
	binary.LittleEndian.PutUint32(mine[0:], uint32(int32(color)))
	binary.LittleEndian.PutUint32(mine[4:], uint32(int32(key)))
	binary.LittleEndian.PutUint32(mine[8:], uint32(c.rank))
	all := c.Allgather(p, mine)

	gen := c.splitGen
	c.splitGen++
	if color < 0 {
		return nil
	}
	type member struct{ color, key, rank int }
	var members []member
	for _, b := range all {
		m := member{
			color: int(int32(binary.LittleEndian.Uint32(b[0:]))),
			key:   int(int32(binary.LittleEndian.Uint32(b[4:]))),
			rank:  int(int32(binary.LittleEndian.Uint32(b[8:]))),
		}
		if m.color == color {
			members = append(members, m)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	group := make([]int, len(members))
	myNew := -1
	for i, m := range members {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			myNew = i
		}
	}
	// All members arrive at the same context through the world's memo
	// table; the cooperative scheduler makes the lazy allocation safe.
	w := c.world
	k := splitKey{parentCtx: c.ctx, gen: gen, color: color}
	ctx, ok := w.splitCtx[k]
	if !ok {
		ctx = w.nextCtx
		w.nextCtx++
		w.splitCtx[k] = ctx
	}
	return &Comm{world: w, ctx: ctx, rank: myNew, group: group}
}
