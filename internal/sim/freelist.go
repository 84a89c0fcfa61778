package sim

import (
	"os"
	"sync"
	"unsafe"
)

// maxSlab caps the records one slab refill makes.
const maxSlab = 64

// FreeList recycles records of type T, last in first out: Get hands out the
// record Put most recently. With none given back, Get draws the records a
// finished run left in the list's Depot, if it has one, and failing that
// takes the next record of a slab, a block of zeroed records made by one
// allocation; each slab doubles the last, from one record up to maxSlab, so
// a list that only ever needs one record makes one and a fresh simulation
// pays its working set in a few dozen allocations rather than one per
// record. A caller resets a record before Put and never touches it again; a
// record that is never Put (a retired one, say) is never handed out again,
// whichever slab holds it. The zero FreeList is empty, has no depot and is
// ready to use. Like everything else in a Simulation it is not safe for
// concurrent use.
type FreeList[T any] struct {
	depot *Depot[[]*T]
	free  []*T // records given back, newest last
	slab  []T  // the newest slab's records not yet handed out
	n     int  // the newest slab's size
}

// NewFreeList returns an empty list that draws from, and at Close gives
// back to, d.
func NewFreeList[T any](d *Depot[[]*T]) FreeList[T] { return FreeList[T]{depot: d} }

// Get returns the record Put most recently, or a zero one.
func (l *FreeList[T]) Get() *T {
	if len(l.free) == 0 && len(l.slab) == 0 && l.depot != nil {
		if recs, ok := l.depot.Take(); ok {
			l.free = recs
		}
	}
	if k := len(l.free); k > 0 {
		r := l.free[k-1]
		l.free = l.free[:k-1]
		return r
	}
	if len(l.slab) == 0 {
		l.n = min(max(2*l.n, 1), maxSlab)
		l.slab = make([]T, l.n)
	}
	r := &l.slab[0]
	l.slab = l.slab[1:]
	return r
}

// Put gives r back for a later Get.
func (l *FreeList[T]) Put(r *T) { l.free = append(l.free, r) }

// Close ends the list's run: its free records, each passed through scrub
// (if not nil) to drop what ties it to this run, and its slab's unused ones
// go to the depot, and the list is left empty. A record still out stays
// with whoever holds it.
func (l *FreeList[T]) Close(scrub func(*T)) {
	if l.depot == nil {
		return
	}
	for i := range l.slab {
		l.free = append(l.free, &l.slab[i])
	}
	if scrub != nil {
		for _, r := range l.free {
			scrub(r)
		}
	}
	var zero T
	if len(l.free) > 0 {
		l.depot.Put(l.free, len(l.free)*int(unsafe.Sizeof(zero)))
	}
	l.free, l.slab, l.n = nil, nil, 0
}

// Depot keeps what finished runs hand back — a free list's records, a reply
// cache's ring — for the runs after them, on any goroutine: one depot per
// kind serves the OS process, as its idle workers and payload buffers do.
// The zero Depot is empty and ready; it is safe for concurrent use. Every
// depot together retains at most maxDepotBytes, and under DYNACC_POISON=1,
// which retires what a run hands back, nothing at all.
type Depot[T any] struct {
	items []T
	bytes []int
}

// maxDepotBytes bounds what the depots retain together, by the weight each
// Put states; beyond it a handed-back item is left to the garbage
// collector. It is several times the largest run's records in the tree.
const maxDepotBytes = 64 << 20

var (
	depotMu    sync.Mutex
	depotBytes int // retained by every Depot
)

var poisoned = os.Getenv("DYNACC_POISON") == "1"

// Put keeps v, which weighs bytes, for a later take, if the budget allows.
func (d *Depot[T]) Put(v T, bytes int) {
	if poisoned {
		return
	}
	depotMu.Lock()
	if depotBytes+bytes <= maxDepotBytes {
		d.items = append(d.items, v)
		d.bytes = append(d.bytes, bytes)
		depotBytes += bytes
	}
	depotMu.Unlock()
}

// Take removes and returns the item Put most recently; ok is false when
// the depot is empty.
func (d *Depot[T]) Take() (v T, ok bool) {
	depotMu.Lock()
	if k := len(d.items) - 1; k >= 0 {
		v, ok = d.items[k], true
		var zero T
		d.items[k] = zero
		depotBytes -= d.bytes[k]
		d.items, d.bytes = d.items[:k], d.bytes[:k]
	}
	depotMu.Unlock()
	return v, ok
}
