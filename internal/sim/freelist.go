package sim

// maxSlab caps the records one slab refill makes.
const maxSlab = 64

// FreeList recycles records of type T, last in first out: Get hands out the
// record Put most recently. With none given back, Get takes the next record
// of a slab, a block of zeroed records made by one allocation; each slab
// doubles the last, from one record up to maxSlab, so a list that only ever
// needs one record makes one and a fresh simulation pays its working set in
// a few dozen allocations rather than one per record. A caller resets a
// record before Put and never touches it again; a record that is never Put
// (a retired one, say) is never handed out again, whichever slab holds it.
// The zero FreeList is empty and ready to use. Like everything else in a
// Simulation it is not safe for concurrent use.
type FreeList[T any] struct {
	free []*T // records given back, newest last
	slab []T  // the newest slab's records not yet handed out
	n    int  // the newest slab's size
}

// Get returns the record Put most recently, or a zero one.
func (l *FreeList[T]) Get() *T {
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
