package sim

import "testing"

// A closed list's free records, scrubbed, and its slab's unused ones go to
// its depot, and the next list on that depot hands them out before it
// makes a slab of its own; a record still out stays out. Under
// DYNACC_POISON=1 nothing goes back.
func TestClosedListHandsItsRecordsToTheNext(t *testing.T) {
	type rec struct{ run int }
	var d Depot[[]*rec]
	a := NewFreeList(&d)
	// Slabs of 1, 2 and 4 records: x, then y and z, then w and three unused.
	x, y, z, w := a.Get(), a.Get(), a.Get(), a.Get()
	for _, r := range []*rec{x, y, z, w} {
		r.run = 1
	}
	a.Put(x)
	a.Put(z)
	a.Close(func(r *rec) { r.run = 0 })

	b := NewFreeList(&d)
	seen := map[*rec]bool{}
	for i := 0; i < 5; i++ {
		r := b.Get()
		if r.run != 0 {
			t.Errorf("record %d from the depot was not scrubbed", i)
		}
		seen[r] = true
	}
	if seen[y] || seen[w] {
		t.Errorf("a record still out came back through the depot")
	}
	if poisoned {
		if seen[x] || seen[z] {
			t.Errorf("DYNACC_POISON=1: a handed-back record came back through the depot")
		}
		return
	}
	if !seen[x] || !seen[z] {
		t.Errorf("the next list did not draw the two records handed back (x %v, z %v)", seen[x], seen[z])
	}
	if _, ok := d.Take(); ok {
		t.Errorf("the depot still holds records after the next list drew all five")
	}
}
