package gpu

import "slices"

// AllocView is the per-session bookkeeping a multi-tenant daemon layers
// over a single device allocator: which allocations a session owns and
// how many bytes of its quota they consume. It performs no device
// operations itself — the daemon pairs every Note* call with the real
// MemAlloc/MemFree — so a view can be discarded without touching the
// device, and the device allocator remains the single source of truth
// for placement.
type AllocView struct {
	quota int64 // 0 = unlimited
	used  int64
	owned map[Ptr]int // ptr -> size
}

// NewAllocView returns an empty view with the given quota in bytes.
// A quota of 0 means unlimited.
func NewAllocView(quota int64) *AllocView {
	return &AllocView{quota: quota, owned: make(map[Ptr]int)}
}

// Quota returns the view's byte quota (0 = unlimited).
func (v *AllocView) Quota() int64 { return v.quota }

// Used returns the bytes currently charged against the quota.
func (v *AllocView) Used() int64 { return v.used }

// Admits reports whether an allocation of n bytes fits under the quota.
func (v *AllocView) Admits(n int) bool {
	return v.quota == 0 || v.used+int64(n) <= v.quota
}

// NoteAlloc records ownership of a fresh allocation.
func (v *AllocView) NoteAlloc(p Ptr, n int) {
	v.owned[p] = n
	v.used += int64(n)
}

// Owns reports whether the view owns the allocation at p.
func (v *AllocView) Owns(p Ptr) bool {
	_, ok := v.owned[p]
	return ok
}

// NoteFree drops ownership of p and returns the bytes credited back to
// the quota (0 if the view did not own p).
func (v *AllocView) NoteFree(p Ptr) int {
	n, ok := v.owned[p]
	if !ok {
		return 0
	}
	delete(v.owned, p)
	v.used -= int64(n)
	return n
}

// Reset empties the view for a new owner with the given quota, keeping its
// table, so a recycled view allocates nothing.
func (v *AllocView) Reset(quota int64) {
	v.quota, v.used = quota, 0
	clear(v.owned)
}

// Ptrs returns the owned pointers in ascending order, so release loops
// are deterministic.
func (v *AllocView) Ptrs() []Ptr {
	out := make([]Ptr, 0, len(v.owned))
	for p := range v.owned {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}
