package gpu

import (
	"fmt"
	"os"
	"sort"
)

// Ptr is a device-memory address. The zero Ptr is the null pointer.
type Ptr uint64

// IsNull reports whether p is the null device pointer.
func (p Ptr) IsNull() bool { return p == 0 }

// allocAlign is the allocation granularity, matching CUDA's 256-byte
// alignment guarantee.
const allocAlign = 256

// poison is the chaos guard DYNACC_POISON=1 turns on across the tree (see
// minimpi): here freed device ranges and a retired slab are scribbled with
// poisonByte, and a launch's arena reads NaN once the launch is over, so a
// holder of memory it no longer owns reads garbage instead of passing by luck.
var poison = os.Getenv("DYNACC_POISON") == "1"

const poisonByte = 0xDB

// region is a contiguous span of device memory.
type region struct {
	off  uint64
	size uint64
}

// allocator is a first-fit device-memory allocator with free-list
// coalescing. Address 0 is reserved so that Ptr(0) means null. In execute
// mode device memory is one slab and a Ptr an offset into it, as on real
// hardware: a freed range is reused by the next allocation that fits, which
// is all the recycling there is, and it is zeroed when handed out again.
type allocator struct {
	total uint64
	used  uint64
	free  []region       // sorted by offset, pairwise non-adjacent
	live  map[Ptr]uint64 // allocation -> requested size
	mem   []byte         // execute mode: the slab, grown to the highest allocation's end
	exec  bool
}

func newAllocator(total int64, exec bool) *allocator {
	a := &allocator{total: uint64(total), live: make(map[Ptr]uint64), exec: exec}
	a.reset()
	return a
}

// errOOM mirrors CUDA_ERROR_OUT_OF_MEMORY.
type oomError struct{ want, free uint64 }

func (e *oomError) Error() string {
	return fmt.Sprintf("gpu: out of device memory: want %d bytes, %d free", e.want, e.free)
}

// IsOOM reports whether err is a device out-of-memory failure.
func IsOOM(err error) bool {
	_, ok := err.(*oomError)
	return ok
}

func roundUp(n uint64) uint64 {
	return (n + allocAlign - 1) &^ (allocAlign - 1)
}

// alloc reserves n bytes (n > 0) and returns the device pointer.
func (a *allocator) alloc(n int) (Ptr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("gpu: allocation size must be positive, got %d", n)
	}
	want := roundUp(uint64(n))
	for i, r := range a.free {
		if r.size < want {
			continue
		}
		p := Ptr(r.off)
		if r.size == want {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = region{off: r.off + want, size: r.size - want}
		}
		a.live[p] = uint64(n)
		a.used += want
		if a.exec {
			a.grow(int(p) + n)
			clear(a.at(p, 0, n))
		}
		return p, nil
	}
	return 0, &oomError{want: want, free: a.total - allocAlign - a.used}
}

// grow makes the slab reach end, at least doubling it; the live ranges move
// over and the retired slab is scribbled.
func (a *allocator) grow(end int) {
	if end <= len(a.mem) {
		return
	}
	mem := make([]byte, min(max(end, 2*len(a.mem)), int(a.total)))
	copy(mem, a.mem)
	scribble(a.mem)
	a.mem = mem
}

func scribble(b []byte) {
	if poison {
		FillBytes(b, poisonByte)
	}
}

// freePtr releases an allocation made by alloc.
func (a *allocator) freePtr(p Ptr) error {
	n, ok := a.live[p]
	if !ok {
		return fmt.Errorf("gpu: free of invalid device pointer %#x", uint64(p))
	}
	delete(a.live, p)
	if a.exec {
		scribble(a.at(p, 0, int(n)))
	}
	size := roundUp(n)
	a.used -= size
	// Insert into the sorted free list and coalesce with neighbours.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > uint64(p) })
	a.free = append(a.free, region{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = region{off: uint64(p), size: size}
	a.coalesce(i)
	return nil
}

func (a *allocator) coalesce(i int) {
	// Merge with successor first, then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// check validates a (p+off, n) access against the live allocation's
// requested size, like a device segfault check: the one bound both modes
// check, before any work is charged.
func (a *allocator) check(p Ptr, off, n int) error {
	if n < 0 || off < 0 {
		return fmt.Errorf("gpu: negative range [%d,%d)", off, off+n)
	}
	size, ok := a.live[p]
	if !ok {
		return fmt.Errorf("gpu: invalid device pointer %#x", uint64(p))
	}
	if uint64(off+n) > size {
		return fmt.Errorf("gpu: access [%d,%d) beyond allocation of %d bytes", off, off+n, size)
	}
	return nil
}

// at is the slab's [p+off, p+off+n), capped there: the caller checked it.
func (a *allocator) at(p Ptr, off, n int) []byte {
	lo := int(p) + off
	return a.mem[lo : lo+n : lo+n]
}

// slice resolves (p+off, n) to the backing bytes of the containing
// allocation. Execute mode only.
func (a *allocator) slice(p Ptr, off, n int) ([]byte, error) {
	if !a.exec {
		return nil, fmt.Errorf("gpu: data access in model mode")
	}
	if err := a.check(p, off, n); err != nil {
		return nil, err
	}
	return a.at(p, off, n), nil
}

// reset releases every live allocation, returning the allocator to its
// initial state; the slab stays, scribbled.
func (a *allocator) reset() {
	a.free = append(a.free[:0], region{off: allocAlign, size: a.total - allocAlign})
	a.used = 0
	clear(a.live)
	scribble(a.mem)
}
