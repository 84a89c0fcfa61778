package minimpi

import (
	"sync"
	"testing"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

func poolWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(sim.New(), 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSizeClasses pins the class arithmetic the pool's correctness rests
// on: a class covers the request, wastes under a quarter of it (past the
// 64-byte floor), and is its own class — so a buffer GetBuf made is filed
// by PutBuf where the next GetBuf of that size looks.
func TestSizeClasses(t *testing.T) {
	for n := 1; n <= 1<<16; n++ {
		c := sizeClass(n)
		if c < n || (n > 64 && (c-n)*4 >= n) || sizeClass(c) != c {
			t.Fatalf("sizeClass(%d) = %d (its own class: %d)", n, c, sizeClass(c))
		}
	}
	for _, n := range []int{1<<20 - 1, 1 << 20, 1<<20 + 1, 16<<20 + 5, 1<<40 + 1} {
		if c := sizeClass(n); c < n || (c-n)*4 >= n || sizeClass(c) != c {
			t.Fatalf("sizeClass(%d) = %d", n, c)
		}
	}
}

// TestPoolReusesWithinClass checks the recycling contract: a returned
// buffer serves the next request of its class at the requested length,
// and a foreign buffer whose capacity is no class size is dropped rather
// than filed where a larger request could find it.
func TestPoolReusesWithinClass(t *testing.T) {
	w := poolWorld(t)
	a := w.GetBuf(3000)
	w.PutBuf(a)
	if b := w.GetBuf(3072); len(b) != 3072 || &b[0] != &a[0] {
		t.Errorf("GetBuf(3072) after PutBuf of a 3000-byte buffer: len %d, reused %v", len(b), &b[0] == &a[0])
	}
	w.PutBuf(make([]byte, 3000)) // capacity 3000 is not a class size
	if b := w.GetBuf(3000); cap(b) != 3072 {
		t.Errorf("a foreign 3000-capacity buffer was pooled (got cap %d)", cap(b))
	}
	if w.GetBuf(0) != nil {
		t.Error("GetBuf(0) returned a buffer")
	}
}

// TestPoolBoundedUnderDistinctSizes feeds a pool 1000 distinct sizes, far
// more bytes than it may keep: retained capacity must stay under the bound
// and the bucket count under what the size classes allow, however many
// distinct sizes pass through. The pool is a private one, so what other
// tests left in the payload pool does not count.
func TestPoolBoundedUnderDistinctSizes(t *testing.T) {
	bp := &bufPool{}
	bufs := make([][]byte, 0, 1000)
	total := 0
	for i := 0; i < 1000; i++ {
		b := bp.get(100<<10 + i*257)
		total += cap(b)
		bufs = append(bufs, b)
	}
	if total <= maxPooledBytes {
		t.Fatalf("test feeds only %d bytes, bound is %d", total, maxPooledBytes)
	}
	for _, b := range bufs {
		bp.put(b)
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	held := 0
	for class, list := range bp.buckets {
		held += class * len(list)
	}
	if held != bp.retained || held > maxPooledBytes {
		t.Errorf("pool holds %d bytes (accounted %d), bound %d", held, bp.retained, maxPooledBytes)
	}
	if len(bp.buckets) > 16 {
		t.Errorf("1000 sizes between 100 and 352 KiB made %d buckets, want the few classes that span them", len(bp.buckets))
	}
}

// TestPoolConcurrentGetPut is the race-detector target for the pool's
// mutex: a socket reader takes buffers while the scheduler frees them.
func TestPoolConcurrentGetPut(t *testing.T) {
	w := poolWorld(t)
	ch := make(chan []byte, 8) // a few buffers in flight between the two
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ch)
		for i := 0; i < 5000; i++ {
			b := w.GetBuf(1 + i%4096)
			b[0] = byte(i)
			ch <- b
		}
	}()
	go func() {
		defer wg.Done()
		for b := range ch {
			w.PutBuf(b)
		}
	}()
	wg.Wait()
}
