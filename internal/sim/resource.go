package sim

import "fmt"

// Resource is a counted semaphore with FIFO granting. It models contended
// hardware: a network link, a DMA engine, a CPU core pool. A process
// acquires n units, holds them across timed work, and releases them.
//
// Granting is strictly FIFO: a large request at the head of the queue
// blocks smaller requests behind it (no barging), which keeps timing
// reproducible and models fair hardware arbitration.
type Resource struct {
	sim      *Simulation
	name     string
	acqState string // block()'s label, built at the first blocking Acquire
	capacity int
	inUse    int
	waiters  []*resWaiter
	whead    int
}

// resWaiter is a pooled acquire registration: a blocked process (p) or a
// scheduler-context continuation (fn, arg; see AcquireCall). Ownership is
// simple — grant pops a waiter before waking it — so no generation counter
// is needed: a waiter is recycled either by the Acquire that blocked on it
// (normal return) or by grant, when it drops a killed process's entry or
// has scheduled a continuation.
type resWaiter struct {
	p   *Proc
	n   int
	fn  func(any)
	arg any
}

func (s *Simulation) putResWaiter(w *resWaiter) {
	w.p, w.fn, w.arg = nil, nil, nil
	s.freeResWaiters.Put(w)
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(s *Simulation, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q: capacity must be positive, got %d", name, capacity))
	}
	return &Resource{sim: s, name: name, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Acquire blocks until n units are available and takes them. n must be
// between 1 and the resource capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d of capacity %d", r.name, n, r.capacity))
	}
	if r.QueueLen() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	w := r.sim.freeResWaiters.Get()
	w.p, w.n = p, n
	r.waiters = append(r.waiters, w)
	if r.acqState == "" {
		r.acqState = "acquiring resource " + r.name
	}
	p.block(r.acqState)
	// grant popped w before waking us, so we are its sole owner now. A
	// killed process unwinds in block and never reaches this; its waiter is
	// recycled (or dropped) by grant instead.
	r.sim.putResWaiter(w)
}

// AcquireCall is Acquire for scheduler-context code, which cannot block. If
// n units are free and nobody is queued it takes them and reports true: the
// caller continues inline. Otherwise it queues FIFO among the blocked
// acquirers and reports false; fn(arg) then runs holding the units, at the
// instant and queue position a process blocked in Acquire would resume.
func (r *Resource) AcquireCall(n int, fn func(any), arg any) bool {
	if r.TryAcquire(n) {
		return true
	}
	w := r.sim.freeResWaiters.Get()
	w.n, w.fn, w.arg = n, fn, arg
	r.waiters = append(r.waiters, w)
	return false
}

// TryAcquire takes n units if immediately available, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: try-acquire %d of capacity %d", r.name, n, r.capacity))
	}
	if r.QueueLen() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: resource %q: release %d with %d in use", r.name, n, r.inUse))
	}
	r.inUse -= n
	r.grant()
}

func (r *Resource) popWaiter() {
	r.waiters[r.whead] = nil
	r.whead++
	if r.whead == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.whead = 0
	}
}

// grant wakes queued waiters, head first, while capacity allows. Waiters
// whose process was killed while queued are dropped instead of granted, so
// a crashed holder-to-be does not strand capacity.
func (r *Resource) grant() {
	for r.whead < len(r.waiters) {
		w := r.waiters[r.whead]
		if w.p != nil && w.p.gone() {
			r.popWaiter()
			// The dead process's Acquire frame unwinds without touching w.
			r.sim.putResWaiter(w)
			continue
		}
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		r.popWaiter()
		if w.p != nil {
			w.p.wake()
			continue
		}
		r.sim.AfterCall(0, w.fn, w.arg)
		r.sim.putResWaiter(w)
	}
}

// QueueLen reports the number of blocked acquirers.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.whead }
