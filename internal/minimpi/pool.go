package minimpi

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync"

	"dynacc/internal/sim"
)

// Payload buffer pool. Recycling buffers keeps steady-state traffic
// allocation-free: the sender takes a buffer with World.GetBuf, ships it
// with Comm.IsendOwned (ownership travels with the message), and the
// receiver, whose Status says Pooled, returns it with World.PutPayload once
// the bytes are consumed. Owned payloads are pipelined copy blocks and
// core's control messages: request headers, replies and replays. One pool
// serves the OS process: every World's GetBuf, PutBuf and PutPayload, on
// any goroutine, and the socket transports' readers (which take receive
// buffers) and writers (which return sent ones), so a fresh World starts
// on the buffers earlier ones gave back. A buffer whose message is dropped,
// canceled or never received simply falls out of the pool — correctness
// never depends on a buffer coming back.
//
// Recycled records. Every Request and every Message comes from a per-World
// sim.FreeList (scheduler context only, so unlocked), which a new World
// fills from the process's depots, where Close left an ended World's free
// records, or else a slab at a time, and goes back under one rule, MPI's.
// A Request goes back at the Wait or Result that sees it complete, which
// hands its payload and Status to the caller; Free abandons one nobody will
// wait for, which goes back when its flight ends (a send at completion, a
// matched receive when its message lands, with the payload) or at once (a
// completed one, an unmatched receive, which is withdrawn). A Message is
// internal: it returns by itself when both halves of its flight are over —
// the sender's at sendRelease, the receiver's at recvComplete; at once
// where no receiver will ever see it (the link filter's drop, FinishLocal).
// A rendezvous send canceled after its envelope landed ends the sender's
// half at the cancel; the receiver's ends when ResetEndpoint drops the
// envelope (a match would wait for a payload that never flows). A Request
// nobody waits for or frees is garbage-collected, as a buffer is, and
// RecordsOut counts it.

// poisonFreed enables the chaos guard: freed pool buffers are scribbled
// with a sentinel so any consumer that wrongly held on to a released
// buffer reads garbage (and data-integrity checks fail loudly) instead of
// silently aliasing recycled memory, and a handed-back Request is retired
// instead of reused and panics on every later method call. Enabled by
// DYNACC_POISON=1; CI runs the test suites with it set.
var poisonFreed = os.Getenv("DYNACC_POISON") == "1"

const poisonByte = 0xDB

// maxPooledBytes bounds the capacity the process's pool retains; a buffer
// freed beyond it is left to the garbage collector. It covers the largest
// steady-state working set in the tree (a whole 16 MiB payload queued in
// a socket outbox) several times over.
const maxPooledBytes = 64 << 20

// sizeClass rounds n up to its size class: four classes per power of two,
// so a buffer wastes under a quarter of its capacity and the number of
// buckets stays bounded however many distinct sizes pass through.
func sizeClass(n int) int {
	if n <= 64 {
		return 64
	}
	g := 1 << (bits.Len(uint(n-1)) - 3) // class spacing within n's octave
	return (n + g - 1) &^ (g - 1)
}

// bufPool recycles byte buffers bucketed by size class. Safe for
// concurrent use.
type bufPool struct {
	mu       sync.Mutex
	buckets  map[int][][]byte
	retained int // total capacity held in buckets
}

var payloads bufPool // the OS process's payload pool

func (bp *bufPool) get(n int) []byte {
	if n <= 0 {
		return nil
	}
	class := sizeClass(n)
	bp.mu.Lock()
	if list := bp.buckets[class]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		bp.buckets[class] = list[:len(list)-1]
		bp.retained -= class
		bp.mu.Unlock()
		return b[:n]
	}
	bp.mu.Unlock()
	return make([]byte, n, class)
}

// put files b under its capacity, which is a class size for every buffer
// get made; a foreign buffer whose capacity is not one is dropped.
func (bp *bufPool) put(b []byte) {
	class := cap(b)
	if class == 0 || sizeClass(class) != class {
		return
	}
	b = b[:class]
	if poisonFreed {
		for i := range b {
			b[i] = poisonByte
		}
	}
	bp.mu.Lock()
	if bp.retained+class <= maxPooledBytes {
		if bp.buckets == nil {
			bp.buckets = make(map[int][][]byte)
		}
		bp.buckets[class] = append(bp.buckets[class], b)
		bp.retained += class
	}
	bp.mu.Unlock()
}

// GetBuf returns an n-byte buffer from the process's payload pool,
// allocating only when no recycled buffer of that size class exists. The
// contents are unspecified — callers overwrite the whole buffer. Safe to
// call from any goroutine.
func (w *World) GetBuf(n int) []byte { return payloads.get(n) }

// PutBuf returns a buffer obtained from GetBuf to the pool. The caller
// must hold the only live reference. Safe to call from any goroutine.
func (w *World) PutBuf(b []byte) { payloads.put(b) }

// PutPayload returns a payload Wait or Result handed over to the pool if
// its status says it is a pool buffer; the caller is done with it.
func (w *World) PutPayload(data []byte, st Status) {
	if st.Pooled && data != nil {
		payloads.put(data)
	}
}

// RecordsOut reports how many Request and Message records are handed out
// and not back: flat across a stretch of traffic, every record came home.
func (w *World) RecordsOut() (reqs, msgs int) { return w.reqsOut, w.msgsOut }

// The depots behind every World's free lists; see Close.
var (
	reqDepot sim.Depot[[]*Request]
	msgDepot sim.Depot[[]*Message]
)

// Close ends the World's run, as MPI_Finalize ends a process's: every
// operation should be complete by then. It reports the records still out,
// with each rank's posted receives and unexpected messages, and hands the
// free Request and Message records, then the Simulation's free records (see
// sim.Simulation.Close), to the OS process's depots, where the next World
// draws them from. A record still out stays with whoever holds it. Neither
// the World nor its Simulation may run again; their counters stay readable.
func (w *World) Close() error {
	w.freeReqs.Close(nil)
	w.freeMsgs.Close(nil)
	w.sim.Close()
	if w.reqsOut == 0 && w.msgsOut == 0 {
		return nil
	}
	out := fmt.Sprintf("minimpi: %d requests and %d messages still out at Close", w.reqsOut, w.msgsOut)
	for _, ep := range w.eps {
		if len(ep.posted)+len(ep.unexpected) > 0 {
			out += fmt.Sprintf("; rank %d: %d posted receives, %d unexpected messages", ep.rank, len(ep.posted), len(ep.unexpected))
		}
	}
	return errors.New(out)
}

func (w *World) getRequest() *Request {
	w.reqsOut++
	r := w.freeReqs.Get()
	r.freed, r.world = false, w
	r.doneEv.Init(w.sim)
	r.done = &r.doneEv
	return r
}

// putRequest recycles a request nobody will touch again: it was handed
// back or freed, and no message still points at it.
func (w *World) putRequest(r *Request) {
	w.reqsOut--
	*r = Request{freed: true}
	if !poisonFreed {
		w.freeReqs.Put(r)
	}
}

// getMessage returns a blank message with that many flight halves to end.
func (w *World) getMessage(halves int8) *Message {
	w.msgsOut++
	m := w.freeMsgs.Get()
	m.w, m.halves = w, halves
	m.bodyEv.Init(w.sim)
	m.bodyArrived = &m.bodyEv
	return m
}

func (w *World) putMessage(m *Message) {
	w.msgsOut--
	*m = Message{}
	if !poisonFreed {
		w.freeMsgs.Put(m)
	}
}
