package minimpi

import (
	"unsafe"

	"dynacc/internal/sim"
)

// ReplyKey identifies a request: the sender's rank and its request ID.
type ReplyKey struct {
	Src   int
	ReqID uint64
}

// ReplyInline is how many bytes of a reply a cache slot keeps inline (a
// status reply, a one-handle grant); a longer one spills into the slot's
// own buffer.
const ReplyInline = 48

// ReplyCache is a server's idempotency table, shared by both control
// planes: the last window requests it admitted, by (source rank, request
// ID), FIFO, each with its reply. The cache owns the replies' bytes: each
// slot of its ring keeps one, inline when small, and the request that
// evicts it reuses the space. A cache is used in place; copy one only
// before its first use.
type ReplyCache struct {
	window int
	replyRing
	next int
}

// replyRing is what a cache grows: its map and its ring of slots, which an
// ended run's Close hands to ringDepot, emptied, for the next cache.
type replyRing struct {
	at    map[ReplyKey]int // slot of every remembered request
	slots []replySlot      // by admission; once full, next is the oldest
}

var ringDepot sim.Depot[replyRing]

// NewReplyCache returns a cache that remembers the last window requests.
func NewReplyCache(window int) ReplyCache {
	r, ok := ringDepot.Take()
	if !ok {
		r.at = make(map[ReplyKey]int)
	}
	return ReplyCache{window: window, replyRing: r}
}

// Close ends the cache's run: its ring and map, emptied, go to the OS
// process's depot. The cache must not be used again.
func (c *ReplyCache) Close() {
	if c.at == nil {
		return
	}
	weight := (cap(c.slots) + len(c.at)) * int(unsafe.Sizeof(replySlot{}))
	clear(c.at)
	ringDepot.Put(replyRing{c.at, c.slots[:0]}, weight)
	c.replyRing = replyRing{}
}

// replySlot is one remembered request with its reply, n bytes of small, or
// of big when they do not fit; n < 0 while the request executes.
type replySlot struct {
	key   ReplyKey
	n     int
	small [ReplyInline]byte
	big   []byte
}

func (s *replySlot) reply() []byte {
	switch {
	case s.n < 0:
		return nil
	case s.n > len(s.small):
		return s.big[:s.n]
	}
	return s.small[:s.n]
}

// Admit reports whether key was admitted before, with its reply (nil while
// it executes). A new key is admitted as executing.
func (c *ReplyCache) Admit(key ReplyKey) (reply []byte, dup bool) {
	if i, ok := c.at[key]; ok {
		return c.slots[i].reply(), true
	}
	i := len(c.slots)
	if i < c.window {
		c.slots = append(c.slots, replySlot{})
	} else {
		i, c.next = c.next, (c.next+1)%c.window
		delete(c.at, c.slots[i].key)
	}
	c.slots[i].key, c.slots[i].n = key, -1
	c.at[key] = i
	return nil, false
}

// Store records b as key's reply if key is still remembered, and returns
// the cache's copy (b itself if not).
func (c *ReplyCache) Store(key ReplyKey, b []byte) []byte {
	i, ok := c.at[key]
	if !ok {
		return b
	}
	s := &c.slots[i]
	if s.n = len(b); s.n > len(s.small) {
		s.big = append(s.big[:0], b...)
	} else {
		copy(s.small[:], b)
	}
	return s.reply()
}

// Record is Admit then Store: it keeps b as key's reply whether or not key
// was admitted before, and returns the cache's copy.
func (c *ReplyCache) Record(key ReplyKey, b []byte) []byte {
	c.Admit(key)
	return c.Store(key, b)
}

// Lookup returns key's reply, nil if key is not remembered or still
// executing.
func (c *ReplyCache) Lookup(key ReplyKey) []byte {
	if i, ok := c.at[key]; ok {
		return c.slots[i].reply()
	}
	return nil
}
