package core

// dedupKey identifies a request: the sender's rank and its request ID.
type dedupKey struct {
	src   int
	reqID uint64
}

// replyCache is a server's idempotency table: the last window requests it
// admitted, by (source rank, request ID), FIFO, each with its reply. A
// duplicate is dropped while the original executes and answered again from
// the cache once it has replied. The cache owns the replies' bytes: each
// slot of its ring keeps one, inline when small, and the request that
// evicts it reuses the space. Nothing in it is the daemon's.
type replyCache struct {
	window int
	at     map[dedupKey]int // slot of every remembered request
	slots  []replySlot      // by admission; once full, next is the oldest
	next   int
}

// replySlot is one remembered request with its reply, n bytes of small, or
// of big when they do not fit; n < 0 while the request executes.
type replySlot struct {
	key   dedupKey
	n     int
	small [32]byte
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

// admit reports whether key was admitted before, with its reply (nil while
// it executes). A new key is admitted as executing.
func (c *replyCache) admit(key dedupKey) (reply []byte, dup bool) {
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

// store records b as key's reply if key is still remembered, and returns
// the cache's copy (b itself if not).
func (c *replyCache) store(key dedupKey, b []byte) []byte {
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
