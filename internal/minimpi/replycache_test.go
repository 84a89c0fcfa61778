package minimpi

import (
	"bytes"
	"testing"
)

// TestReplyCacheWindow walks the ring both control planes dedup with: a
// request admitted is a duplicate, without reply, until it stores one; the
// cache keeps its own copy of a reply, inline or spilled; the ring forgets
// the oldest request once window newer ones were admitted; Record admits
// and stores in one step, overwriting a reply already kept.
func TestReplyCacheWindow(t *testing.T) {
	const window = 4
	c := NewReplyCache(window)
	key := func(i int) ReplyKey { return ReplyKey{Src: i % 3, ReqID: uint64(i)} }
	reply := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1+i*ReplyInline/3) } // inline, then spilled
	if r, dup := c.Admit(key(1)); r != nil || dup {
		t.Fatalf("first admission: %x, dup %v", r, dup)
	}
	if r, dup := c.Admit(key(1)); r != nil || !dup || c.Lookup(key(1)) != nil {
		t.Fatalf("admitted request still executing: %x, dup %v", r, dup)
	}
	if b := []byte{9}; &c.Store(key(2), b)[0] != &b[0] {
		t.Fatal("Store of a request never admitted kept a copy")
	}
	for i := 1; i <= 2*window+1; i++ {
		b := reply(i)
		kept := c.Record(key(i), b)
		b[0] ^= 0xFF // the caller's buffer is its own again
		if !bytes.Equal(kept, reply(i)) || !bytes.Equal(c.Lookup(key(i)), reply(i)) {
			t.Fatalf("request %d: kept %x, want %x", i, kept, reply(i))
		}
		if r, dup := c.Admit(key(i)); !dup || !bytes.Equal(r, reply(i)) {
			t.Fatalf("duplicate of request %d: %x, dup %v", i, r, dup)
		}
		for j := 1; j <= i; j++ {
			if remembered := c.Lookup(key(j)) != nil; remembered != (j > i-window) {
				t.Fatalf("after request %d, request %d remembered: %v", i, j, remembered)
			}
		}
	}
	last := 2*window + 1
	c.Record(key(last), []byte("again"))
	if got := c.Lookup(key(last)); string(got) != "again" {
		t.Errorf("Record over a kept reply left %q", got)
	}
	if len(c.slots) != window || len(c.at) != window {
		t.Errorf("%d slots and %d keys after %d requests, want the window of %d", len(c.slots), len(c.at), last, window)
	}
}

// TestReplyCacheReusesSlots: once the ring is full, recording a reply
// evicts the oldest and writes into its slot, a spilled reply into the
// buffer the slot already has, so a warm cache records without allocating.
func TestReplyCacheReusesSlots(t *testing.T) {
	c := NewReplyCache(64)
	long := bytes.Repeat([]byte{7}, 3*ReplyInline)
	id := uint64(0)
	record := func() {
		id++
		c.Record(ReplyKey{Src: int(id % 5), ReqID: id}, long[:ReplyInline+int(id%uint64(2*ReplyInline))])
	}
	for i := 0; i < 1000; i++ {
		record()
	}
	if avg := testing.AllocsPerRun(1000, record); avg > 0.01 {
		t.Errorf("a warm cache allocates %.3f per recorded reply, want 0", avg)
	}
}
