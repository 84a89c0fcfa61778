package nettrans

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// cutConn is a net.Conn that only records what is written to it. With a
// limit ≥ 0 it takes limit bytes in all, then a write that would pass the
// limit writes up to it and fails, like a connection reset mid-frame. With
// hold set, its first write signals entered and waits for hold to close.
// Nothing reads from it: the writer under test is handed it directly.
type cutConn struct {
	net.Conn // nil: the writer calls only Write and Close
	mu       sync.Mutex
	out      bytes.Buffer
	limit    int
	closed   chan struct{}
	once     sync.Once

	hold, entered chan struct{}
	held          sync.Once
}

func newCutConn(limit int) *cutConn { return &cutConn{limit: limit, closed: make(chan struct{})} }

func (c *cutConn) Write(p []byte) (int, error) {
	if c.hold != nil {
		c.held.Do(func() { close(c.entered); <-c.hold })
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit >= 0 && c.out.Len()+len(p) > c.limit {
		n := c.limit - c.out.Len()
		c.out.Write(p[:n])
		return n, errors.New("connection reset by peer")
	}
	return c.out.Write(p)
}

func (c *cutConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// written returns the recorded stream's frames in order, and whether it
// ends in a frame cut short.
func (c *cutConn) written(t *testing.T) (tags []minimpi.Tag, cut bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range decodeStream(bytes.NewReader(c.out.Bytes()), DefaultMaxFrame) {
		if d.err == "" {
			tags = append(tags, d.env.Tag)
			if d.payload != nil && !bytes.Equal(d.payload, bytes.Repeat([]byte{byte(d.env.Tag)}, len(d.payload))) {
				t.Errorf("frame %d arrived with a corrupt payload", d.env.Tag)
			}
		} else {
			cut = d.err != "EOF"
		}
	}
	return tags, cut
}

// TestWriteCutMidFrameResendsOnlyThatFrame pins what a failed write owes
// the next connection. Five frames wait in the outbox; the first
// connection takes the first two whole and fails inside the third. Those
// two are sent and never written again; the third is written whole on the
// next connection, followed by the rest, and FramesResent counts it once.
func TestWriteCutMidFrameResendsOnlyThatFrame(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	b := startNode(t, 2, 1, procs, lns[1], nil) // proc 0 never comes up
	defer b.halt()

	sizes := []int{100, 200, 3000, 50, 0}
	done := b.run("enqueue", func(p *sim.Proc) {
		c := b.w.Comm(1)
		for i, n := range sizes {
			tag := minimpi.Tag(i + 1)
			c.Isend(0, tag, bytes.Repeat([]byte{byte(tag)}, n)).Wait(p)
		}
	})
	wait(t, done, "enqueue with the peer down")
	pr := b.tr.peers[0]
	if n := pr.queued(); n != len(sizes) {
		t.Fatalf("outbox holds %d frames, want %d", n, len(sizes))
	}

	first := newCutConn(2*frameHeaderSize + sizes[0] + sizes[1] + frameHeaderSize + 10)
	pr.setConn(first)
	select {
	case <-first.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never dropped the connection that failed")
	}
	second := newCutConn(-1)
	pr.setConn(second)
	st := statsWhen(b.tr, func(st minimpi.TransportStats) bool { return st.FramesSent >= int64(len(sizes)) })

	if tags, cut := first.written(t); !slices.Equal(tags, []minimpi.Tag{1, 2}) || !cut {
		t.Errorf("first connection carried frames %v (cut short: %v), want [1 2] and the head of 3", tags, cut)
	}
	if tags, cut := second.written(t); !slices.Equal(tags, []minimpi.Tag{3, 4, 5}) || cut {
		t.Errorf("second connection carried frames %v (cut short: %v), want [3 4 5] whole", tags, cut)
	}
	if st.FramesSent != int64(len(sizes)) || st.FramesResent != 1 {
		t.Errorf("%d frames sent and %d resent, want %d and 1", st.FramesSent, st.FramesResent, len(sizes))
	}
	if n := pr.queued(); n != 0 {
		t.Errorf("%d frames left in the outbox", n)
	}
}

// TestCancelInFlightRendezvousFrameIsWritten: a rendezvous send canceled
// while the writer has its frame in a write that has not returned is past
// taking back. Its frame stays in the outbox until the write returns, goes
// out whole, and the send completes. The frame is second in the write, so
// it is in flight without being at the head of the queue.
func TestCancelInFlightRendezvousFrameIsWritten(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	b := startNode(t, 2, 1, procs, lns[1], nil) // proc 0 never comes up
	defer b.halt()

	var r *minimpi.Request
	done := b.run("enqueue", func(p *sim.Proc) {
		c := b.w.Comm(1)
		c.Isend(0, 1, []byte{1, 1, 1}).Wait(p)
		r = c.Isend(0, 2, bytes.Repeat([]byte{2}, 64<<10))
	})
	wait(t, done, "enqueue with the peer down")
	pr := b.tr.peers[0]

	conn := newCutConn(-1)
	conn.hold, conn.entered = make(chan struct{}), make(chan struct{})
	pr.setConn(conn)
	select {
	case <-conn.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never wrote to the connection")
	}
	canceled := b.run("cancel", func(p *sim.Proc) {
		r.Cancel()
		p.Wait(sim.Millisecond) // the cancel's settle runs before this returns
	})
	wait(t, canceled, "the cancel")
	if n := pr.queued(); n != 2 {
		t.Errorf("outbox holds %d frames after canceling one in flight, want 2", n)
	}

	close(conn.hold)
	completed := b.run("wait", func(p *sim.Proc) { r.Wait(p) })
	wait(t, completed, "the canceled rendezvous send to complete once written")
	st := statsWhen(b.tr, func(st minimpi.TransportStats) bool { return st.FramesSent >= 2 })
	if tags, cut := conn.written(t); !slices.Equal(tags, []minimpi.Tag{1, 2}) || cut {
		t.Errorf("connection carried frames %v (cut short: %v), want [1 2] whole", tags, cut)
	}
	if st.FramesSent != 2 || st.FramesResent != 0 {
		t.Errorf("%d frames sent and %d resent, want 2 and 0", st.FramesSent, st.FramesResent)
	}
}
