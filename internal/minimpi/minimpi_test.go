package minimpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// fastNet is a simple model for functional tests: 1 GB/s, small constant
// overheads, rendezvous above 4 KiB.
func fastNet() netmodel.Params {
	return netmodel.Params{
		Name:           "test",
		Latency:        1 * sim.Microsecond,
		Bandwidth:      1e9,
		SendOverhead:   100 * sim.Nanosecond,
		RecvOverhead:   100 * sim.Nanosecond,
		EagerThreshold: 4 * netmodel.KiB,
		RendezvousRTT:  2 * sim.Microsecond,
	}
}

// waitAll waits on each request in turn.
func waitAll(p *sim.Proc, reqs ...*Request) {
	for _, r := range reqs {
		r.Wait(p)
	}
}

// runWorld builds a simulation and world of n ranks, runs fn(rank) as the
// rank's process, and completes the simulation.
func runWorld(t *testing.T, n int, params netmodel.Params, fn func(p *sim.Proc, c *Comm)) {
	t.Helper()
	s := sim.New()
	w, err := NewWorld(s, n, params)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		c := w.Comm(r)
		s.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { fn(p, c) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldValidation(t *testing.T) {
	s := sim.New()
	if _, err := NewWorld(s, 0, fastNet()); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewWorld(s, 2, netmodel.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSendRecvPayload(t *testing.T) {
	payload := []byte("hello accelerator cluster")
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(p, 1, 7, payload)
		case 1:
			data, st := c.Recv(p, 0, 7)
			if !bytes.Equal(data, payload) {
				t.Errorf("payload = %q", data)
			}
			if st.Source != 0 || st.Tag != 7 || st.Size != len(payload) {
				t.Errorf("status = %+v", st)
			}
		}
	})
}

func TestSendSizedCarriesNoData(t *testing.T) {
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			c.SendSized(p, 1, 3, 1<<20)
		case 1:
			data, st := c.Recv(p, 0, 3)
			if data != nil {
				t.Errorf("sized send delivered %d bytes of payload", len(data))
			}
			if st.Size != 1<<20 {
				t.Errorf("size = %d, want 1 MiB", st.Size)
			}
		}
	})
}

func TestRecvBeforeSend(t *testing.T) {
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Irecv(1, 0)
			data, _ := req.Wait(p)
			if string(data) != "late" {
				t.Errorf("got %q", data)
			}
		case 1:
			p.Wait(50 * sim.Microsecond)
			c.Send(p, 0, 0, []byte("late"))
		}
	})
}

func TestWildcardSourceAndTag(t *testing.T) {
	runWorld(t, 3, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			got := map[string]bool{}
			for i := 0; i < 2; i++ {
				data, st := c.Recv(p, AnySource, AnyTag)
				got[string(data)] = true
				if st.Source != 1 && st.Source != 2 {
					t.Errorf("source = %d", st.Source)
				}
			}
			if !got["from1"] || !got["from2"] {
				t.Errorf("got %v", got)
			}
		case 1:
			c.Send(p, 0, 11, []byte("from1"))
		case 2:
			c.Send(p, 0, 22, []byte("from2"))
		}
	})
}

func TestTagMatching(t *testing.T) {
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(p, 1, 5, []byte("five"))
			c.Send(p, 1, 9, []byte("nine"))
		case 1:
			// Receive in reverse tag order: matching must be by tag, not
			// arrival.
			d9, _ := c.Recv(p, 0, 9)
			d5, _ := c.Recv(p, 0, 5)
			if string(d9) != "nine" || string(d5) != "five" {
				t.Errorf("got %q, %q", d9, d5)
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	// A large rendezvous message followed by a small eager one with the
	// same tag must still be received in send order.
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			big := bytes.Repeat([]byte{1}, 64*netmodel.KiB)
			r1 := c.Isend(1, 0, big)
			r2 := c.Isend(1, 0, []byte{2})
			waitAll(p, r1, r2)
		case 1:
			p.Wait(100 * sim.Microsecond)
			first, _ := c.Recv(p, 0, 0)
			second, _ := c.Recv(p, 0, 0)
			if len(first) != 64*netmodel.KiB {
				t.Errorf("first message has %d bytes, want the big one", len(first))
			}
			if len(second) != 1 {
				t.Errorf("second message has %d bytes, want 1", len(second))
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	// Two simultaneous transfers in opposite directions must overlap:
	// full-duplex NICs do not serialize them.
	const n = 8 * netmodel.MiB
	params := fastNet()
	var elapsed sim.Duration
	runWorld(t, 2, params, func(p *sim.Proc, c *Comm) {
		peer := 1 - c.Rank()
		start := p.Now()
		sr := c.IsendSized(peer, 0, n)
		rr := c.Irecv(peer, 0)
		waitAll(p, sr, rr)
		if c.Rank() == 0 {
			elapsed = p.Now().Sub(start)
		}
	})
	oneWay := params.OneWayTime(n)
	if elapsed > oneWay+oneWay/4 {
		t.Errorf("bidirectional exchange took %v, want about one-way %v (full duplex)", elapsed, oneWay)
	}
}

func TestSameDirectionTransfersSerialize(t *testing.T) {
	// Two large messages from the same sender share its transmit link, so
	// they take about twice as long as one.
	const n = 8 * netmodel.MiB
	params := fastNet()
	var elapsed sim.Duration
	runWorld(t, 2, params, func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			r1 := c.IsendSized(1, 0, n)
			r2 := c.IsendSized(1, 1, n)
			waitAll(p, r1, r2)
		case 1:
			start := p.Now()
			r1 := c.Irecv(0, 0)
			r2 := c.Irecv(0, 1)
			waitAll(p, r1, r2)
			elapsed = p.Now().Sub(start)
		}
	})
	want := 2 * params.TransferTime(n)
	if elapsed < want {
		t.Errorf("two same-direction transfers took %v, want >= %v (serialized)", elapsed, want)
	}
}

func TestPingPongMatchesAnalyticModel(t *testing.T) {
	params := netmodel.QDRInfiniBand()
	for _, n := range []int{64, 8 * netmodel.KiB, 1 * netmodel.MiB, 16 * netmodel.MiB} {
		var elapsed sim.Duration
		const reps = 4
		runWorld(t, 2, params, func(p *sim.Proc, c *Comm) {
			switch c.Rank() {
			case 0:
				start := p.Now()
				for i := 0; i < reps; i++ {
					c.SendSized(p, 1, 0, n)
					c.Recv(p, 1, 0)
				}
				elapsed = p.Now().Sub(start)
			case 1:
				for i := 0; i < reps; i++ {
					c.Recv(p, 0, 0)
					c.SendSized(p, 0, 0, n)
				}
			}
		})
		got := elapsed / (2 * reps)
		want := params.OneWayTime(n)
		// The simulated time may exceed the closed form slightly because a
		// blocking ping-pong cannot hide the next send behind the last recv.
		ratio := float64(got) / float64(want)
		if ratio < 0.95 || ratio > 1.15 {
			t.Errorf("n=%d: simulated one-way %v vs analytic %v (ratio %.3f)", n, got, want, ratio)
		}
	}
}

// TestProbe polls Iprobe until the message lands: false before the send,
// the message's status after, and the message is still receivable.
func TestProbe(t *testing.T) {
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			p.Wait(10 * sim.Microsecond)
			c.Send(p, 1, 42, []byte("probed"))
		case 1:
			if _, ok := c.Iprobe(0, 42); ok {
				t.Error("Iprobe true before send")
			}
			st, ok := c.Iprobe(0, 42)
			for ; !ok; st, ok = c.Iprobe(0, 42) {
				p.Wait(sim.Microsecond)
			}
			if st.Tag != 42 || st.Size != 6 {
				t.Errorf("probe status %+v", st)
			}
			// The message must still be receivable.
			data, _ := c.Recv(p, 0, 42)
			if string(data) != "probed" {
				t.Errorf("got %q", data)
			}
		}
	})
}

func TestIprobeAfterArrival(t *testing.T) {
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(p, 1, 1, []byte("x"))
		case 1:
			p.Wait(time100us())
			st, ok := c.Iprobe(AnySource, AnyTag)
			if !ok || st.Source != 0 {
				t.Errorf("Iprobe = %+v, %v", st, ok)
			}
			c.Recv(p, 0, 1)
		}
	})
}

func time100us() sim.Duration { return 100 * sim.Microsecond }

func TestRequestCompletedFlag(t *testing.T) {
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Irecv(1, 0)
			if req.Completed() {
				t.Error("request completed before any send")
			}
			req.Done().Await(p)
			if !req.Completed() {
				t.Error("request not completed once its completion event fired")
			}
			req.Wait(p)
		case 1:
			c.Send(p, 0, 0, []byte("z"))
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		var maxBefore, minAfter sim.Time
		minAfter = 1 << 62
		runWorld(t, n, fastNet(), func(p *sim.Proc, c *Comm) {
			p.Wait(sim.Duration(c.Rank()) * 10 * sim.Microsecond)
			if p.Now() > maxBefore {
				maxBefore = p.Now()
			}
			c.Barrier(p)
			if p.Now() < minAfter {
				minAfter = p.Now()
			}
		})
		if minAfter < maxBefore {
			t.Errorf("n=%d: a rank left the barrier at %v before the last entered at %v", n, minAfter, maxBefore)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			payload := []byte(fmt.Sprintf("bcast-%d-%d", n, root))
			runWorld(t, n, fastNet(), func(p *sim.Proc, c *Comm) {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out := c.Bcast(p, root, in)
				if !bytes.Equal(out, payload) {
					t.Errorf("n=%d root=%d rank=%d: got %q", n, root, c.Rank(), out)
				}
			})
		}
	}
}

// TestGatherVariableSizes gathers contributions of rank bytes each, rank
// 0's empty.
func TestGatherVariableSizes(t *testing.T) {
	runWorld(t, 4, fastNet(), func(p *sim.Proc, c *Comm) {
		contrib := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank())
		out := c.Gather(p, 2, contrib)
		if c.Rank() != 2 {
			if out != nil {
				t.Error("non-root gather returned data")
			}
			return
		}
		for r, part := range out {
			if len(part) != r || (len(part) > 0 && part[0] != byte(r)) {
				t.Errorf("part[%d] = %v", r, part)
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	runWorld(t, 3, fastNet(), func(p *sim.Proc, c *Comm) {
		out := c.Allgather(p, []byte{byte(10 + c.Rank())})
		for r, part := range out {
			if len(part) != 1 || part[0] != byte(10+r) {
				t.Errorf("rank %d: part[%d] = %v", c.Rank(), r, part)
			}
		}
	})
}

func TestSplitIsolatesTraffic(t *testing.T) {
	// Ranks {0,2} and {1,3} form separate comms; same tags must not cross.
	runWorld(t, 4, fastNet(), func(p *sim.Proc, c *Comm) {
		sub := c.Split(p, c.Rank()%2, 0)
		if sub.Size() != 2 {
			t.Fatalf("sub size = %d", sub.Size())
		}
		if sub.Rank() == 0 {
			sub.Send(p, 1, 0, []byte{byte(c.Rank())})
		} else {
			data, _ := sub.Recv(p, 0, 0)
			wantFrom := byte(c.Rank() % 2) // world rank 0 or 1
			if data[0] != wantFrom {
				t.Errorf("world rank %d received from %d, want %d", c.Rank(), data[0], wantFrom)
			}
		}
		// WorldRank mapping is consistent.
		if got := sub.WorldRank(sub.Rank()); got != c.Rank() {
			t.Errorf("WorldRank = %d, want %d", got, c.Rank())
		}
	})
}

func TestSplitWithKeysReordersRanks(t *testing.T) {
	runWorld(t, 4, fastNet(), func(p *sim.Proc, c *Comm) {
		// Reverse order via keys.
		sub := c.Split(p, 0, -c.Rank())
		if want := 3 - c.Rank(); sub.Rank() != want {
			t.Errorf("world %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), want)
		}
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	runWorld(t, 3, fastNet(), func(p *sim.Proc, c *Comm) {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.Split(p, color, 0)
		if c.Rank() == 2 {
			if sub != nil {
				t.Error("opt-out rank got a communicator")
			}
			return
		}
		if sub.Size() != 2 {
			t.Errorf("sub size = %d, want 2", sub.Size())
		}
	})
}

// TestDupIsolatesContext duplicates the communicator (MPI_Comm_dup) with a
// one-color Split: same group, a context of its own.
func TestDupIsolatesContext(t *testing.T) {
	runWorld(t, 2, fastNet(), func(p *sim.Proc, c *Comm) {
		dup := c.Split(p, 0, c.Rank())
		switch c.Rank() {
		case 0:
			c.Send(p, 1, 0, []byte("orig"))
			dup.Send(p, 1, 0, []byte("dup"))
		case 1:
			// Receive on dup first: must get the dup-context message even
			// though the original-context one arrived first.
			d, _ := dup.Recv(p, 0, 0)
			o, _ := c.Recv(p, 0, 0)
			if string(d) != "dup" || string(o) != "orig" {
				t.Errorf("got dup=%q orig=%q", d, o)
			}
		}
	})
}

func TestCommRankPanics(t *testing.T) {
	s := sim.New()
	w, _ := NewWorld(s, 2, fastNet())
	for _, fn := range []func(){
		func() { w.Comm(2) },
		func() { w.Comm(-1) },
		func() { w.Comm(0).Isend(5, 0, nil) },
		func() { w.Comm(0).Isend(1, -3, nil) },
		func() { w.Comm(0).IsendSized(1, 0, -1) },
		func() { w.Comm(0).Irecv(9, 0) },
		func() { w.Comm(0).Irecv(0, -7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: any pattern of sends between random pairs with random tags is
// fully delivered, each payload exactly once, regardless of recv posting
// order.
func TestPropertyAllMessagesDelivered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ranks = 4
		nmsg := 1 + rng.Intn(12)
		type msg struct {
			src, dst int
			tag      Tag
			body     byte
		}
		var msgs []msg
		perDst := make(map[int]int)
		for i := 0; i < nmsg; i++ {
			m := msg{src: rng.Intn(ranks), dst: rng.Intn(ranks), tag: Tag(rng.Intn(3)), body: byte(i)}
			if m.src == m.dst {
				m.dst = (m.dst + 1) % ranks
			}
			msgs = append(msgs, m)
			perDst[m.dst]++
		}
		received := make(map[byte]int)
		ok := true
		runWorld(t, ranks, fastNet(), func(p *sim.Proc, c *Comm) {
			for _, m := range msgs {
				if m.src == c.Rank() {
					c.Isend(m.dst, m.tag, []byte{m.body})
				}
			}
			for i := 0; i < perDst[c.Rank()]; i++ {
				data, st := c.Recv(p, AnySource, AnyTag)
				if len(data) != 1 || st.Size != 1 {
					ok = false
					continue
				}
				received[data[0]]++
			}
		})
		if len(received) != nmsg {
			return false
		}
		for _, count := range received {
			if count != 1 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInjectRemoteFromManyReaders lands frames injected by several
// goroutines at once, the way a socket transport's per-peer readers do:
// every frame arrives, and each sender's frames land in the order it
// injected them.
func TestInjectRemoteFromManyReaders(t *testing.T) {
	const senders, frames = 4, 300
	s := sim.New()
	w, err := NewWorld(s, senders+1, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	landed := make(chan struct{})
	s.Spawn("receiver", func(p *sim.Proc) {
		defer close(landed)
		c := w.Comm(senders)
		next := make([]int, senders)
		for i := 0; i < senders*frames; i++ {
			data, st := c.Recv(p, AnySource, 5)
			if got := int(data[0])<<8 | int(data[1]); got != next[st.Source] {
				t.Errorf("from rank %d: frame %d landed in place of frame %d", st.Source, got, next[st.Source])
			}
			next[st.Source]++
			w.PutPayload(data, st)
		}
	})
	stop := make(chan struct{})
	ran := make(chan error, 1)
	go func() { ran <- s.RunRealtime(stop) }()
	var wg sync.WaitGroup
	for src := 0; src < senders; src++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := Envelope{Src: src, SrcComm: src, Dst: senders, Tag: 5, Size: 2}
			for i := 0; i < frames; i++ {
				buf := w.GetBuf(2)
				buf[0], buf[1] = byte(i>>8), byte(i)
				if err := w.InjectRemote(env, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-landed:
	case <-time.After(10 * time.Second):
		t.Error("not every injected frame landed")
	}
	close(stop)
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
}

// TestUnexpectedQueueKeepsArrivalOrder drives the unexpected queue with
// random arrivals and matches (mostly at the head, as in the daemons'
// receive loops, sometimes anywhere) against a plain slice. The order
// stays the slice's, no slot outside the queue keeps a message, and the
// array grows exactly when the plain slice's append grows it.
func TestUnexpectedQueueKeepsArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ep endpoint
	var model []*Message
	for step := 0; step < 20000; step++ {
		if len(model) == 0 || rng.Intn(5) < 2+step/5000%2 {
			m := new(Message)
			ep.queueUnexpected(m)
			model = append(model, m)
		} else {
			i := 0
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(model))
			}
			ep.takeUnexpected(i)
			model = append(model[:i], model[i+1:]...)
		}
		if len(ep.unexpected) != len(model) {
			t.Fatalf("step %d: queue holds %d messages, want %d", step, len(ep.unexpected), len(model))
		}
		for i, m := range model {
			if ep.unexpected[i] != m {
				t.Fatalf("step %d: message %d out of order", step, i)
			}
		}
		base := ep.unexpBase[:cap(ep.unexpBase)]
		front := len(base) - cap(ep.unexpected)
		for i, m := range base {
			if m != nil && (i < front || i >= front+len(model)) {
				t.Fatalf("step %d: slot %d outside the queue [%d,%d) still holds a message", step, i, front, front+len(model))
			}
		}
		if cap(base) != cap(model) {
			t.Fatalf("step %d: array holds %d slots, a plain append's %d", step, cap(base), cap(model))
		}
	}
}
