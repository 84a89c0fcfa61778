package conformance

import (
	"fmt"
	"net"
	"testing"
	"time"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/nettrans"
	"dynacc/internal/sim"
)

// rankFn is one rank's body in a conformance scenario.
type rankFn func(p *sim.Proc, w *minimpi.World, c *minimpi.Comm)

// backend runs an n-rank scenario to completion.
type backend struct {
	name string
	run  func(t *testing.T, n int, fn rankFn)
}

func backends() []backend {
	return []backend{
		{name: "sim", run: runSim},
		{name: "socket", run: runSocket},
	}
}

// testNet keeps the eager threshold low so payload sends exercise the
// in-sim rendezvous path too; the socket path is always eager.
func testNet() netmodel.Params {
	return netmodel.Params{
		Name:           "conformance",
		Latency:        1 * sim.Microsecond,
		Bandwidth:      1e9,
		SendOverhead:   100 * sim.Nanosecond,
		RecvOverhead:   100 * sim.Nanosecond,
		EagerThreshold: 4 * netmodel.KiB,
		RendezvousRTT:  2 * sim.Microsecond,
	}
}

// runSim executes the scenario on the in-sim backend: one world, every
// rank a process of the same simulation.
func runSim(t *testing.T, n int, fn rankFn) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, n, testNet())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		c := w.Comm(r)
		s.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { fn(p, w, c) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// runSocket executes the scenario on the socket backend: one process per
// rank, each with its own simulation, world and transport, joined over
// loopback TCP and driven by RunRealtime.
func runSocket(t *testing.T, n int, fn rankFn) {
	t.Helper()
	lns := make([]net.Listener, n)
	procs := make([]nettrans.ProcSpec, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		procs[i] = nettrans.ProcSpec{Addr: ln.Addr().String(), Ranks: []int{i}}
	}
	type nodeState struct {
		s    *sim.Simulation
		w    *minimpi.World
		tr   *nettrans.Transport
		stop chan struct{}
		done chan error
	}
	nodes := make([]*nodeState, n)
	for i := range nodes {
		s := sim.New()
		w, err := minimpi.NewWorld(s, n, testNet())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := nettrans.New(nettrans.Config{
			World:       w,
			ProcID:      i,
			Procs:       procs,
			Listener:    lns[i],
			Token:       "conformance",
			DialBackoff: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("nettrans.New(proc %d): %v", i, err)
		}
		w.SetTransport(tr)
		nd := &nodeState{s: s, w: w, tr: tr, stop: make(chan struct{}), done: make(chan error, 1)}
		go func() { nd.done <- s.RunRealtime(nd.stop) }()
		nodes[i] = nd
	}
	defer func() {
		for _, nd := range nodes {
			close(nd.stop)
			if err := <-nd.done; err != nil {
				t.Errorf("RunRealtime: %v", err)
			}
			nd.tr.Close()
			if st := nd.tr.Stats(); st.HandshakeFailures != 0 {
				t.Errorf("handshake failures on a conformance run: %+v", st)
			}
		}
	}()

	finished := make([]chan struct{}, n)
	for i := range nodes {
		r := i
		nd := nodes[i]
		ch := make(chan struct{})
		finished[r] = ch
		nd.s.Inject(func() {
			nd.s.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				defer close(ch)
				fn(p, nd.w, nd.w.Comm(r))
			})
		})
	}
	for r, ch := range finished {
		select {
		case <-ch:
		case <-time.After(15 * time.Second):
			t.Fatalf("rank %d did not finish", r)
		}
	}
}

// forEachBackend runs the scenario as a subtest per backend.
func forEachBackend(t *testing.T, n int, fn rankFn) {
	for _, b := range backends() {
		b := b
		t.Run(b.name, func(t *testing.T) { b.run(t, n, fn) })
	}
}

// TestP2P covers blocking and nonblocking sends, sized (metadata-only)
// sends, and tag selectivity on one battery.
func TestP2P(t *testing.T) {
	payload := []byte("conformance payload: both backends must agree")
	forEachBackend(t, 3, func(p *sim.Proc, w *minimpi.World, c *minimpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(p, 1, 7, payload)
			c.SendSized(p, 1, 8, 1<<20)
			// Out-of-order tags: rank 2 posts tag 21 first, but we send
			// tag 20 first; matching must be by tag, not arrival.
			r1 := c.Isend(2, 20, []byte("twenty"))
			r2 := c.Isend(2, 21, []byte("twentyone"))
			r1.Wait(p)
			r2.Wait(p)
		case 1:
			data, st := c.Recv(p, 0, 7)
			if string(data) != string(payload) || st.Source != 0 || st.Tag != 7 || st.Size != len(payload) {
				t.Errorf("rank 1 payload recv: %q %+v", data, st)
			}
			data, st = c.Recv(p, 0, 8)
			if data != nil || st.Size != 1<<20 {
				t.Errorf("rank 1 sized recv: %d bytes, %+v", len(data), st)
			}
		case 2:
			r21 := c.Irecv(0, 21)
			r20 := c.Irecv(0, 20)
			d21, _ := r21.Wait(p)
			d20, _ := r20.Wait(p)
			if string(d20) != "twenty" || string(d21) != "twentyone" {
				t.Errorf("tag-selective recv: 20=%q 21=%q", d20, d21)
			}
		}
	})
}

// TestWildcardsAndProbe covers AnySource/AnyTag receives and Iprobe with
// matching status: polled until the message lands, it does not consume it.
func TestWildcardsAndProbe(t *testing.T) {
	forEachBackend(t, 3, func(p *sim.Proc, w *minimpi.World, c *minimpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(p, 2, 5, []byte("from-zero"))
		case 1:
			c.Send(p, 2, 6, []byte("from-one"))
		case 2:
			st, ok := c.Iprobe(0, 5)
			for ; !ok; st, ok = c.Iprobe(0, 5) {
				p.Wait(sim.Microsecond)
			}
			if st.Source != 0 || st.Tag != 5 || st.Size != len("from-zero") {
				t.Errorf("probe status %+v", st)
			}
			if _, ok := c.Iprobe(0, 5); !ok {
				t.Error("Iprobe consumed the probed message")
			}
			got := map[string]bool{}
			for i := 0; i < 2; i++ {
				data, st := c.Recv(p, minimpi.AnySource, minimpi.AnyTag)
				got[string(data)] = true
				if st.Source != 0 && st.Source != 1 {
					t.Errorf("wildcard source %+v", st)
				}
			}
			if !got["from-zero"] || !got["from-one"] {
				t.Errorf("wildcard recvs got %v", got)
			}
		}
	})
}

// TestCollectives runs Barrier, Bcast, Gather and Allgather on four ranks.
func TestCollectives(t *testing.T) {
	const n = 4
	forEachBackend(t, n, func(p *sim.Proc, w *minimpi.World, c *minimpi.Comm) {
		r := c.Rank()
		c.Barrier(p)

		var bdata []byte
		if r == 1 {
			bdata = []byte{42}
		}
		if got := c.Bcast(p, 1, bdata); len(got) != 1 || got[0] != 42 {
			t.Errorf("rank %d Bcast got %v", r, got)
		}

		gat := c.Gather(p, 3, []byte{byte(r), byte(r * 10)})
		if r == 3 {
			for i, part := range gat {
				if len(part) != 2 || part[0] != byte(i) || part[1] != byte(i*10) {
					t.Errorf("Gather part %d = %v", i, part)
				}
			}
		}

		all := c.Allgather(p, []byte{byte(r + 100)})
		for i, part := range all {
			if len(part) != 1 || part[0] != byte(i+100) {
				t.Errorf("rank %d Allgather part %d = %v", r, i, part)
			}
		}
	})
}

// TestExtras covers Isend/Irecv ring shifts and all-pairs exchanges, and
// derived communicators (Split) whose contexts must survive the wire.
func TestExtras(t *testing.T) {
	const n = 4
	forEachBackend(t, n, func(p *sim.Proc, w *minimpi.World, c *minimpi.Comm) {
		r := c.Rank()

		// Ring shift: send to the right, receive from the left.
		right, left := (r+1)%n, (r+n-1)%n
		rr := c.Irecv(left, 9)
		sr := c.Isend(right, 9, []byte{byte(r)})
		data, st := rr.Wait(p)
		sr.Wait(p)
		if len(data) != 1 || data[0] != byte(left) || st.Source != left {
			t.Errorf("rank %d ring shift got %v from %d", r, data, st.Source)
		}

		// All pairs: every rank posts a receive from and a send of a
		// rank-stamped part to every other rank.
		recvs := make([]*minimpi.Request, n)
		sends := make([]*minimpi.Request, 0, n-1)
		for j := 0; j < n; j++ {
			if j != r {
				recvs[j] = c.Irecv(j, 10)
			}
		}
		for j := 0; j < n; j++ {
			if j != r {
				sends = append(sends, c.Isend(j, 10, []byte{byte(r), byte(j)}))
			}
		}
		for j, req := range recvs {
			if req == nil {
				continue
			}
			if part, _ := req.Wait(p); len(part) != 2 || part[0] != byte(j) || part[1] != byte(r) {
				t.Errorf("rank %d all-pairs part from %d = %v", r, j, part)
			}
		}
		for _, r := range sends {
			r.Wait(p)
		}

		// Split into even/odd subcomms; broadcast within each.
		color := r % 2
		sub := c.Split(p, color, r)
		var sdata []byte
		if sub.Rank() == 0 {
			sdata = []byte{byte(color + 50)}
		}
		if got := sub.Bcast(p, 0, sdata); len(got) != 1 || got[0] != byte(color+50) {
			t.Errorf("rank %d subcomm Bcast got %v", r, got)
		}
		sub.Barrier(p)

		// A one-color Split duplicates the communicator: same group, an
		// independent context. The same (source, tag) on both must not
		// cross, whichever lands first.
		d := c.Split(p, 0, r)
		if d.Rank() != r || d.Size() != n {
			t.Errorf("rank %d duplicate is rank %d of %d", r, d.Rank(), d.Size())
		}
		c.Send(p, right, 12, []byte("orig"))
		d.Send(p, right, 12, []byte("dup"))
		dd, _ := d.Recv(p, left, 12)
		od, _ := c.Recv(p, left, 12)
		if string(dd) != "dup" || string(od) != "orig" {
			t.Errorf("rank %d contexts crossed: dup=%q orig=%q", r, dd, od)
		}
	})
}

// TestPoolOwnership covers the portable IsendOwned contract: the payload
// arrives intact however the backend recycles the buffer, the receive's
// status says it is a pool buffer, and returning it is always safe.
func TestPoolOwnership(t *testing.T) {
	const n = 3
	const sz = 2048
	forEachBackend(t, n, func(p *sim.Proc, w *minimpi.World, c *minimpi.Comm) {
		if c.Rank() == 0 {
			for dst := 1; dst < n; dst++ {
				buf := w.GetBuf(sz)
				for i := range buf {
					buf[i] = byte('A' + dst)
				}
				c.IsendOwned(dst, 11, buf).Wait(p)
			}
			return
		}
		data, st := c.Recv(p, 0, 11)
		if st.Size != sz || len(data) != sz || !st.Pooled {
			t.Errorf("rank %d owned recv size %d/%d, pooled %v", c.Rank(), len(data), st.Size, st.Pooled)
		}
		for i, bb := range data {
			if bb != byte('A'+c.Rank()) {
				t.Errorf("rank %d owned payload corrupt at %d: %q", c.Rank(), i, bb)
				break
			}
		}
		w.PutPayload(data, st)
	})
}
