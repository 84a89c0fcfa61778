package core

// Records the request path reuses — the daemon's request records, the
// front-end's calls, the reply cache's slots — must never let an earlier use
// show through a later one. Each test here runs under DYNACC_POISON=1 too.

import (
	"bytes"
	"fmt"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// dumpRequest prints a request with its batch's sub-records, not their
// addresses.
func dumpRequest(q *request) string {
	if q == nil {
		return "<nil>"
	}
	c := *q
	c.batch = nil
	s := fmt.Sprintf("%+v", c)
	for _, sub := range q.batch {
		s += "\n\t" + dumpRequest(sub)
	}
	return s
}

// TestDecodeIntoDirtyRecord: the daemon decodes each request into a record
// that last held another. Over FuzzDecodeRequest's corpus — launches with
// arguments, batches, inline writes, cut and refused frames — decoding B
// into the record A left behind must equal decoding B into a fresh one,
// error included.
func TestDecodeIntoDirtyRecord(t *testing.T) {
	reg := gpu.NewRegistry()
	registerTestKernels(reg)
	corpus := requestCorpus(t)
	for i, a := range corpus {
		for j, b := range corpus {
			dirty, fresh := new(request), new(request)
			_ = dirty.decode(a, reg)
			errDirty, errFresh := dirty.decode(b, reg), fresh.decode(b, reg)
			if fmt.Sprint(errDirty) != fmt.Sprint(errFresh) {
				t.Errorf("seed %d after seed %d: err %v, fresh record %v", j, i, errDirty, errFresh)
			}
			if got, want := dumpRequest(dirty), dumpRequest(fresh); got != want {
				t.Errorf("seed %d after seed %d:\n got %s\nwant %s", j, i, got, want)
			}
		}
	}
}

// TestRecycledCallIgnoresInFlightResend: a call whose first reply is late
// resends its header, then finishes on that reply while the resend is still
// on its way, and its record goes straight back to the client for the next
// call. The daemon executes the request once and answers the resend from
// its cache. The next call, in the same record, ships one header and takes
// its own reply in one round trip. The replay, whose tag no receive matches,
// is left unclaimed under the first call's reqID.
func TestRecycledCallIgnoresInFlightResend(t *testing.T) {
	opts := DefaultOptions()
	opts.Timeout, opts.Retries = 100*sim.Microsecond, 2
	cb := newChaosBed(t, 1, false, opts)
	var delay sim.Duration // for the next daemon reply
	headers := 0
	cb.world.SetLinkFilter(func(src, dst int, tag minimpi.Tag, _ int) minimpi.LinkVerdict {
		if src == 0 && tag == TagRequest {
			headers++
		}
		if d := delay; src == 1 && d > 0 {
			delay = 0
			return minimpi.LinkVerdict{Delay: d}
		}
		return minimpi.LinkVerdict{}
	})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a, c, d := cb.accels[0], cb.client, cb.daemons[0]
		t0 := p.Now()
		if err := a.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		rtt := p.Now().Sub(t0)
		// Under DYNACC_POISON=1 a handed-back call is retired: the record
		// checks below hold only where records are recycled. next reports
		// the record the client hands the next call, and gives it back.
		recycled := !poisonFreed
		next := func() *call {
			pd := a.failed(nil)
			pd.Wait(p)
			return pd.cl
		}
		var rec *call
		if recycled {
			rec = next()
		}
		// Late by the deadline less half a round trip: the reply lands
		// between the resend and the resend's answer.
		delay = opts.Timeout - rtt/2
		first, st, t1 := c.nextReq+1, d.Stats(), p.Now()
		if err := a.Sync(p); err != nil {
			t.Fatalf("sync with a late reply: %v", err)
		}
		if took := p.Now().Sub(t1); headers != 3 || took >= opts.Timeout+rtt {
			t.Fatalf("late reply: %d headers sent, took %v: want 3, finished before the resend's answer (%v)",
				headers, took, opts.Timeout+rtt)
		}
		if recycled && next() != rec {
			t.Fatal("the call's record did not go back to the client's free list")
		}
		t2 := p.Now()
		if err := a.Sync(p); err != nil {
			t.Fatalf("sync in the recycled record: %v", err)
		}
		if took := p.Now().Sub(t2); headers != 4 || took != rtt {
			t.Errorf("next call: %d headers sent in all, took %v: want 4 and %v", headers, took, rtt)
		}
		if recycled && next() != rec {
			t.Error("the next call did not reuse the record")
		}
		p.Wait(opts.Timeout)
		if got := d.Stats(); got.Requests != st.Requests+2 || got.DupsDropped != st.DupsDropped+1 {
			t.Errorf("daemon executed %d and absorbed %d duplicates, want 2 and 1",
				got.Requests-st.Requests, got.DupsDropped-st.DupsDropped)
		}
		comm := c.Comm()
		if _, ok := comm.Iprobe(1, respTag(first)); !ok {
			t.Fatal("the resend's answer is not waiting unclaimed")
		}
		data, _ := comm.Recv(p, 1, respTag(first))
		if rsp, err := decodeResponse(data); err != nil || rsp.reqID != first {
			t.Errorf("unclaimed reply: %+v, %v: want reqID %d", rsp, err, first)
		}
		if st, ok := comm.Iprobe(minimpi.AnySource, minimpi.AnyTag); ok {
			t.Errorf("another message is waiting: %+v", st)
		}
	})
}

// TestReplayAfterReplyRingWraps: after the reply cache's ring of slots has
// wrapped twice, a duplicate of a request still inside the window — the
// newest, and the oldest one left — is answered with the very bytes of its
// first reply, one kept inline and one long enough to spill, and executes
// nothing; a duplicate of a request still executing in a reused slot is
// dropped.
func TestReplayAfterReplyRingWraps(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, 10*sim.Second, func(p *sim.Proc) {
		comm := cb.world.Comm(0)
		call := func(id uint64) []byte {
			q := &request{op: OpMemAlloc, size: 4096}
			if id%2 == 0 {
				q = &request{op: OpMemFree, ptr: 0xDEAD} // refused: an error reply
			}
			r := comm.Irecv(1, respTag(id))
			cb.rawSend(id, q)
			data, st := r.Wait(p)
			defer cb.world.PutPayload(data, st)
			return bytes.Clone(data)
		}
		buf := cb.rawCall(t, p, 1, &request{op: OpMemAlloc, size: 16 << 20})
		const last = 2*dedupWindow + 10
		replies := make(map[uint64][]byte)
		for id := uint64(2); id <= last; id++ {
			replies[id] = call(id)
		}
		if inline := minimpi.ReplyInline; len(replies[last]) <= inline || len(replies[last-1]) > inline {
			t.Fatalf("replies of %d and %d bytes: want one spilled past %d and one inline",
				len(replies[last]), len(replies[last-1]), inline)
		}
		st, used := cb.daemons[0].Stats(), cb.devs[0].MemUsed()
		for _, id := range []uint64{last, last - 1, last - dedupWindow + 1} {
			if got := call(id); !bytes.Equal(got, replies[id]) {
				t.Errorf("replay of request %d:\n got %x\nwant %x", id, got, replies[id])
			}
		}
		if got := cb.daemons[0].Stats(); got.Requests != st.Requests || got.DupsDropped != st.DupsDropped+3 {
			t.Errorf("replays executed %d requests and absorbed %d duplicates, want 0 and 3",
				got.Requests-st.Requests, got.DupsDropped-st.DupsDropped)
		}
		if got := cb.devs[0].MemUsed(); got != used {
			t.Errorf("device memory moved from %d to %d bytes on replays", used, got)
		}
		// A duplicate of a request still executing, in a slot an evicted
		// request's reply held, is dropped: the original alone answers.
		const busy = last + 1
		r := comm.Irecv(1, respTag(busy))
		cb.rawSend(busy, &request{op: OpMemset, ptr: buf.ptr, size: 16 << 20})
		cb.rawSend(busy, &request{op: OpMemset, ptr: buf.ptr, size: 16 << 20})
		data, rst := r.Wait(p)
		if rsp, err := decodeResponse(data); err != nil || rsp.reqID != busy || rsp.err() != nil {
			t.Errorf("answer to the busy request: %+v, %v", rsp, err)
		}
		cb.world.PutPayload(data, rst)
		p.Wait(sim.Millisecond)
		if st, ok := comm.Iprobe(1, respTag(busy)); ok {
			t.Errorf("a second answer to the busy request: %+v", st)
		}
	})
}
