package arm

// client_test.go covers what the single Client and the server's request
// decoding owe each other: a lone manager reached through NewClient
// behaves exactly like a one-shard directory plane reached through
// NewDirectoryClient, and no byte string off the wire — a forged count,
// rank or request id included — can crash the server or make it allocate
// beyond the frame it was sent.

import (
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// parityRun drives one scripted sequence — a non-blocking miss, two
// blocking acquires queued behind a holder, releases, fail, repair,
// Stats/StatsEx — against one server on rank 0 and returns the grant log
// (in grant order) and every stats snapshot taken. withDir selects the
// plane: false is a directory-less server reached through NewClient,
// true a one-shard, no-follower directory shared by server and clients.
func parityRun(t *testing.T, withDir bool) (log []string, stats []PoolStats) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 4, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	inv := []Handle{{ID: 0, Rank: 100}, {ID: 1, Rank: 101}}
	var opts Options
	client := func(rank int) *Client { return NewClient(w.Comm(rank), 0) }
	if withDir {
		dir := NewDirectory(NewRing(1), []int{0}, nil)
		opts.Directory = dir
		client = func(rank int) *Client { return NewDirectoryClient(w.Comm(rank), dir) }
	}
	srv, err := NewServerOpts(w.Comm(0), inv, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("arm", srv.Run)
	note := func(rank int, what string, hs []Handle, err error) {
		entry := fmt.Sprintf("cn%d %s:", rank, what)
		for _, h := range hs {
			entry += fmt.Sprintf(" %d@%d", h.ID, h.Rank)
		}
		if err != nil {
			entry += " " + err.Error()
		}
		log = append(log, entry)
	}
	snap := func(p *sim.Proc, c *Client) {
		for _, get := range []func(*sim.Proc) (PoolStats, error){c.Stats, c.StatsEx} {
			st, err := get(p)
			if err != nil {
				t.Errorf("stats: %v", err)
			}
			stats = append(stats, st)
		}
	}
	// One client per rank for the whole run: a directory server dedups on
	// (rank, reqID), so a rank's request ids must never restart.
	c1 := client(1)
	holder := s.Spawn("cn1", func(p *sim.Proc) {
		c := c1
		hs, err := c.Acquire(p, 2, false)
		note(1, "acquire", hs, err)
		p.Wait(5 * sim.Millisecond)
		snap(p, c) // both waiters queued
		for _, h := range hs {
			if err := c.Release(p, []Handle{h}); err != nil {
				t.Errorf("release %d: %v", h.ID, err)
			}
			p.Wait(sim.Millisecond)
		}
	})
	waiter := func(rank int, delay sim.Duration) *sim.Proc {
		return s.Spawn(fmt.Sprintf("cn%d", rank), func(p *sim.Proc) {
			c := client(rank)
			p.Wait(delay)
			hs, err := c.Acquire(p, 1, false)
			note(rank, "miss", hs, err)
			hs, err = c.Acquire(p, 1, true)
			note(rank, "queued acquire", hs, err)
			p.Wait(10 * sim.Millisecond)
			if err := c.Release(p, hs); err != nil {
				t.Errorf("cn%d release: %v", rank, err)
			}
		})
	}
	waiters := []*sim.Proc{waiter(2, sim.Millisecond), waiter(3, 2*sim.Millisecond)}
	s.Spawn("admin", func(p *sim.Proc) {
		holder.Done().Await(p)
		for _, wp := range waiters {
			wp.Done().Await(p)
		}
		c := c1
		if err := c.Fail(p, 0); err != nil {
			t.Errorf("fail: %v", err)
		}
		hs, err := c.Acquire(p, 2, true) // exceeds the operational pool now
		note(1, "acquire past a failure", hs, err)
		snap(p, c)
		if err := c.Repair(p, 0); err != nil {
			t.Errorf("repair: %v", err)
		}
		snap(p, c)
		if err := c.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return log, stats
}

// TestOneShardParity: the lone manager is the one-shard case of the
// directory client, not a second implementation — same grants in the
// same order, same verdicts, same books. The blocking acquires must be
// queued by the server on both planes (FIFO: cn2 before cn3); a
// client-paced retry loop would still grant, but in backoff order.
func TestOneShardParity(t *testing.T) {
	loneLog, loneStats := parityRun(t, false)
	dirLog, dirStats := parityRun(t, true)
	want := []string{
		"cn1 acquire: 0@100 1@101",
		"cn2 miss: " + ErrUnavailable.Error(),
		"cn3 miss: " + ErrUnavailable.Error(),
		"cn2 queued acquire: 0@100",
		"cn3 queued acquire: 1@101",
		"cn1 acquire past a failure: " + ErrImpossible.Error(),
	}
	if fmt.Sprint(loneLog) != fmt.Sprint(want) {
		t.Errorf("lone manager log:\n got  %q\n want %q", loneLog, want)
	}
	if fmt.Sprint(dirLog) != fmt.Sprint(loneLog) {
		t.Errorf("one-shard directory plane diverged:\n lone %q\n dir  %q", loneLog, dirLog)
	}
	if loneStats[0].Queued != 2 {
		t.Errorf("server queued %d blocking acquires, want 2", loneStats[0].Queued)
	}
	if len(dirStats) != len(loneStats) {
		t.Fatalf("%d snapshots against %d", len(dirStats), len(loneStats))
	}
	// The directory plane's frames are a few bytes longer (envelope,
	// reply trailer), which shifts arrival times by nanoseconds: the time
	// integrals agree to well under a microsecond, everything else exactly.
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-6 }
	for i, a := range loneStats {
		b := dirStats[i]
		if !near(a.BusySeconds, b.BusySeconds) || !near(a.WaitSeconds, b.WaitSeconds) || len(a.PerAccel) != len(b.PerAccel) {
			t.Errorf("snapshot %d integrals: lone %+v dir %+v", i, a, b)
		}
		for j := range a.PerAccel {
			ra, rb := &a.PerAccel[j], &b.PerAccel[j]
			if !near(ra.BusySeconds, rb.BusySeconds) || !near(ra.WaitSeconds, rb.WaitSeconds) {
				t.Errorf("snapshot %d row %d integrals: lone %+v dir %+v", i, j, *ra, *rb)
			}
			ra.BusySeconds, ra.WaitSeconds, rb.BusySeconds, rb.WaitSeconds = 0, 0, 0, 0
		}
		a.BusySeconds, a.WaitSeconds, b.BusySeconds, b.WaitSeconds = 0, 0, 0, 0
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("snapshot %d:\n lone %+v\n dir  %+v", i, a, b)
		}
	}
}

// hostileFrames are requests no client sends: element counts that are
// negative or beyond any frame, a forward on behalf of a rank outside
// the world, and a request id whose reply tag overflows.
func hostileFrames() [][]byte {
	var frames [][]byte
	for _, op := range []uint8{opRelease, opHeartbeat} {
		for _, count := range []int{-1, 1 << 60} {
			frames = append(frames, wire.NewWriter(17).U8(op).U64(9).Int(count).Bytes())
		}
	}
	return append(frames,
		wire.NewWriter(32).U8(opForward).U64(1).Int(-5).U8(opStats).U64(9).Bytes(),
		wire.NewWriter(32).U8(opForward).U64(1).Int(1<<40).U8(opStats).U64(9).Bytes(),
		wire.NewWriter(9).U8(opStats).U64(1<<63).Bytes(),
		wire.NewWriter(9).U8(opStats).U64(math.MaxUint64-uint64(tagReplyBase)).Bytes())
}

// TestHostileCountsAreBadRequests: a 17-byte opRelease or opHeartbeat
// whose count is -1 or 1<<60 used to reach make([]int, 0, count) and
// kill the manager. The release must be answered statusBadRequest, the
// heartbeat (fire-and-forget) dropped, and the server must keep serving.
func TestHostileCountsAreBadRequests(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(w.Comm(0), []Handle{{ID: 0, Rank: 100}}, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("arm", srv.Run)
	s.Spawn("peer", func(p *sim.Proc) {
		comm := w.Comm(1)
		for _, frame := range hostileFrames()[:4] {
			comm.Send(p, 0, TagRequest, frame)
			if frame[0] != opRelease {
				continue
			}
			data, _ := comm.Recv(p, 0, tagReplyBase+9)
			if len(data) == 0 || data[0] != statusBadRequest {
				t.Errorf("release with a hostile count answered % x, want statusBadRequest", data)
			}
		}
		c := NewClient(comm, 0)
		if st, err := c.Stats(p); err != nil || st.Free != 1 {
			t.Errorf("server after hostile frames: %+v, %v", st, err)
		}
		if err := c.Shutdown(p); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// handleBounded feeds one frame to srv.handle and fails if it allocates
// out of proportion to the frame: every decoded count must be checked
// against the bytes that are actually there before memory is set aside
// for it. The fixed allowance covers what a legitimate request costs
// (reply, dedup entry, ledger row, a spawned helper).
func handleBounded(t *testing.T, srv *Server, src int, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.handle(src, data)
	runtime.ReadMemStats(&after)
	if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); grew > budget {
		t.Fatalf("handle allocated %d bytes for a %d-byte frame (budget %d): % x", grew, len(data), budget, data)
	}
}

// TestHostileFramesNeitherCrashNorBalloon runs the hostile frames through
// both kinds of server without the simulation, as the fuzz target does.
func TestHostileFramesNeitherCrashNorBalloon(t *testing.T) {
	for _, frame := range hostileFrames() {
		handleBounded(t, goldenServer(t), 0, frame)
		handleBounded(t, epochServer(t), 0, frame)
		epoched := wire.NewWriter(9 + len(frame)).U8(opEpoched).U64(1).Raw(frame).Bytes()
		handleBounded(t, epochServer(t), 0, epoched)
	}
}

// FuzzServerHandle throws arbitrary bytes from an arbitrary rank at
// Server.handle on a sharded and on a directory-less server (fresh ones
// each time, so retained state cannot hide a balloon behind amortised
// growth): it must never panic and never allocate past the frame. Seeds
// are the golden request vectors and the hostile frames.
func FuzzServerHandle(f *testing.F) {
	epoched := "13" + u64hex(1) + "01" + u64hex(7) + u64hex(1) + "00" + "00"
	for _, h := range []string{goldenAcquireReqHex, goldenRegisterReqHex, goldenAcquireCapableReqHex, epoched} {
		seed, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), seed)
	}
	for _, frame := range hostileFrames() {
		f.Add(uint8(1), frame)
	}
	f.Add(uint8(2), encodeLoad(wire.NewWriter(64), 1, 1, 4, 5, 1))
	f.Add(uint8(0), EncodeHeartbeat([]int{0, 1}))
	f.Fuzz(func(t *testing.T, src uint8, data []byte) {
		lone, sharded := goldenServer(t), epochServer(t)
		handleBounded(t, lone, int(src)%lone.comm.Size(), data)
		handleBounded(t, sharded, int(src)%sharded.comm.Size(), data)
	})
}
