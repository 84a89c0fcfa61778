package arm

// client_test.go covers what the single Client and the server's request
// decoding owe each other: a lone manager reached through NewClient is a
// one-shard directory plane reached through NewDirectoryClient, frame for
// frame, and no byte string off the wire — a forged count,
// rank or request id included — can crash the server or make it allocate
// beyond the frame it was sent.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
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
// (in grant order), every stats snapshot taken and a hash over every wire
// message's instant, endpoints, tag and size. dir selects the plane: nil
// is NewServer reached through NewClient, anything else a directory shared
// by server and clients.
func parityRun(t *testing.T, dir *Directory) (log []string, stats []PoolStats, wireHash uint64) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 4, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	w.SetLinkFilter(func(src, dst int, tag minimpi.Tag, size int) minimpi.LinkVerdict {
		fmt.Fprintf(h, "%d %d>%d %d %d\n", s.Now(), src, dst, tag, size)
		return minimpi.LinkVerdict{}
	})
	inv := []Handle{{ID: 0, Rank: 100}, {ID: 1, Rank: 101}}
	srv, err := NewServer(w.Comm(0), inv, FIFO)
	client := func(rank int) *Client { return NewClient(w.Comm(rank), 0) }
	if dir != nil {
		srv, err = NewServerOpts(w.Comm(0), inv, Options{Directory: dir})
		client = func(rank int) *Client { return NewDirectoryClient(w.Comm(rank), dir) }
	}
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
	return log, stats, h.Sum64()
}

// TestOneShardParity: the lone manager is the one-shard case of the
// directory client, not a second implementation — same grants in the
// same order, same verdicts, same books. The blocking acquires must be
// queued by the server on both planes (FIFO: cn2 before cn3); a
// client-paced retry loop would still grant, but in backoff order.
func TestOneShardParity(t *testing.T) {
	loneLog, loneStats, loneHash := parityRun(t, nil)
	dirLog, dirStats, dirHash := parityRun(t, NewDirectory(NewRing(1), []int{0}, nil))
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
	// The two planes differ in the epoch their headers carry (0 and 1) and
	// in nothing else: same frames at the same instants, same books.
	if dirHash != loneHash {
		t.Errorf("wire hash: lone %#x, one-shard directory %#x", loneHash, dirHash)
	}
	for i, a := range loneStats {
		if b := dirStats[i]; fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("snapshot %d:\n lone %+v\n dir  %+v", i, a, b)
		}
	}
}

// TestLoneManagerHasNoSecondMode: NewServer and NewServerOpts over
// SingleDirectory are the same server — one scripted session puts the
// same messages on the wire at the same instants and reads the same books.
func TestLoneManagerHasNoSecondMode(t *testing.T) {
	log, stats, hash := parityRun(t, nil)
	dirLog, dirStats, dirHash := parityRun(t, SingleDirectory(0))
	if hash != dirHash {
		t.Errorf("wire hash: NewServer %#x, SingleDirectory %#x", hash, dirHash)
	}
	if fmt.Sprint(log) != fmt.Sprint(dirLog) || fmt.Sprintf("%+v", stats) != fmt.Sprintf("%+v", dirStats) {
		t.Errorf("sessions diverged:\n NewServer       %q %+v\n SingleDirectory %q %+v", log, stats, dirLog, dirStats)
	}
}

// TestLoneManagerExecutesEveryRequest: several Clients on one rank, each
// counting reqIDs from 1, are legal against a lone manager — no replay
// can reach it, so it keeps no reply cache that would answer the second
// client from the first one's replies.
func TestLoneManagerExecutesEveryRequest(t *testing.T) {
	pool(t, 2, 1, FIFO, func(p *sim.Proc, c1 *Client, rank int) {
		c2 := NewClient(c1.comm, 0)
		h1, err := c1.Acquire(p, 1, false) // reqID 1
		if err != nil {
			t.Fatalf("first client: %v", err)
		}
		h2, err := c2.Acquire(p, 1, false) // reqID 1 again, same rank
		if err != nil {
			t.Fatalf("second client: %v", err)
		}
		if h1[0].ID == h2[0].ID {
			t.Errorf("both clients hold accelerator %d: the second request was answered from the first one's reply", h1[0].ID)
		}
		if st, err := c1.Stats(p); err != nil || st.Acquires != 2 || st.Assigned != 2 {
			t.Errorf("after two acquires: %+v, %v", st, err)
		}
		if err := c2.Release(p, append(h1, h2...)); err != nil {
			t.Errorf("release: %v", err)
		}
	})
}

// TestSilentShardIsATypedTimeout: an ARM call rides the call engine the
// front-end uses. Against a shard nobody serves, with failover armed, it
// sends once (the serving rank never changes, so silence is slowness, not a
// failover), waits out its silence budget and ends with the engine's typed
// error — no process blocked in a receive, none left behind.
func TestSilentShardIsATypedTimeout(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	requests := 0
	w.SetLinkFilter(func(_, _ int, tag minimpi.Tag, _ int) minimpi.LinkVerdict {
		if tag == TagRequest {
			requests++
		}
		return minimpi.LinkVerdict{}
	})
	c := NewClient(w.Comm(1), 0) // rank 0 runs no server
	c.SetFailover(sim.Millisecond, 3)
	var took sim.Duration
	s.Spawn("cn1", func(p *sim.Proc) {
		_, err = c.Stats(p)
		took = sim.Duration(p.Now())
	})
	if runErr := s.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	var te *minimpi.TimeoutError
	if !errors.As(err, &te) || !errors.Is(err, minimpi.ErrTimeout) || te.Attempts != 4 || te.Rank != 0 || te.Op != opStats {
		t.Fatalf("Stats against a silent shard: %v, want a *minimpi.TimeoutError for op %d at rank 0 after 4 attempts", err, opStats)
	}
	if requests != 1 || took != 4*sim.Millisecond || s.LiveProcs() != 0 {
		t.Errorf("%d requests sent, gave up after %v, %d processes left: want 1, 4ms, 0", requests, took, s.LiveProcs())
	}
}

// TestFencedAcquireIsReplayed: a fenced reply makes the call ask again with
// the same frame, now flagged as a replay so the successor recalls its
// peers first, and the grant that answers the replay is the call's outcome.
// Five fenced replies in a row end the call with ErrFenced.
func TestFencedAcquireIsReplayed(t *testing.T) {
	for _, fenced := range []int{1, 5} {
		s := sim.New()
		w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		s.Spawn("responder", func(p *sim.Proc) {
			for i := 0; i <= fenced && i <= maxFenceReplays; i++ {
				data, _ := w.Comm(1).Recv(p, 0, TagRequest)
				frames = append(frames, append([]byte(nil), data...))
				reply := wire.NewWriter(32).U8(statusFenced).U64(0)
				if i == fenced {
					reply = wire.NewWriter(64).U8(statusOK).U64(0).Int(1).Int(3).Int(103)
					encodeCapability(reply, Capability{})
				}
				w.Comm(1).Send(p, 0, tagReplyBase+minimpi.Tag(wire.NewReader(data[1:]).U64()), reply.Bytes())
			}
		})
		var handles []Handle
		s.Spawn("cn0", func(p *sim.Proc) { handles, err = NewClient(w.Comm(0), 1).Acquire(p, 1, false) })
		if runErr := s.Run(); runErr != nil {
			t.Fatal(runErr)
		}
		if fenced > maxFenceReplays {
			if !errors.Is(err, ErrFenced) || len(frames) != maxFenceReplays+1 {
				t.Errorf("%d fenced replies: %v after %d frames, want ErrFenced after %d", fenced, err, len(frames), maxFenceReplays+1)
			}
			continue
		}
		if err != nil || len(handles) != 1 || handles[0].ID != 3 || len(frames) != 2 {
			t.Fatalf("after a fenced reply: %v, %v from %d frames; want accelerator 3 from 2", handles, err, len(frames))
		}
		replay := append([]byte(nil), frames[0]...)
		replay[acquireFlags] |= flagReplay
		if string(frames[1]) != string(replay) {
			t.Errorf("replayed frame % x, want the first % x with flagReplay set", frames[1], frames[0])
		}
	}
}

// hostileFrames are requests no client sends: element counts that are
// negative or beyond any frame, a forward on behalf of a rank outside
// the world, a request id whose reply tag overflows, and a header cut
// short (the pre-epoch frame of an older binary).
func hostileFrames() [][]byte {
	var frames [][]byte
	for _, op := range []uint8{opRelease, opHeartbeat} {
		for _, count := range []int{-1, 1 << 60} {
			frames = append(frames, wire.NewWriter(25).U8(op).U64(9).U64(0).Int(count).Bytes())
		}
	}
	return append(frames,
		wire.NewWriter(32).U8(opForward).U64(9).U64(1).Int(-5).U8(opStats).Bytes(),
		wire.NewWriter(32).U8(opForward).U64(9).U64(1).Int(1<<40).U8(opStats).Bytes(),
		// One past the last rank of goldenServer's two-rank world.
		wire.NewWriter(32).U8(opForward).U64(9).U64(1).Int(2).U8(opStats).Bytes(),
		wire.NewWriter(17).U8(opStats).U64(1<<63).U64(0).Bytes(),
		wire.NewWriter(17).U8(opStats).U64(math.MaxUint64-uint64(tagReplyBase)).U64(0).Bytes(),
		wire.NewWriter(9).U8(opStats).U64(9).Bytes())
}

type namedFrame struct {
	name  string
	frame []byte
}

// malformedFrames are well-headed requests whose body is not what the op
// takes: each must be answered statusBadRequest and change nothing.
func malformedFrames() []namedFrame {
	head := func(op uint8) *wire.Writer { return wire.NewWriter(64).U8(op).U64(9).U64(0) }
	return []namedFrame{
		{"register: kernel count beyond the frame", head(opRegister).Int(7).Int(107).Str("fermi").Int(1 << 40).Bytes()},
		{"register: negative kernel count", head(opRegister).Int(7).Int(107).Str("fermi").Int(-1).Bytes()},
		{"register: no descriptor", head(opRegister).Int(7).Int(107).Bytes()},
		{"acquire: no constraint", head(opAcquire).Int(1).U8(0).Bytes()},
		{"acquire: constraint cut short", head(opAcquire).Int(1).U8(0).Str("fermi").U32(9).Bytes()},
		{"acquire: class longer than the frame", head(opAcquire).Int(1).U8(0).U32(1 << 30).Bytes()},
	}
}

// TestHostileCountsAreBadRequests: a 25-byte opRelease or opHeartbeat
// whose count is -1 or 1<<60 used to reach make([]int, 0, count) and
// kill the manager, and a register whose capability descriptor claims
// 1<<40 kernel classes used to be answered statusOK with the device
// joining the inventory untagged (decodeCapability gave up without
// failing the reader). Each must be answered statusBadRequest — the
// heartbeat (fire-and-forget) dropped — and change nothing, and the
// server must keep serving.
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
	frames := malformedFrames()
	for _, frame := range hostileFrames()[:4] {
		frames = append(frames, namedFrame{"hostile count", frame})
	}
	s.Spawn("arm", srv.Run)
	s.Spawn("peer", func(p *sim.Proc) {
		comm := w.Comm(1)
		c := NewClient(comm, 0)
		for _, tc := range frames {
			comm.Send(p, 0, TagRequest, tc.frame)
			if tc.frame[0] != opHeartbeat {
				data, _ := comm.Recv(p, 0, tagReplyBase+9)
				if len(data) == 0 || data[0] != statusBadRequest {
					t.Errorf("%s: answered % x, want statusBadRequest", tc.name, data)
				}
			}
			if st, err := c.Stats(p); err != nil || st.Total != 1 || st.Free != 1 {
				t.Errorf("%s: pool afterwards %+v, %v", tc.name, st, err)
			}
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
	frames := hostileFrames()
	for _, tc := range malformedFrames() {
		frames = append(frames, tc.frame)
	}
	for _, frame := range frames {
		handleBounded(t, goldenServer(t), 0, frame)
		handleBounded(t, epochServer(t), 0, frame)
	}
}

// FuzzServerHandle throws arbitrary bytes from an arbitrary rank at
// Server.handle on a sharded server and on a lone manager (fresh ones
// each time, so retained state cannot hide a balloon behind amortised
// growth): it must never panic and never allocate past the frame. Seeds
// are the golden request vectors and the hostile and malformed frames.
func FuzzServerHandle(f *testing.F) {
	epoched := "01" + u64hex(7) + u64hex(1) + u64hex(1) + "00" + "00000000" + "00000000"
	for _, h := range []string{goldenAcquireReqHex, goldenRegisterReqHex, goldenAcquireCapableReqHex, goldenAcquireSharedReqHex, epoched} {
		seed, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), seed)
	}
	for _, frame := range hostileFrames() {
		f.Add(uint8(1), frame)
	}
	for _, tc := range malformedFrames() {
		f.Add(uint8(0), tc.frame)
	}
	f.Add(uint8(2), loadFrame(1, 1, 1, classLoad{free: 4, oper: 5}))
	f.Add(uint8(2), wire.NewWriter(64).U8(opRecall).U64(77).U64(1).Int(0).U64(21).Bytes())
	f.Add(uint8(0), EncodeHeartbeat(wire.NewWriter(0), []int{0, 1}))
	f.Fuzz(func(t *testing.T, src uint8, data []byte) {
		lone, sharded := goldenServer(t), epochServer(t)
		handleBounded(t, lone, int(src)%lone.comm.Size(), data)
		handleBounded(t, sharded, int(src)%sharded.comm.Size(), data)
	})
}
