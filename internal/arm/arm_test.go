package arm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// pool builds a world with one ARM rank (rank 0) serving nAC accelerators
// and nCN client ranks (1..nCN), runs each client function, and shuts the
// ARM down when all clients finish.
func pool(t *testing.T, nAC, nCN int, policy Policy, client func(p *sim.Proc, c *Client, rank int)) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, nCN+1, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	var inventory []Handle
	for i := 0; i < nAC; i++ {
		// Daemon ranks do not exist in this control-plane-only test world;
		// use a synthetic rank value.
		inventory = append(inventory, Handle{ID: i, Rank: 100 + i})
	}
	srv, err := NewServer(w.Comm(0), inventory, policy)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("arm", srv.Run)
	var procs []*sim.Proc
	for r := 1; r <= nCN; r++ {
		r := r
		procs = append(procs, s.Spawn(fmt.Sprintf("cn%d", r), func(p *sim.Proc) {
			client(p, NewClient(w.Comm(r), 0), r)
		}))
	}
	s.Spawn("closer", func(p *sim.Proc) {
		for _, cp := range procs {
			cp.Done().Await(p)
		}
		if err := NewClient(w.Comm(1), 0).Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireReleaseRoundTrip(t *testing.T) {
	pool(t, 3, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		handles, err := c.Acquire(p, 2, false)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if len(handles) != 2 {
			t.Fatalf("got %d handles", len(handles))
		}
		if handles[0].ID == handles[1].ID {
			t.Fatal("duplicate handle")
		}
		for _, h := range handles {
			if h.Rank != 100+h.ID {
				t.Errorf("handle %d has rank %d", h.ID, h.Rank)
			}
		}
		st, err := c.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Free != 1 || st.Assigned != 2 || st.Total != 3 {
			t.Errorf("stats = %+v", st)
		}
		if err := c.Release(p, handles); err != nil {
			t.Fatalf("release: %v", err)
		}
		st, _ = c.Stats(p)
		if st.Free != 3 || st.Assigned != 0 {
			t.Errorf("stats after release = %+v", st)
		}
	})
}

func TestNonBlockingAcquireUnavailable(t *testing.T) {
	pool(t, 2, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		h1, err := c.Acquire(p, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Acquire(p, 1, false); !errors.Is(err, ErrUnavailable) {
			t.Errorf("err = %v, want ErrUnavailable", err)
		}
		if err := c.Release(p, h1); err != nil {
			t.Fatal(err)
		}
	})
}

func TestImpossibleRequestRejectedBothModes(t *testing.T) {
	pool(t, 2, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		if _, err := c.Acquire(p, 3, false); !errors.Is(err, ErrImpossible) {
			t.Errorf("non-blocking: %v", err)
		}
		if _, err := c.Acquire(p, 3, true); !errors.Is(err, ErrImpossible) {
			t.Errorf("blocking: %v", err)
		}
		if _, err := c.Acquire(p, 0, false); !errors.Is(err, ErrBadRequest) {
			t.Errorf("zero: %v", err)
		}
	})
}

func TestBlockingAcquireWaitsForRelease(t *testing.T) {
	var acquiredAt, releasedAt sim.Time
	pool(t, 1, 2, FIFO, func(p *sim.Proc, c *Client, rank int) {
		switch rank {
		case 1:
			h, err := c.Acquire(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait(5 * sim.Millisecond)
			releasedAt = p.Now()
			if err := c.Release(p, h); err != nil {
				t.Fatal(err)
			}
		case 2:
			p.Wait(sim.Millisecond) // ensure rank 1 holds it
			h, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			acquiredAt = p.Now()
			c.Release(p, h)
		}
	})
	if acquiredAt < releasedAt {
		t.Errorf("blocking acquire satisfied at %v before release at %v", acquiredAt, releasedAt)
	}
}

func TestExclusiveAssignmentAcrossClients(t *testing.T) {
	// 4 clients each grab 1 of 2 accelerators repeatedly; no two clients
	// may hold the same accelerator simultaneously.
	holders := make(map[int]int)
	pool(t, 2, 4, FIFO, func(p *sim.Proc, c *Client, rank int) {
		for i := 0; i < 5; i++ {
			h, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
			id := h[0].ID
			if prev, held := holders[id]; held {
				t.Fatalf("accelerator %d double-assigned to %d and %d", id, prev, rank)
			}
			holders[id] = rank
			p.Wait(sim.Duration(rank) * 100 * sim.Microsecond)
			delete(holders, id)
			if err := c.Release(p, h); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestReleaseNotOwnedRejected(t *testing.T) {
	pool(t, 2, 2, FIFO, func(p *sim.Proc, c *Client, rank int) {
		switch rank {
		case 1:
			h, err := c.Acquire(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait(10 * sim.Millisecond)
			// A release naming an accelerator twice is refused whole.
			if err := c.Release(p, append(h, h...)); !errors.Is(err, ErrBadRequest) {
				t.Errorf("release naming one id twice: %v", err)
			}
			if err := c.Release(p, h); err != nil {
				t.Errorf("release: %v", err)
			}
		case 2:
			p.Wait(sim.Millisecond)
			// Rank 1 owns accelerator 0; stealing its release must fail.
			err := c.Release(p, []Handle{{ID: 0}})
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("foreign release: %v", err)
			}
			// Releasing a free accelerator must also fail.
			err = c.Release(p, []Handle{{ID: 1}})
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("free release: %v", err)
			}
		}
	})
}

func TestFIFOOrderingStrict(t *testing.T) {
	// Client 2 asks for 2 (queued), then client 3 asks for 1. Under FIFO,
	// client 3 must not overtake even though 1 accelerator is free.
	var order []int
	pool(t, 2, 3, FIFO, func(p *sim.Proc, c *Client, rank int) {
		switch rank {
		case 1:
			h, _ := c.Acquire(p, 1, false) // holds 1, leaving 1 free
			p.Wait(20 * sim.Millisecond)
			c.Release(p, h)
		case 2:
			p.Wait(sim.Millisecond)
			h, err := c.Acquire(p, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, 2)
			c.Release(p, h)
		case 3:
			p.Wait(2 * sim.Millisecond)
			h, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, 3)
			c.Release(p, h)
		}
	})
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Errorf("grant order = %v, want [2 3]", order)
	}
}

func TestBackfillOvertakesBlockedHead(t *testing.T) {
	var order []int
	pool(t, 2, 3, Backfill, func(p *sim.Proc, c *Client, rank int) {
		switch rank {
		case 1:
			h, _ := c.Acquire(p, 1, false)
			p.Wait(20 * sim.Millisecond)
			c.Release(p, h)
		case 2:
			p.Wait(sim.Millisecond)
			h, err := c.Acquire(p, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, 2)
			c.Release(p, h)
		case 3:
			p.Wait(2 * sim.Millisecond)
			h, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, 3)
			p.Wait(sim.Millisecond)
			c.Release(p, h)
		}
	})
	if len(order) != 2 || order[0] != 3 || order[1] != 2 {
		t.Errorf("grant order = %v, want [3 2] (backfill)", order)
	}
}

func TestFailShrinksPoolAndRejectsImpossibleWaiters(t *testing.T) {
	pool(t, 2, 2, FIFO, func(p *sim.Proc, c *Client, rank int) {
		switch rank {
		case 1:
			h, err := c.Acquire(p, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait(5 * sim.Millisecond)
			// Mark one failed while assigned; then release both.
			if err := c.Fail(p, h[0].ID); err != nil {
				t.Fatal(err)
			}
			if err := c.Release(p, h); err != nil {
				t.Fatalf("release with failed member: %v", err)
			}
			st, _ := c.Stats(p)
			if st.Failed != 1 || st.Free != 1 {
				t.Errorf("stats = %+v", st)
			}
			// Repair restores it.
			if err := c.Repair(p, h[0].ID); err != nil {
				t.Fatal(err)
			}
			st, _ = c.Stats(p)
			if st.Failed != 0 || st.Free != 2 {
				t.Errorf("stats after repair = %+v", st)
			}
		case 2:
			p.Wait(sim.Millisecond)
			// Queued request for 2 becomes impossible when one fails.
			_, err := c.Acquire(p, 2, true)
			if !errors.Is(err, ErrImpossible) {
				t.Errorf("waiter got %v, want ErrImpossible", err)
			}
		}
	})
}

func TestFailUnknownIDRejected(t *testing.T) {
	pool(t, 1, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		if err := c.Fail(p, 99); !errors.Is(err, ErrBadRequest) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestUtilizationAccounting(t *testing.T) {
	pool(t, 2, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		h, err := c.Acquire(p, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		p.Wait(sim.Second)
		if err := c.Release(p, h); err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		// 2 accelerators for ~1 second => ~2 busy-seconds.
		if st.BusySeconds < 1.99 || st.BusySeconds > 2.01 {
			t.Errorf("BusySeconds = %v, want ~2", st.BusySeconds)
		}
		util := st.Utilization(p.Now().Sub(0))
		if util < 0.9 || util > 1.0 {
			t.Errorf("utilization = %v", util)
		}
		if st.Acquires != 1 || st.Releases != 1 {
			t.Errorf("counters = %+v", st)
		}
	})
}

// An accelerator nobody holds accrues no busy time: only the held one of
// two counts, and the pool's integral is its alone.
func TestIdleAcceleratorAccruesNothing(t *testing.T) {
	pool(t, 2, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		h, err := c.Acquire(p, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		p.Wait(10 * sim.Millisecond)
		if err := c.Release(p, h); err != nil {
			t.Fatal(err)
		}
		st, err := c.StatsEx(p)
		if err != nil {
			t.Fatal(err)
		}
		busy, idle := st.PerAccel[h[0].ID], st.PerAccel[1-h[0].ID]
		if idle.BusySeconds != 0 || busy.BusySeconds < 0.0099 || st.BusySeconds != busy.BusySeconds {
			t.Errorf("busy seconds: held %v, idle %v, pool %v", busy.BusySeconds, idle.BusySeconds, st.BusySeconds)
		}
	})
}

// A shard index must name one of the directory's shards: Shards() is one
// past the last.
func TestNewServerRejectsShardPastTheDirectory(t *testing.T) {
	w, err := minimpi.NewWorld(sim.New(), 3, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(NewRing(2), []int{1, 2}, nil)
	if _, err := NewServerOpts(w.Comm(1), nil, Options{Shard: dir.Shards(), Directory: dir}); err == nil {
		t.Fatal("shard index Shards() accepted")
	}
	if _, err := NewServerOpts(w.Comm(2), nil, Options{Shard: dir.Shards() - 1, Directory: dir}); err != nil {
		t.Fatalf("last shard refused: %v", err)
	}
}

func TestNewServerRejectsDuplicateIDs(t *testing.T) {
	s := sim.New()
	w, _ := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	_, err := NewServer(w.Comm(0), []Handle{{ID: 1}, {ID: 1}}, FIFO)
	if err == nil {
		t.Fatal("duplicate inventory accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || Backfill.String() != "backfill" {
		t.Error("policy names")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy string empty")
	}
}

// Property: under random acquire/release traffic from several clients, the
// ARM never double-assigns and pool accounting stays consistent.
func TestPropertyNoDoubleAssignment(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAC := 1 + rng.Intn(4)
		nCN := 1 + rng.Intn(4)
		ok := true
		held := make(map[int]int) // accel id -> holder rank
		pool(t, nAC, nCN, Policy(rng.Intn(2)), func(p *sim.Proc, c *Client, rank int) {
			lrng := rand.New(rand.NewSource(seed + int64(rank)))
			for i := 0; i < 6; i++ {
				n := 1 + lrng.Intn(nAC)
				handles, err := c.Acquire(p, n, true)
				if err != nil {
					ok = false
					return
				}
				for _, h := range handles {
					if _, taken := held[h.ID]; taken {
						ok = false
					}
					held[h.ID] = rank
				}
				p.Wait(sim.Duration(lrng.Intn(1000)) * sim.Microsecond)
				for _, h := range handles {
					delete(held, h.ID)
				}
				if err := c.Release(p, handles); err != nil {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
