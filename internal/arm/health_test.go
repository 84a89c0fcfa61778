package arm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// healthBed is a control-plane world where the daemon ranks are real, so
// tests can originate heartbeats from them: ARM at rank 0, clients at
// ranks 1..nCN, accelerator i's daemon at rank 1+nCN+i.
type healthBed struct {
	s   *sim.Simulation
	w   *minimpi.World
	srv *Server
	nAC int
	nCN int
}

func newHealthBed(t *testing.T, nAC, nCN int, hc HealthConfig) *healthBed {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 1+nCN+nAC, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	var inventory []Handle
	for i := 0; i < nAC; i++ {
		inventory = append(inventory, Handle{ID: i, Rank: 1 + nCN + i})
	}
	srv, err := NewServer(w.Comm(0), inventory, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ConfigureHealth(hc); err != nil {
		t.Fatal(err)
	}
	return &healthBed{s: s, w: w, srv: srv, nAC: nAC, nCN: nCN}
}

func (hb *healthBed) daemonRank(i int) int { return 1 + hb.nCN + i }

// beat emits n heartbeats from daemon i, one per interval, reporting the
// given active client ranks.
func (hb *healthBed) beat(i, n int, every sim.Duration, active []int) {
	comm := hb.w.Comm(hb.daemonRank(i))
	hb.s.Spawn(fmt.Sprintf("beater-ac%d", i), func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			p.Wait(every)
			comm.Isend(0, TagRequest, EncodeHeartbeat(wire.NewWriter(0), active))
		}
	})
}

// run starts the ARM, one process per client function (rank 1+i), and a
// closer that shuts the ARM down when all clients finish.
func (hb *healthBed) run(t *testing.T, clients ...func(p *sim.Proc, c *Client)) {
	t.Helper()
	hb.s.Spawn("arm", hb.srv.Run)
	var procs []*sim.Proc
	for i, fn := range clients {
		r, fn := 1+i, fn
		procs = append(procs, hb.s.Spawn(fmt.Sprintf("cn%d", r), func(p *sim.Proc) {
			fn(p, NewClient(hb.w.Comm(r), 0))
		}))
	}
	hb.s.Spawn("closer", func(p *sim.Proc) {
		for _, cp := range procs {
			cp.Done().Await(p)
		}
		if err := NewClient(hb.w.Comm(1), 0).Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := hb.s.Run(); err != nil {
		t.Fatal(err)
	}
}

var detectorOnly = HealthConfig{
	HeartbeatInterval: sim.Millisecond,
	SuspectAfter:      3 * sim.Millisecond,
	DeadAfter:         10 * sim.Millisecond,
}

// A daemon that stops beating goes suspect, then dead; one that keeps
// beating stays in the pool. Repair resurrects the dead one.
func TestHealthDetectorSuspectThenDead(t *testing.T) {
	hb := newHealthBed(t, 2, 1, detectorOnly)
	hb.beat(0, 40, sim.Millisecond, nil) // ac0 beats throughout
	// ac1 never beats: silent from t=0.
	hb.run(t, func(p *sim.Proc, c *Client) {
		p.Wait(5 * sim.Millisecond) // past SuspectAfter, before DeadAfter
		st, err := c.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Free != 1 || st.Suspect != 1 || st.Failed != 0 {
			t.Fatalf("at 5ms: %+v", st)
		}
		p.Wait(8 * sim.Millisecond) // past DeadAfter
		if st, _ = c.Stats(p); st.Failed != 1 || st.Suspect != 0 || st.Free != 1 {
			t.Fatalf("at 13ms: %+v", st)
		}
		// Dead is administrative-exit-only: Repair brings it back.
		if err := c.Repair(p, 1); err != nil {
			t.Fatalf("repair: %v", err)
		}
		if st, _ = c.Stats(p); st.Free != 2 || st.Failed != 0 {
			t.Fatalf("after repair: %+v", st)
		}
	})
}

// A suspect daemon whose beats resume rejoins the pool without operator
// intervention.
func TestHealthSuspectRecovery(t *testing.T) {
	hb := newHealthBed(t, 1, 1, detectorOnly)
	// Silent for 6ms (suspect at ~3ms), then beats resume.
	hb.s.Spawn("late-beater", func(p *sim.Proc) {
		comm := hb.w.Comm(hb.daemonRank(0))
		p.Wait(6 * sim.Millisecond)
		for k := 0; k < 10; k++ {
			comm.Isend(0, TagRequest, EncodeHeartbeat(wire.NewWriter(0), nil))
			p.Wait(sim.Millisecond)
		}
	})
	hb.run(t, func(p *sim.Proc, c *Client) {
		p.Wait(5 * sim.Millisecond)
		if st, _ := c.Stats(p); st.Suspect != 1 {
			t.Fatalf("at 5ms: %+v", st)
		}
		p.Wait(3 * sim.Millisecond)
		if st, _ := c.Stats(p); st.Free != 1 || st.Suspect != 0 {
			t.Fatalf("after recovery: %+v", st)
		}
	})
}

// An assigned accelerator on a silent daemon triggers a suspect notice to
// its owner (once), and a dead notice when the detector gives up.
func TestHealthNotices(t *testing.T) {
	hb := newHealthBed(t, 1, 1, detectorOnly)
	hb.run(t, func(p *sim.Proc, c *Client) {
		hs, err := c.Acquire(p, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := c.RecvNotice(p)
		if err != nil {
			t.Fatal(err)
		}
		if nt.Kind != NoticeSuspect || nt.ID != hs[0].ID || nt.Rank != hs[0].Rank {
			t.Fatalf("first notice: %+v", nt)
		}
		if nt, err = c.RecvNotice(p); err != nil || nt.Kind != NoticeDead {
			t.Fatalf("second notice: %+v err=%v", nt, err)
		}
		// The dead assignment was revoked: the pool partition reflects it.
		st, err := c.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Assigned != 0 || st.Failed != 1 {
			t.Fatalf("after death: %+v", st)
		}
	})
}

// Leases expire without renewal; implicit renewal via requests, daemon
// heartbeats reporting the client active, and explicit Renew all keep an
// assignment alive.
func TestHealthLeaseExpiry(t *testing.T) {
	hc := HealthConfig{HeartbeatInterval: sim.Millisecond, LeaseTTL: 5 * sim.Millisecond}
	hb := newHealthBed(t, 1, 1, hc)
	hb.run(t, func(p *sim.Proc, c *Client) {
		if _, err := c.Acquire(p, 1, false); err != nil {
			t.Fatal(err)
		}
		// Explicit renewals keep it alive well past one TTL.
		for k := 0; k < 4; k++ {
			p.Wait(3 * sim.Millisecond)
			if err := c.Renew(p); err != nil {
				t.Fatalf("renew %d: %v", k, err)
			}
		}
		st, err := c.Stats(p) // a request: also renews implicitly
		if err != nil {
			t.Fatal(err)
		}
		if st.Assigned != 1 || st.Reclaimed != 0 {
			t.Fatalf("while renewing: %+v", st)
		}
		// Now go silent: the lease expires and the ARM reclaims.
		p.Wait(12 * sim.Millisecond)
		if nt, err := c.RecvNotice(p); err != nil || nt.Kind != NoticeRevoked {
			t.Fatalf("notice: %+v err=%v", nt, err)
		}
		if st, _ = c.Stats(p); st.Free != 1 || st.Assigned != 0 || st.Reclaimed != 1 {
			t.Fatalf("after expiry: %+v", st)
		}
	})
}

// A heartbeat naming a client as active renews that client's lease even
// when the client itself never talks to the ARM.
func TestHealthLeasePiggybackRenewal(t *testing.T) {
	hc := HealthConfig{HeartbeatInterval: sim.Millisecond, LeaseTTL: 4 * sim.Millisecond}
	hb := newHealthBed(t, 1, 1, hc)
	hb.beat(0, 20, sim.Millisecond, []int{1}) // daemon reports client rank 1 active
	hb.run(t, func(p *sim.Proc, c *Client) {
		if _, err := c.Acquire(p, 1, false); err != nil {
			t.Fatal(err)
		}
		p.Wait(15 * sim.Millisecond) // nearly 4 TTLs of ARM silence
		st, err := c.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Assigned != 1 || st.Reclaimed != 0 {
			t.Fatalf("piggyback renewal failed: %+v", st)
		}
	})
}

// Drain on a free accelerator retires immediately; on an assigned one it
// waits for release (or the deadline) and the retired accelerator leaves
// the operational pool.
func TestHealthDrain(t *testing.T) {
	hb := newHealthBed(t, 2, 2, HealthConfig{HeartbeatInterval: sim.Millisecond})
	hb.beat(0, 30, sim.Millisecond, nil)
	hb.beat(1, 30, sim.Millisecond, nil)
	hb.run(t,
		func(p *sim.Proc, c *Client) { // holder
			hs, err := c.Acquire(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait(5 * sim.Millisecond)
			if err := c.Release(p, hs); err != nil {
				t.Fatalf("release: %v", err)
			}
		},
		func(p *sim.Proc, c *Client) { // drainer
			p.Wait(sim.Millisecond) // let the holder acquire first
			// ac1 is free: immediate retirement.
			if err := c.Drain(p, 1, 0); err != nil {
				t.Fatalf("drain free: %v", err)
			}
			st, err := c.Stats(p)
			if err != nil {
				t.Fatal(err)
			}
			if st.Retired != 1 {
				t.Fatalf("after free drain: %+v", st)
			}
			// ac0 is held: the drain blocks until the holder releases at
			// ~5ms (the drainer started at 1ms).
			if err := c.Drain(p, 0, 0); err != nil {
				t.Fatalf("drain assigned: %v", err)
			}
			if p.Now() < sim.Time(5*sim.Millisecond) {
				t.Fatalf("drain returned at %v, before the holder released", p.Now())
			}
			if st, _ = c.Stats(p); st.Retired != 2 {
				t.Fatalf("after assigned drain: %+v", st)
			}
			// Nothing left to grant.
			if _, err := c.Acquire(p, 1, false); !errors.Is(err, ErrImpossible) {
				t.Fatalf("acquire from fully retired pool: %v", err)
			}
		})
}

// A drain deadline forcibly revokes a holder that does not release.
func TestHealthDrainDeadline(t *testing.T) {
	hb := newHealthBed(t, 1, 2, HealthConfig{HeartbeatInterval: sim.Millisecond, LeaseTTL: 50 * sim.Millisecond})
	hb.beat(0, 40, sim.Millisecond, []int{1}) // holder's lease stays renewed
	hb.run(t,
		func(p *sim.Proc, c *Client) { // stubborn holder
			if _, err := c.Acquire(p, 1, false); err != nil {
				t.Fatal(err)
			}
			if nt, err := c.RecvNotice(p); err != nil || nt.Kind != NoticeRevoked {
				t.Fatalf("notice: %+v err=%v", nt, err)
			}
		},
		func(p *sim.Proc, c *Client) { // drainer
			p.Wait(sim.Millisecond)
			start := p.Now()
			if err := c.Drain(p, 0, 5*sim.Millisecond); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if waited := p.Now().Sub(start); waited < 5*sim.Millisecond || waited > 8*sim.Millisecond {
				t.Fatalf("drain settled after %v, want ~deadline", waited)
			}
			st, err := c.Stats(p)
			if err != nil {
				t.Fatal(err)
			}
			if st.Retired != 1 || st.Assigned != 0 {
				t.Fatalf("after forced drain: %+v", st)
			}
		})
}

// The migrate op trades a held assignment for a spare; the surrendered
// accelerator is sanitized back into the pool when its daemon beats.
func TestHealthMigrateOp(t *testing.T) {
	hb := newHealthBed(t, 2, 1, detectorOnly)
	hb.beat(0, 40, sim.Millisecond, nil)
	hb.beat(1, 40, sim.Millisecond, nil)
	hb.run(t, func(p *sim.Proc, c *Client) {
		hs, err := c.Acquire(p, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Migrate(p, hs[0].Rank)
		if err != nil {
			t.Fatalf("migrate: %v", err)
		}
		if h.Rank == hs[0].Rank {
			t.Fatalf("migrate returned the same rank %d", h.Rank)
		}
		p.Wait(3 * sim.Millisecond) // old daemon beats; no sanitizer wired -> straight to free
		st, err := c.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Assigned != 1 || st.Free != 1 || st.Migrations != 1 {
			t.Fatalf("after migrate: %+v", st)
		}
		// Migrating a rank we do not hold is a bad request.
		if _, err := c.Migrate(p, hs[0].Rank); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("bogus migrate: %v", err)
		}
		if err := c.Release(p, []Handle{h}); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
}

// Reclaim resets the device through the daemon hook before the accelerator
// re-enters the pool, and a failing reset parks it as failed instead.
func TestHealthSanitizerGate(t *testing.T) {
	hc := HealthConfig{HeartbeatInterval: sim.Millisecond, LeaseTTL: 4 * sim.Millisecond}
	hb := newHealthBed(t, 2, 1, hc)
	sanitized := make(map[int]int)
	hb.srv.SetDaemonCaller(func(op DaemonOp, rank, _ int, _ uint64, done func(error)) *minimpi.Call {
		if op != DaemonReset {
			t.Errorf("daemon op %d on an exclusive pool, want only resets", op)
		}
		hb.s.AfterCall(100*sim.Microsecond, func(any) { // a real reset takes time
			sanitized[rank]++
			if rank == hb.daemonRank(1) {
				done(errors.New("reset rejected"))
			} else {
				done(nil)
			}
		}, nil)
		return new(minimpi.Call)
	})
	hb.run(t, func(p *sim.Proc, c *Client) {
		if _, err := c.Acquire(p, 2, false); err != nil {
			t.Fatal(err)
		}
		p.Wait(10 * sim.Millisecond) // both leases expire
		st, err := c.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Free != 1 || st.Failed != 1 || st.Reclaimed != 2 {
			t.Fatalf("after sanitize: %+v", st)
		}
		if sanitized[hb.daemonRank(0)] != 1 || sanitized[hb.daemonRank(1)] != 1 {
			t.Fatalf("sanitizer calls: %v", sanitized)
		}
	})
}

func TestBackoffDelayDeterministic(t *testing.T) {
	b := Backoff{Base: sim.Millisecond, Cap: 8 * sim.Millisecond, Factor: 2}
	want := []sim.Duration{sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond,
		8 * sim.Millisecond, 8 * sim.Millisecond}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// Jitter only ever shortens, never beyond the jitter band.
	jb := DefaultBackoff()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		full := Backoff{Base: jb.Base, Cap: jb.Cap, Factor: jb.Factor}.Delay(i, nil)
		got := jb.Delay(i, rng)
		if got > full || float64(got) < float64(full)*(1-jb.Jitter) {
			t.Errorf("jittered Delay(%d) = %v outside [%v, %v]", i, got,
				sim.Duration(float64(full)*(1-jb.Jitter)), full)
		}
	}
}

// AcquireRetry rides out transient exhaustion that a plain non-blocking
// Acquire would surface immediately.
func TestAcquireRetryBacksOff(t *testing.T) {
	hb := newHealthBed(t, 1, 2, HealthConfig{HeartbeatInterval: sim.Millisecond})
	hb.beat(0, 30, sim.Millisecond, nil)
	b := Backoff{Base: sim.Millisecond, Cap: 4 * sim.Millisecond, Factor: 2}
	hb.run(t,
		func(p *sim.Proc, c *Client) { // transient holder
			hs, err := c.Acquire(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait(3 * sim.Millisecond)
			if err := c.Release(p, hs); err != nil {
				t.Fatal(err)
			}
		},
		func(p *sim.Proc, c *Client) {
			p.Wait(sim.Millisecond)
			if _, err := c.Acquire(p, 1, false); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("plain acquire: %v", err)
			}
			hs, err := c.AcquireRetry(p, 1, 5, b, nil)
			if err != nil {
				t.Fatalf("AcquireRetry: %v", err)
			}
			if err := c.Release(p, hs); err != nil {
				t.Fatal(err)
			}
		})
}

// TestHealthPassReclaimsEveryExpiredSharer: one detector pass revokes every
// expired lease on a shared accelerator, though each reclaim drops its
// holder from the list the pass walks, and keeps the live one.
func TestHealthPassReclaimsEveryExpiredSharer(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 5, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerOpts(w.Comm(0), []Handle{{ID: 0, Rank: 4}}, Options{ShareCapacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ConfigureHealth(HealthConfig{HeartbeatInterval: sim.Millisecond, LeaseTTL: 5 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s.Spawn("detector", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		a := srv.byID[0]
		a.state = acShared
		a.hold(1, sim.Time(sim.Millisecond))
		a.hold(2, sim.Time(2*sim.Millisecond))
		a.hold(3, p.Now().Add(sim.Millisecond))
		srv.checkHealth()
		if len(a.holders) != 1 || a.holders[0].rank != 3 || srv.reclaimedCount != 2 {
			t.Errorf("after one pass: holders %+v, %d reclaimed; want only rank 3 left, 2 reclaimed", a.holders, srv.reclaimedCount)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// A Repair that arrives while a Drain waits on a held accelerator ends the
// holds and completes the drain: the accelerator retires and the drain is
// answered OK, so a later Drain or Retire of the same id is accepted.
func TestHealthRepairDuringDrainAnswersIt(t *testing.T) {
	hb := newHealthBed(t, 1, 2, HealthConfig{}) // no detector tick: a lost drain is a deadlock
	hb.run(t,
		func(p *sim.Proc, c *Client) { // holder, then operator
			if _, err := c.Acquire(p, 1, false); err != nil {
				t.Fatal(err)
			}
			p.Wait(3 * sim.Millisecond) // the drain is pending by now
			if err := c.Repair(p, 0); err != nil {
				t.Fatalf("repair: %v", err)
			}
		},
		func(p *sim.Proc, c *Client) { // drainer
			p.Wait(sim.Millisecond)
			if err := c.Drain(p, 0, 0); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if p.Now() < sim.Time(3*sim.Millisecond) {
				t.Fatalf("drain answered at %v, before the repair", p.Now())
			}
			st, err := c.Stats(p)
			if err != nil {
				t.Fatal(err)
			}
			if st.Retired != 1 || st.Assigned != 0 || st.Free != 0 {
				t.Fatalf("after repair during drain: %+v", st)
			}
			if err := c.Drain(p, 0, 0); err != nil {
				t.Fatalf("second drain: %v", err)
			}
			if err := c.Retire(p, 0, 0); err != nil {
				t.Fatalf("retire: %v", err)
			}
			if st, _ = c.Stats(p); st.Total != 0 {
				t.Fatalf("after retire: %+v", st)
			}
		})
}

// Migrating away from an accelerator with a pending drain keeps the drain:
// the source is sanitized into retirement (not back into the pool), and
// the drain is answered only once the reset is over. A pending Retire
// still takes it out of the inventory.
func TestHealthMigrateKeepsDrain(t *testing.T) {
	const reset = sim.Millisecond
	for _, remove := range []bool{false, true} {
		t.Run(fmt.Sprintf("remove=%v", remove), func(t *testing.T) {
			hb := newHealthBed(t, 2, 2, HealthConfig{HeartbeatInterval: sim.Millisecond})
			hb.beat(0, 20, sim.Millisecond, nil)
			hb.beat(1, 20, sim.Millisecond, nil)
			var resetDone sim.Time
			hb.srv.SetDaemonCaller(func(op DaemonOp, _, _ int, _ uint64, done func(error)) *minimpi.Call {
				if op != DaemonReset {
					t.Errorf("daemon op %d, want only the migration source's reset", op)
				}
				hb.s.AfterCall(reset, func(any) { resetDone = hb.s.Now(); done(nil) }, nil)
				return new(minimpi.Call)
			})
			hb.run(t,
				func(p *sim.Proc, c *Client) { // holder
					hs, err := c.Acquire(p, 1, false)
					if err != nil {
						t.Fatal(err)
					}
					p.Wait(2 * sim.Millisecond) // the drain is pending by now
					h, err := c.Migrate(p, hs[0].Rank)
					if err != nil {
						t.Fatalf("migrate: %v", err)
					}
					p.Wait(10 * sim.Millisecond) // the source's daemon beats on
					st, err := c.Stats(p)
					if err != nil {
						t.Fatal(err)
					}
					want := PoolStats{Total: 2, Assigned: 1, Retired: 1}
					if remove {
						want = PoolStats{Total: 1, Assigned: 1}
					}
					if st.Total != want.Total || st.Assigned != want.Assigned || st.Retired != want.Retired || st.Free != 0 {
						t.Fatalf("migration source of a pending drain: %+v, want %+v", st, want)
					}
					if err := c.Release(p, []Handle{h}); err != nil {
						t.Fatalf("release: %v", err)
					}
				},
				func(p *sim.Proc, c *Client) { // drainer
					p.Wait(sim.Millisecond)
					var err error
					if remove {
						err = c.Retire(p, 0, 0)
					} else {
						err = c.Drain(p, 0, 0)
					}
					if err != nil {
						t.Fatalf("drain: %v", err)
					}
					if resetDone == 0 || p.Now() < resetDone {
						t.Fatalf("drain answered at %v, before the source's reset was over (%v)", p.Now(), resetDone)
					}
				})
		})
	}
}

// DeadAfter may equal SuspectAfter: a silent node goes straight to dead.
func TestHealthConfigDeadAtSuspect(t *testing.T) {
	hc := HealthConfig{HeartbeatInterval: sim.Millisecond, SuspectAfter: 3 * sim.Millisecond, DeadAfter: 3 * sim.Millisecond}
	if err := hc.Validate(); err != nil {
		t.Fatalf("DeadAfter == SuspectAfter refused: %v", err)
	}
}

// A drain's deadline is that drain's: once it is answered, its timer must
// not cut short a later drain, which set none, on a later holder.
func TestHealthStaleDrainDeadline(t *testing.T) {
	hb := newHealthBed(t, 1, 3, HealthConfig{})
	hb.run(t,
		func(p *sim.Proc, c *Client) { // first holder, then operator
			hs, err := c.Acquire(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait(2 * sim.Millisecond) // the first drain, deadline 10 ms, is pending
			if err := c.Release(p, hs); err != nil {
				t.Fatalf("release: %v", err)
			}
			if err := c.Repair(p, 0); err != nil {
				t.Fatalf("repair: %v", err)
			}
		},
		func(p *sim.Proc, c *Client) { // first drainer, then second holder
			p.Wait(sim.Millisecond)
			if err := c.Drain(p, 0, 10*sim.Millisecond); err != nil {
				t.Fatalf("first drain: %v", err)
			}
			p.Wait(sim.Millisecond) // past the repair
			hs, err := c.Acquire(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Wait(20 * sim.Millisecond)
			if err := c.Release(p, hs); err != nil {
				t.Fatalf("second release: %v", err)
			}
		},
		func(p *sim.Proc, c *Client) { // second drainer, no deadline
			p.Wait(5 * sim.Millisecond)
			if err := c.Drain(p, 0, 0); err != nil {
				t.Fatalf("second drain: %v", err)
			}
			if p.Now() < sim.Time(20*sim.Millisecond) {
				t.Fatalf("second drain answered at %v, before its holder released", p.Now())
			}
		})
}
