package arm

// Randomized invariants over the ARM's bookkeeping (testing/quick):
// under any interleaving of acquire / release / replace / repair and two
// tenants' shared acquires / releases, the pool partition
// Free+Assigned+Failed == Total holds, Sessions counts the live shared
// holds, no accelerator is ever assigned twice or assigned and shared at
// once, and FIFO queues grant strictly in arrival order. Every invariant
// runs over every plane the one wire format serves — a lone manager is
// just the first row.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dynacc/internal/sim"
)

// plane is one shape of the resource-management plane.
type plane struct {
	shards   int
	follower bool
	tagged   bool // inventory alternates c1060 / fermi descriptors
}

func (pl plane) String() string {
	return fmt.Sprintf("shards=%d,follower=%v,tagged=%v", pl.shards, pl.follower, pl.tagged)
}

// exact reports whether one server sees the whole pool and queues for
// it: only then is "refused" a statement about the pool (not about one
// shard's view of its peers) and blocking FIFO global rather than
// client-paced.
func (pl plane) exact() bool { return pl.shards == 1 && !pl.follower }

func (pl plane) pool(t *testing.T, nAC, nCN int, opts Options) *shardPool {
	return newPlanePool(t, nAC, nCN, pl.shards, pl.follower, opts, func(id int) Capability {
		if !pl.tagged {
			return Capability{}
		}
		return []Capability{capC1060(), capFermi()}[id%2]
	})
}

// overPlanes runs a property once per plane: {1, 3 shards} × {follower,
// none} × {tagged, untagged}.
func overPlanes(t *testing.T, maxCount int, property func(t *testing.T, pl plane, seed int64) bool) {
	for _, shards := range []int{1, 3} {
		for _, follower := range []bool{false, true} {
			for _, tagged := range []bool{false, true} {
				pl := plane{shards, follower, tagged}
				t.Run(pl.String(), func(t *testing.T) {
					f := func(seed int64) bool { return property(t, pl, seed) }
					if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestPropertyPoolPartitionInvariant(t *testing.T) {
	overPlanes(t, 12, func(t *testing.T, pl plane, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAC := 2 + rng.Intn(4)
		ok := true
		// Rank 0 holds exclusively and drives the script; rank 1 only lends
		// its client so shared leases come from a second tenant as well.
		sp := pl.pool(t, nAC, 2, Options{Policy: Policy(rng.Intn(2)), ShareCapacity: 2})
		sp.run(func(p *sim.Proc, c *Client, rank int) {
			if rank != 0 {
				return
			}
			sharers := []*Client{c, sp.clients[1]}
			lrng := rand.New(rand.NewSource(seed ^ 0x5a5a))
			var held []Handle
			heldIDs := make(map[int]bool)
			var failedIDs []int
			var shared [2][]Handle     // live shared holds, per sharer
			sharedIDs := map[int]int{} // accelerator -> live shared holds on it
			check := func() {
				st, err := c.StatsEx(p)
				if err != nil {
					ok = false
					return
				}
				if st.Total != nAC || st.Free+st.Assigned+st.Failed != st.Total {
					t.Errorf("partition broken: %+v", st)
					ok = false
				}
				if st.Assigned != len(held)+len(sharedIDs) || st.Failed != len(failedIDs) {
					t.Errorf("books disagree: %+v, held %d, shared %d, failed %d", st, len(held), len(sharedIDs), len(failedIDs))
					ok = false
				}
				if st.Shared != len(sharedIDs) || st.Sessions != len(shared[0])+len(shared[1]) {
					t.Errorf("shared books disagree: %+v, shared holds %v", st, shared)
					ok = false
				}
				for _, row := range st.PerAccel {
					want := "free"
					switch {
					case heldIDs[row.ID] && sharedIDs[row.ID] > 0:
						t.Errorf("accel %d both assigned and shared", row.ID)
						ok = false
					case heldIDs[row.ID]:
						want = "assigned"
					case sharedIDs[row.ID] > 0:
						want = "shared"
					}
					if row.State != "failed" && row.State != want {
						t.Errorf("accel %d is %s, want %s", row.ID, row.State, want)
						ok = false
					}
				}
			}
			free := func() int { return nAC - len(held) - len(failedIDs) - len(sharedIDs) }
			for i := 0; i < 16 && ok; i++ {
				// Let the shards gossip, so forwards see the previous step.
				p.Wait(2 * shardTickInterval)
				switch op := lrng.Intn(6); op {
				case 0: // acquire one more
					hs, err := c.Acquire(p, 1, false)
					switch {
					case err == nil:
						for _, h := range hs {
							if heldIDs[h.ID] {
								t.Errorf("accel %d assigned twice", h.ID)
								ok = false
							}
							heldIDs[h.ID] = true
						}
						held = append(held, hs...)
					case errors.Is(err, ErrUnavailable) || errors.Is(err, ErrImpossible):
						if free() > 0 && errors.Is(err, ErrUnavailable) && pl.exact() {
							t.Errorf("unavailable with %d free", free())
							ok = false
						}
					default:
						t.Errorf("acquire: %v", err)
						ok = false
					}
				case 1: // release the oldest holding
					if len(held) == 0 {
						continue
					}
					if err := c.Release(p, held[:1]); err != nil {
						t.Errorf("release: %v", err)
						ok = false
					}
					delete(heldIDs, held[0].ID)
					held = held[1:]
				case 2: // report a failure, get a replacement
					// Only when a spare exists: a blocking replace with no
					// free accelerator and no other client would wait forever.
					if len(held) == 0 || free() == 0 {
						continue
					}
					old := held[0]
					h, err := c.Replace(p, old.Rank)
					if errors.Is(err, ErrUnavailable) && !pl.exact() {
						// No spare of the failed device's class where the
						// holding shard looked: the report sticks, the hold ends.
						delete(heldIDs, old.ID)
						held = held[1:]
						failedIDs = append(failedIDs, old.ID)
						check()
						continue
					}
					if err != nil {
						t.Errorf("replace: %v", err)
						ok = false
						continue
					}
					if heldIDs[h.ID] {
						t.Errorf("replacement %d already assigned", h.ID)
						ok = false
					}
					delete(heldIDs, old.ID)
					heldIDs[h.ID] = true
					held[0] = h
					failedIDs = append(failedIDs, old.ID)
				case 3: // repair the oldest failure
					if len(failedIDs) == 0 {
						continue
					}
					if err := c.Repair(p, failedIDs[0]); err != nil {
						t.Errorf("repair: %v", err)
						ok = false
					}
					failedIDs = failedIDs[1:]
				case 4, 5: // a sharer takes or drops one shared lease
					k := op - 4
					if len(shared[k]) > 0 && lrng.Intn(2) == 0 {
						h := shared[k][0]
						if err := sharers[k].Release(p, shared[k][:1]); err != nil {
							t.Errorf("shared release: %v", err)
							ok = false
						}
						shared[k] = shared[k][1:]
						if sharedIDs[h.ID]--; sharedIDs[h.ID] == 0 {
							delete(sharedIDs, h.ID)
						}
						continue
					}
					// Shareable for k: anything free, or shared by the other
					// sharer only (capacity 2, one lease per tenant per device).
					shareable := free() + len(sharedIDs) - len(shared[k])
					hs, err := sharers[k].AcquireShared(p, 1, false)
					switch {
					case err == nil:
						for _, old := range shared[k] {
							if old.ID == hs[0].ID {
								t.Errorf("sharer %d leased accel %d twice", k, old.ID)
								ok = false
							}
						}
						shared[k] = append(shared[k], hs[0])
						sharedIDs[hs[0].ID]++
					case errors.Is(err, ErrUnavailable) || errors.Is(err, ErrImpossible):
						if shareable > 0 && pl.exact() {
							t.Errorf("shared acquire refused (%v) with %d shareable", err, shareable)
							ok = false
						}
					default:
						t.Errorf("shared acquire: %v", err)
						ok = false
					}
				}
				check()
			}
			// Drain so the pool teardown sees a consistent state.
			if len(held) > 0 {
				if err := c.Release(p, held); err != nil {
					t.Errorf("final release: %v", err)
					ok = false
				}
			}
			for k, hs := range shared {
				if len(hs) == 0 {
					continue
				}
				if err := sharers[k].Release(p, hs); err != nil {
					t.Errorf("final shared release: %v", err)
					ok = false
				}
			}
		})
		return ok
	})
}

// TestPropertyFIFOGrantOrder: clients blocking on one accelerator all get
// it, one at a time, on every plane; where the server queues (a lone
// manager) they get it strictly in arrival order.
func TestPropertyFIFOGrantOrder(t *testing.T) {
	overPlanes(t, 8, func(t *testing.T, pl plane, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nCN := 2 + rng.Intn(5)
		// Distinct arrival offsets, far apart compared to network latency,
		// randomly assigned to ranks.
		delays := rng.Perm(nCN)
		var order []int
		holders := 0
		ok := true
		pl.pool(t, 1, nCN, Options{Policy: FIFO}).run(func(p *sim.Proc, c *Client, rank int) {
			d := delays[rank]
			p.Wait(sim.Duration(d+1) * sim.Millisecond)
			hs, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Errorf("cn%d blocking acquire: %v", rank, err)
				ok = false
				return
			}
			if holders++; holders != 1 {
				t.Errorf("cn%d granted while %d other(s) hold the accelerator", rank, holders-1)
				ok = false
			}
			order = append(order, d)
			p.Wait(500 * sim.Microsecond)
			holders--
			if err := c.Release(p, hs); err != nil {
				ok = false
			}
		})
		if len(order) != nCN {
			return false
		}
		for i := 1; pl.exact() && i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Errorf("FIFO violated: grant order %v", order)
				return false
			}
		}
		return ok
	})
}
