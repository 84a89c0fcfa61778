package arm

// The ARM's active health subsystem: daemon heartbeats feed a threshold
// failure detector on the virtual clock (a two-level simplification of
// phi-accrual: silence beyond SuspectAfter makes a node suspect, beyond
// DeadAfter dead), assignments become leases that the front-end renews
// implicitly with every ARM request and daemons renew on their holders'
// behalf with every heartbeat, and revoked leases are sanitized via a
// daemon-side device reset before their accelerator re-enters the pool.
//
// Accelerator lifecycle with the subsystem on:
//
//	free ──grant──▶ leased(assigned) ──release──▶ free
//	  │                  │ lease expiry / forced drain
//	  │ silence          ▼
//	  ▼              reclaiming ──sanitize ok──▶ free (or retired)
//	suspect ◀─migrate─┘  │ sanitize failed
//	  │ beats resume     ▼
//	  │ (sanitize)     dead(failed)
//	  ▼
//	free        silence ≥ DeadAfter from any live state ──▶ dead(failed)

import (
	"errors"
	"fmt"

	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// HealthConfig tunes the ARM health subsystem. Zero durations disable the
// corresponding mechanism: SuspectAfter/DeadAfter gate the failure
// detector, LeaseTTL gates lease expiry.
type HealthConfig struct {
	// HeartbeatInterval is how often daemons beat (the cluster wires the
	// same value into the daemons) and the detector's check cadence.
	HeartbeatInterval sim.Duration
	// SuspectAfter is the heartbeat silence after which an accelerator
	// node is suspect: its free accelerator leaves the pool, and owners
	// of assigned ones are notified so they can migrate.
	SuspectAfter sim.Duration
	// DeadAfter is the silence after which a suspect node is declared
	// dead: its accelerators are marked failed and owners notified.
	DeadAfter sim.Duration
	// LeaseTTL is how long an assignment stays valid without renewal.
	// Renewal is implicit: any ARM request from the owner, any daemon
	// heartbeat reporting the owner active, or an explicit Renew.
	LeaseTTL sim.Duration
}

// DefaultHealthConfig returns a configuration proportioned for the
// simulated QDR fabric: suspect after 3 missed beats, dead after 10.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		HeartbeatInterval: 2 * sim.Millisecond,
		SuspectAfter:      6 * sim.Millisecond,
		DeadAfter:         20 * sim.Millisecond,
		LeaseTTL:          50 * sim.Millisecond,
	}
}

// Validate reports whether the configuration is coherent.
func (hc HealthConfig) Validate() error {
	if hc.HeartbeatInterval <= 0 && (hc.SuspectAfter > 0 || hc.DeadAfter > 0 || hc.LeaseTTL > 0) {
		return fmt.Errorf("arm: health config needs a positive HeartbeatInterval (detector cadence)")
	}
	if hc.DeadAfter > 0 && hc.SuspectAfter > 0 && hc.DeadAfter < hc.SuspectAfter {
		return fmt.Errorf("arm: DeadAfter %v below SuspectAfter %v", hc.DeadAfter, hc.SuspectAfter)
	}
	if hc.SuspectAfter > 0 && hc.SuspectAfter < hc.HeartbeatInterval {
		return fmt.Errorf("arm: SuspectAfter %v below the heartbeat interval %v", hc.SuspectAfter, hc.HeartbeatInterval)
	}
	return nil
}

// ConfigureHealth enables the health subsystem. Call before Run.
func (s *Server) ConfigureHealth(hc HealthConfig) error {
	if err := hc.Validate(); err != nil {
		return err
	}
	s.health = hc
	s.healthOn = hc.HeartbeatInterval > 0
	return nil
}

// DaemonOp is what the ARM asks of a daemon: a device reset (sanitize
// before reuse), the teardown of one dead tenant's sessions, or a fence
// pushing a just-promoted server's epoch before it grants anything.
type DaemonOp uint8

const (
	DaemonReset DaemonOp = iota + 1
	DaemonReap
	DaemonFence
)

// DaemonCaller is the ARM's one hook to the daemons (the cluster wires the
// computation API's asynchronous calls here): start op on the daemon at rank
// under the fencing token epoch — a reap names the tenant, a fence the
// server's own rank, which holds no sessions — and return the call, which a
// Kill cancels. done takes the outcome once, in a later leg and in bounded
// virtual time; ErrFenced means the daemon answers to a higher epoch.
type DaemonCaller func(op DaemonOp, rank, client int, epoch uint64, done func(error)) *minimpi.Call

// SetDaemonCaller installs the daemon hook. Call before Run.
func (s *Server) SetDaemonCaller(fn DaemonCaller) { s.daemon = fn }

// callDaemon asks the daemon at rank for op under this server's epoch, in a
// leg where the helper process it replaced started; a reset names the
// accelerator it sanitizes. Every op ends in one leg, skipped once the server
// is closed: a fenced refusal steps it down (a successor is live), and a reset
// settles the accelerator unless the server abdicated or the detector won.
func (s *Server) callDaemon(op DaemonOp, rank, client int, a *accel) {
	var c *minimpi.Call
	done := func(err error) {
		s.untrack(&c.Waiter)
		if !s.closed && errors.Is(err, ErrFenced) {
			s.stepDown(s.myEpoch + 1)
		}
		if a != nil && !s.closed && !s.abdicated && a.state == acReclaiming {
			s.settle(a, err == nil)
			s.drainQueue()
			s.ship()
		}
	}
	s.sim.After(0, func() {
		if !s.closed {
			c = s.daemon(op, rank, client, s.myEpoch, done)
			s.waits = append(s.waits, &c.Waiter)
		}
	})
}

// EncodeHeartbeat builds, in w, the message a daemon sends the ARM every
// heartbeat interval on TagRequest. active lists the world ranks of
// clients that issued requests to the daemon since its previous beat;
// the ARM renews those clients' leases (the daemon-side half of
// implicit renewal).
func EncodeHeartbeat(w *wire.Writer, active []int) []byte {
	return w.Reset().U8(opHeartbeat).U64(0).U64(0).Ints(active).Bytes() // no reply to tag, no epoch to claim
}

// NoticeKind classifies an unsolicited ARM→client health notice.
type NoticeKind uint8

// Notice kinds.
const (
	// NoticeSuspect: a daemon serving one of the client's accelerators
	// went silent; the client should consider migrating (arm.Client.
	// Migrate) before the node is declared dead.
	NoticeSuspect NoticeKind = iota + 1
	// NoticeDead: the daemon was declared dead; the assignment is gone
	// and device state is unrecoverable. Failover territory.
	NoticeDead
	// NoticeRevoked: the ARM took the assignment back — lease expiry or
	// a forced drain deadline.
	NoticeRevoked
)

func (k NoticeKind) String() string {
	switch k {
	case NoticeSuspect:
		return "suspect"
	case NoticeDead:
		return "dead"
	case NoticeRevoked:
		return "revoked"
	default:
		return fmt.Sprintf("notice(%d)", uint8(k))
	}
}

// Notice is an unsolicited health event the ARM sends to the owner of an
// affected accelerator on TagNotify.
type Notice struct {
	Kind NoticeKind
	ID   int // accelerator pool id
	Rank int // its daemon's world rank
}

func encodeNotice(w *wire.Writer, n Notice) []byte {
	return w.U8(uint8(n.Kind)).Int(n.ID).Int(n.Rank).Bytes()
}

// DecodeNotice parses a TagNotify message body.
func DecodeNotice(data []byte) (Notice, error) {
	r := wire.NewReader(data)
	n := Notice{Kind: NoticeKind(r.U8()), ID: r.Int(), Rank: r.Int()}
	if err := r.Err(); err != nil {
		return Notice{}, fmt.Errorf("arm: malformed notice: %w", err)
	}
	return n, nil
}

// notify sends a health notice to an accelerator's owner, fire and
// forget: a dead client simply never reads it.
func (s *Server) notify(owner int, kind NoticeKind, a *accel) {
	s.comm.SendCopy(owner, TagNotify, encodeNotice(s.scratch.Reset(), Notice{Kind: kind, ID: a.id, Rank: a.rank}))
}

// scheduleTick re-arms the detector until the server shuts down or
// steps down (an abdicated server must not reclaim anything: its leases
// are the new leader's to manage).
func (s *Server) scheduleTick() { s.sim.AfterCall(s.health.HeartbeatInterval, healthTick, s) }

func healthTick(v any) {
	if s := v.(*Server); !s.closed && !s.abdicated {
		s.checkHealth()
		s.scheduleTick()
	}
}

// checkHealth is one detector pass over the inventory: silence
// thresholds first, then lease expiry.
func (s *Server) checkHealth() {
	now := s.now()
	hc := s.health
	if hc.SuspectAfter > 0 || hc.DeadAfter > 0 {
		for _, a := range s.accels {
			silence := now.Sub(s.lastBeat[a.rank])
			switch {
			case hc.DeadAfter > 0 && silence >= hc.DeadAfter:
				s.markDead(a)
			case hc.SuspectAfter > 0 && silence >= hc.SuspectAfter:
				s.markSuspect(a)
			}
		}
	}
	if hc.LeaseTTL > 0 {
		for _, a := range s.accels {
			if !a.held() {
				continue
			}
			// Leases expire per holder: on a shared accelerator only the
			// silent sharer is revoked, the others keep it. A reclaim drops
			// its holder, so the next one slides into its place; a grant
			// the reclaim lets through is not yet expired.
			for i := 0; i < len(a.holders); i++ {
				if h := a.holders[i]; h.expiry > 0 && now.Sub(h.expiry) >= 0 {
					s.reclaim(a, h.rank)
					i--
				}
			}
		}
	}
	s.drainQueue()
	s.ship()
}

// markSuspect moves a silent node's accelerator out of circulation: a
// free one leaves the pool, a held one stays with its holders but they
// are told (once per episode) so they can migrate.
func (s *Server) markSuspect(a *accel) {
	switch {
	case a.state == acFree:
		a.state = acSuspect
	case a.held() && !a.notified:
		a.notified = true
		for _, h := range a.holders {
			s.notify(h.rank, NoticeSuspect, a)
		}
	}
}

// markDead declares a node's accelerator failed after prolonged silence;
// whoever held it is told and their holds end.
func (s *Server) markDead(a *accel) {
	if a.state == acFailed || a.state == acRetired {
		return
	}
	if a.held() {
		s.accrue(s.now())
		for _, h := range a.holders {
			s.notify(h.rank, NoticeDead, a)
			s.logEnd(a, h.rank)
		}
		a.holders = a.holders[:0]
	}
	a.state = acFailed
	s.settleDrainer(a)
}

// heartbeat processes one daemon beat: refresh the detector, recover
// suspect accelerators on that rank, and renew leases of the clients the
// daemon saw traffic from.
func (s *Server) heartbeat(src int, active []int) {
	if !s.healthOn {
		return
	}
	s.lastBeat[src] = s.now()
	for _, a := range s.accels {
		if a.rank != src {
			continue
		}
		switch a.state {
		case acSuspect:
			// The node came back. A clean accelerator rejoins the pool
			// directly; one abandoned mid-use (migration source) is
			// sanitized first.
			if a.dirty {
				s.sanitizeOrSettle(a)
			} else {
				a.state = acFree
			}
		case acAssigned, acShared:
			a.notified = false // suspicion episode over
		}
		// Detector-declared deaths (acFailed) do NOT auto-recover on
		// resumed beats: a partition long enough to be declared dead needs
		// an administrative Repair, matching real operator workflows.
	}
	for _, r := range active {
		s.touchClient(r)
	}
	s.drainQueue()
}

// touchClient renews every lease held by the given client rank.
func (s *Server) touchClient(src int) {
	if !s.healthOn || s.health.LeaseTTL <= 0 {
		return
	}
	exp := s.now().Add(s.health.LeaseTTL)
	for _, a := range s.accels {
		if a.holds(src) {
			a.hold(src, exp)
		}
	}
}

// reclaim revokes one expired lease: the holder is presumed dead. An
// exclusive holder's accelerator is taken back and sanitized before
// re-entering the pool. A shared one is not sanitized wholesale — the
// surviving tenants' state must stay intact — so instead the session
// reaper tears down just the dead tenant's sessions on the daemon, and
// only when the last sharer leaves does the accelerator return to the
// free pool.
func (s *Server) reclaim(a *accel, client int) {
	s.accrue(s.now())
	s.notify(client, NoticeRevoked, a)
	s.logEnd(a, client)
	a.unhold(client)
	s.reclaimedCount++
	if a.state == acAssigned {
		a.dirty = true
		s.sanitizeOrSettle(a)
		return
	}
	if s.daemon != nil { // best effort: a dead daemon is the detector's
		s.callDaemon(DaemonReap, a.rank, client, nil)
	}
	if len(a.holders) == 0 {
		s.vacate(a)
		s.drainQueue()
	}
}

// sanitizeOrSettle wipes a just-revoked accelerator's device through the
// daemon hook, or settles it at once without one. It parks in acReclaiming
// until the reset is over; a detector verdict first drops the outcome.
func (s *Server) sanitizeOrSettle(a *accel) {
	if s.daemon == nil {
		s.settle(a, true)
		return
	}
	a.state = acReclaiming
	s.callDaemon(DaemonReset, a.rank, 0, a)
}

// settle places a reclaimed accelerator in its final state: retired when
// a drain was pending, free on a clean sanitize, failed otherwise.
func (s *Server) settle(a *accel, clean bool) {
	a.dirty = a.dirty && !clean
	switch {
	case !clean:
		a.state = acFailed
		s.settleDrainer(a)
	case a.draining:
		s.retire(a)
	default:
		a.state = acFree
	}
}

// retire takes an accelerator out of service and answers the drain
// request that asked for it.
func (s *Server) retire(a *accel) {
	a.state = acRetired
	a.draining = false
	s.settleDrainer(a)
}

// settleDrainer answers a pending drain once its accelerator reaches an
// out-of-service state (retired, or failed along the way — either way it
// no longer serves). An accelerator being retired out of the inventory
// (opRetire) leaves it here, once the drain semantics have run their
// course.
func (s *Server) settleDrainer(a *accel) {
	a.draining = false
	if a.drainer != nil {
		s.reply(a.drainer.src, a.drainer.reqID, statusOK, nil)
		a.drainer = nil
	}
	if a.removing {
		s.removeAccel(a)
	}
}

// drain handles opDrain: stop granting the accelerator, wait (bounded by
// deadline, when positive) for in-flight work to release it, then retire
// it. The reply is delayed until the accelerator is out of service.
func (s *Server) drain(src int, reqID uint64, id int, deadline sim.Duration) {
	a, ok := s.byID[id]
	if !ok || a.drainer != nil {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	switch a.state {
	case acRetired, acFailed:
		// Already out of service; retiring a failed accelerator is a
		// formality that keeps it from being repaired back by accident.
		a.state = acRetired
		s.reply(src, reqID, statusOK, nil)
	case acFree, acSuspect:
		a.state = acRetired
		a.dirty = false
		s.reply(src, reqID, statusOK, nil)
		s.drainQueue()
	case acReclaiming:
		// Sanitize in flight: mark it so settle() retires instead of
		// freeing, and answer then.
		a.draining = true
		a.drainer = &drainWait{src: src, reqID: reqID}
	case acAssigned, acShared:
		s.accrue(s.now())
		a.draining = true
		a.drainer = &drainWait{src: src, reqID: reqID}
		if deadline > 0 {
			s.sim.After(deadline, func() { s.forceDrain(a) })
		}
	}
}

// forceDrain fires when a drain deadline expires with holders still
// attached: the lease(s) are revoked and the accelerator sanitized into
// retirement.
func (s *Server) forceDrain(a *accel) {
	if s.closed || !a.held() || !a.draining {
		return
	}
	defer s.ship()
	s.accrue(s.now())
	for _, h := range a.holders {
		s.notify(h.rank, NoticeRevoked, a)
		s.logEnd(a, h.rank)
		s.reclaimedCount++
	}
	a.holders = a.holders[:0]
	a.dirty = true
	s.sanitizeOrSettle(a)
	s.drainQueue()
}

// migrate handles opMigrate: the client holds an accelerator on a
// suspect (or otherwise unwanted) daemon rank and asks to trade it for a
// spare. The old assignment is surrendered into the suspect state — its
// daemon's next heartbeat will sanitize it back into the pool; continued
// silence lets the detector declare it dead — and a spare is granted
// non-blocking, with the same reply shape as acquire. When no spare can
// be granted right now the old assignment is kept: limping on a suspect
// node beats holding nothing. Migration is exclusive-only: a shared
// lease has no device state the ARM could hand over wholesale, so a
// tenant on a suspect shared accelerator releases and re-acquires
// instead (the client fails with ErrBadRequest here).
func (s *Server) migrate(src int, reqID uint64, rank int) {
	var old *accel
	for _, a := range s.accels {
		if a.rank == rank && a.state == acAssigned && a.holds(src) {
			old = a
			break
		}
	}
	if old == nil {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	// Resident device state only moves to a capability-compatible spare,
	// same-class preferred (a C1060's state never lands on the FPGA).
	// Checked before surrendering the old assignment — limping on a
	// suspect device beats trading a working hold for nothing.
	req := &pendingAcquire{src: src, reqID: reqID, n: 1, enqueued: s.now(), replaces: old}
	if !s.canGrant(req) || (s.policy == FIFO && len(s.queue) > 0) {
		s.reply(src, reqID, statusUnavailable, nil)
		return
	}
	s.accrue(s.now())
	s.logEnd(old, src)
	old.unhold(src)
	old.state = acSuspect
	old.dirty = true
	old.notified = false
	s.migrateCount++
	s.settleDrainer(old)
	s.grant(req)
}
