package arm

// The ARM's active health subsystem: daemon heartbeats feed a threshold
// failure detector on the virtual clock (a two-level simplification of
// phi-accrual: silence beyond SuspectAfter makes a node suspect, beyond
// DeadAfter dead), assignments become leases that the front-end renews
// implicitly with every ARM request and daemons renew on their holders'
// behalf with every heartbeat, and revoked leases are sanitized via a
// daemon-side device reset before their accelerator re-enters the pool.
// What each of these does to an accelerator is a row of lifecycle.go's
// table (DESIGN.md §11 prints it).

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
			ev := evSanitized
			if err != nil {
				ev = evSanitizeFailed
			}
			s.transition(a, ev, -1)
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

// DecodeNotice parses a TagNotify message body.
func DecodeNotice(data []byte) (Notice, error) {
	r := wire.NewReader(data)
	n := Notice{Kind: NoticeKind(r.U8()), ID: r.Int(), Rank: r.Int()}
	if err := r.Err(); err != nil {
		return Notice{}, fmt.Errorf("arm: malformed notice: %w", err)
	}
	return n, nil
}

// notify sends a health notice (kind · id · rank, what DecodeNotice reads)
// to an accelerator's owner, fire and forget: a dead client never reads it.
func (s *Server) notify(owner int, kind NoticeKind, a *accel) {
	s.comm.SendCopy(owner, TagNotify, s.scratch.Reset().U8(uint8(kind)).Int(a.id).Int(a.rank).Bytes())
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
				s.transition(a, evBeatDead, -1)
			case hc.SuspectAfter > 0 && silence >= hc.SuspectAfter:
				s.transition(a, evBeatLost, -1)
			}
		}
	}
	if hc.LeaseTTL > 0 {
		for _, a := range s.accels {
			if !a.state.held() {
				continue
			}
			// An expired lease is reclaimed, its holder presumed dead: an
			// exclusive accelerator is sanitized whole; on a shared one only
			// the silent sharer's sessions are reaped, and the last to go
			// vacates it for the queue. A reclaim drops its holder, so the
			// next slides into its place; a grant it lets through is fresh.
			shared := a.state == acShared
			for i := 0; i < len(a.holders); i++ {
				if h := a.holders[i]; h.expiry > 0 && now.Sub(h.expiry) >= 0 {
					s.transition(a, evExpire, h.rank)
					if shared && !a.state.held() {
						s.drainQueue()
					}
					i--
				}
			}
		}
	}
	s.drainQueue()
	s.ship()
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
		// A failed accelerator stays failed: a partition long enough to be
		// declared dead needs an administrative Repair.
		if a.rank == src {
			s.transition(a, evBeatBack, -1)
		}
	}
	for _, r := range active {
		s.touchClient(r)
	}
	s.drainQueue()
}

// touchClient renews every lease held by the given client rank.
func (s *Server) touchClient(src int) {
	if exp := s.leaseExpiry(); exp > 0 {
		for _, a := range s.accels {
			if a.holds(src) {
				a.hold(src, exp)
			}
		}
	}
}

// drain handles opDrain, and opRetire (remove: leave the inventory too):
// stop granting the accelerator, wait (bounded by deadline, when positive)
// for its holders to let go, then retire it. The reply waits until it is
// out of service. A drain a follower replicated has nobody to answer, so
// the client's replay after the promotion takes it over.
func (s *Server) drain(src int, reqID uint64, a *accel, deadline sim.Duration, remove bool) {
	if a.drain != nil && a.drain.src >= 0 {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	d := &drainWait{src: src, reqID: reqID, remove: remove}
	a.drain = d
	s.transition(a, evDrain, -1)
	if a.state.held() && deadline > 0 {
		s.sim.After(deadline, func() {
			// This drain still waits on holders: revoke them and sanitize
			// into retirement. A later drain keeps its own deadline.
			if !s.closed && a.state.held() && a.drain == d {
				s.transition(a, evDrainDeadline, -1)
				s.drainQueue()
				s.ship()
			}
		})
	}
	s.drainQueue()
}
