package arm

// lifecycle.go is the accelerator lifecycle: every change of an
// accelerator's state is one event passed to transition, which looks the
// (state, event) pair up in one table and applies the cell's effects.
// DESIGN.md §11 prints the table; TestLifecycleTableInDesign renders it
// from here and fails when the two differ.

import (
	"fmt"
	"os"

	"dynacc/internal/sim"
)

// acState is where an accelerator stands. The values up to acShared are
// the replication snapshot's state byte (acDirty ships as acSuspect with
// the sanitize bit, see accel.wire).
type acState uint8

const (
	acFree acState = iota
	acAssigned
	acFailed
	// acSuspect: the daemon went silent; out of the pool, but it may recover.
	acSuspect
	// acReclaiming: a device reset (sanitize) is in flight.
	acReclaiming
	// acRetired: drained out of service; only Repair brings it back.
	acRetired
	// acShared: held by one or more tenants under shared leases. A reclaim
	// reaps one tenant's sessions here, where it resets an assigned device.
	acShared
	// acDirty: suspect and abandoned mid-use (a migration source), so it is
	// sanitized before it rejoins. Counts and prints as suspect.
	acDirty
	nStates
)

var stateNames = [nStates]string{"free", "assigned", "failed", "suspect", "reclaiming", "retired", "shared", "suspect"}

func (st acState) String() string { return stateNames[st] }

// The table's own answers to what the rest of the server asks of a state.
func (st acState) held() bool        { return lifecycle[evExpire][st].ok }             // a lease can run out
func (st acState) grantable() bool   { return lifecycle[evGrant][st].ok }              // exclusively, now
func (st acState) operational() bool { return lifecycle[evBeatDead][st].next != stay } // it can still die

// event is what happens to an accelerator.
type event uint8

const (
	evGrant          event = iota // an exclusive lease to who
	evShare                       // a shared lease to who
	evRelease                     // who lets go
	evExpire                      // who's lease ran out
	evBeatLost                    // silence past SuspectAfter
	evBeatDead                    // silence past DeadAfter
	evBeatBack                    // the daemon beat
	evSanitized                   // the device reset succeeded
	evSanitizeFailed              // the device reset failed
	evDrain                       // opDrain or opRetire (accel.drain is set)
	evDrainDeadline               // the drain's deadline passed with holders left
	evMigrate                     // who traded it for a spare
	evReplace                     // who reported it broken
	evFail                        // administrative Fail
	evRepair                      // administrative Repair
	evRegister                    // opRegister
	evPromote                     // a promoted follower restarts a reset or fences the free pool
	nEvents
)

var eventNames = [nEvents]string{"grant", "share", "release", "expire", "beat lost", "beat dead", "beat back",
	"sanitized", "sanitize failed", "drain", "drain deadline", "migrate", "replace", "fail", "repair", "register", "promote"}

// notices is the notice a holder gets when an event ends its hold; the
// reporter of a replace gets none, and a revoked lease counts as reclaimed.
var notices = [nEvents]NoticeKind{evExpire: NoticeRevoked, evDrainDeadline: NoticeRevoked, evBeatDead: NoticeDead, evReplace: NoticeDead}

// effect is a set of what a transition does besides changing the state.
type effect uint16

const (
	fxAccrue   effect = 1 << iota // charge busy time up to now first
	fxHold                        // who holds it, until its lease expiry
	fxLeave                       // who's hold ends
	fxEnd                         // every hold ends
	fxWarn                        // tell the holders, once an episode, that the daemon is suspect
	fxCalm                        // the suspect episode is over
	fxSanitize                    // reset the device; without a daemon hook it is clean at once
	fxReap                        // tear down who's sessions on the daemon
	fxFresh                       // the daemon gets a fresh silence budget
	fxJoin                        // enter the inventory
)

// stay as a rule's next state keeps the current one.
const stay = nStates

// rule is one cell of the table; ok is false where the event cannot
// happen in that state.
type rule struct {
	next acState
	fx   effect
	ok   bool
}

type states uint16 // a set of states

const (
	sFree, sAssigned, sFailed, sSuspect, sReclaiming, sRetired, sShared, sDirty states = 1 << acFree, 1 << acAssigned,
		1 << acFailed, 1 << acSuspect, 1 << acReclaiming, 1 << acRetired, 1 << acShared, 1 << acDirty
	sHeld = sAssigned | sShared
	sAll  = 1<<nStates - 1
)

// lifecycle[ev][st] is the table, filled from these rows. Three rules hold
// under it, in transition: a held state with no holder left is free; a
// draining accelerator retires where it would be free and is sanitized at
// once where it would wait dirty; and one that ends failed or retired
// answers its drain, leaving the inventory when that was a Retire.
var lifecycle = func() (t [nEvents][nStates]rule) {
	for _, r := range [...]struct {
		ev   event
		from states
		to   acState
		fx   effect
	}{
		{evGrant, sFree, acAssigned, fxAccrue | fxHold | fxCalm},
		{evShare, sFree | sShared, acShared, fxAccrue | fxHold | fxCalm},
		{evRelease, sAll &^ sFree, stay, fxAccrue | fxLeave},
		{evExpire, sAssigned, acReclaiming, fxAccrue | fxLeave | fxSanitize},
		{evExpire, sShared, stay, fxAccrue | fxLeave | fxReap},
		{evBeatLost, sFree, acSuspect, 0},
		{evBeatLost, sHeld, stay, fxWarn},
		{evBeatLost, sFailed | sSuspect | sReclaiming | sRetired | sDirty, stay, 0},
		{evBeatDead, sHeld, acFailed, fxAccrue | fxEnd},
		{evBeatDead, sFree | sSuspect | sReclaiming | sDirty, acFailed, 0},
		{evBeatDead, sFailed | sRetired, stay, 0},
		{evBeatBack, sSuspect, acFree, 0},
		{evBeatBack, sDirty, acReclaiming, fxSanitize},
		{evBeatBack, sHeld, stay, fxCalm},
		{evBeatBack, sFree | sFailed | sReclaiming | sRetired, stay, 0},
		{evSanitized, sReclaiming, acFree, 0},
		{evSanitizeFailed, sReclaiming, acFailed, 0},
		{evDrain, sFree | sFailed | sSuspect | sRetired | sDirty, acRetired, 0},
		{evDrain, sHeld, stay, fxAccrue},
		{evDrain, sReclaiming, stay, 0},
		{evDrainDeadline, sHeld, acReclaiming, fxAccrue | fxEnd | fxSanitize},
		{evMigrate, sAssigned, acDirty, fxAccrue | fxLeave | fxCalm},
		{evReplace, sHeld, acFailed, fxAccrue | fxEnd},
		{evFail, sAll, acFailed, fxAccrue},
		{evRepair, sAll, acFree, fxAccrue | fxEnd | fxFresh},
		{evRegister, sFree, acFree, fxJoin | fxFresh},
		{evPromote, sFree | sReclaiming, acReclaiming, fxSanitize},
	} {
		for st := range nStates {
			if r.from&(1<<st) != 0 {
				t[r.ev][st] = rule{r.to, r.fx, true}
			}
		}
	}
	return t
}()

// strict turns an event the table does not list for the current state,
// and a snapshot naming a state it does not have, into a panic instead of
// a no-op (DYNACC_POISON=1: the chaos guard the suites run under).
var strict = os.Getenv("DYNACC_POISON") == "1"

// transition moves a through ev. who is the client the event is about: the
// one that gains or loses a hold, or the reporter a replace spares its
// notice (-1 for none).
func (s *Server) transition(a *accel, ev event, who int) {
	r := lifecycle[ev][a.state]
	if !r.ok {
		if strict {
			panic(fmt.Sprintf("arm: %s on accelerator %d, %s", eventNames[ev], a.id, a.state))
		}
		return
	}
	next := r.next
	if next == stay {
		next = a.state
	}
	if r.fx&fxAccrue != 0 {
		s.accrue(s.now())
	}
	switch {
	case r.fx&fxHold != 0:
		a.hold(who, s.leaseExpiry())
	case r.fx&fxLeave != 0:
		s.endHold(a, who, notices[ev])
		a.unhold(who)
	case r.fx&fxEnd != 0:
		for _, h := range a.holders {
			kind := notices[ev]
			if h.rank == who {
				kind = 0
			}
			s.endHold(a, h.rank, kind)
		}
		a.holders = a.holders[:0]
	case r.fx&fxWarn != 0 && !a.notified:
		a.notified = true
		for _, h := range a.holders {
			s.notify(h.rank, NoticeSuspect, a)
		}
	}
	if r.fx&fxCalm != 0 {
		a.notified = false
	}
	if r.fx&fxFresh != 0 && s.lastBeat != nil {
		s.lastBeat[a.rank] = s.now()
	}
	if r.fx&fxJoin != 0 {
		s.accels = append(s.accels, a)
		s.byID[a.id] = a
	}
	if r.fx&fxReap != 0 && s.daemon != nil { // best effort: a dead daemon is the detector's
		s.callDaemon(DaemonReap, a.rank, who, nil)
	}
	if next.held() && len(a.holders) == 0 {
		next = acFree
	}
	if next == acDirty && a.drain != nil {
		next, r.fx = acReclaiming, r.fx|fxSanitize
	}
	if r.fx&fxSanitize != 0 {
		if s.daemon == nil {
			next = acFree
		} else {
			s.callDaemon(DaemonReset, a.rank, 0, a)
		}
	}
	if next == acFree && a.drain != nil {
		next = acRetired
	}
	a.state = next
	if d := a.drain; d != nil && !next.operational() {
		a.drain = nil
		if d.src >= 0 {
			s.reply(d.src, d.reqID, statusOK, nil)
		}
		if d.remove {
			s.removeAccel(a)
		}
	}
}

// endHold ends rank's hold on a with a notice of kind (0 sends none).
func (s *Server) endHold(a *accel, rank int, kind NoticeKind) {
	if kind != 0 {
		s.notify(rank, kind, a)
	}
	if kind == NoticeRevoked {
		s.reclaimedCount++
	}
	s.logHold(a, rank, LedgerEnd)
}

// leaseExpiry is when a lease granted or renewed now runs out; 0 is never.
func (s *Server) leaseExpiry() sim.Time {
	if s.healthOn && s.health.LeaseTTL > 0 {
		return s.now().Add(s.health.LeaseTTL)
	}
	return 0
}

// wire is the pair a replication snapshot ships for a: the state byte and
// its flags, 1 draining, 2 leaving the inventory once retired, and 4
// sanitized before reuse.
func (a *accel) wire() (uint8, uint8) {
	st, fl := a.state, uint8(0)
	switch st {
	case acDirty:
		st, fl = acSuspect, 4
	case acReclaiming:
		fl = 4
	}
	if a.drain != nil {
		fl |= 1 | flag(a.drain.remove, 2)
	}
	return uint8(st), fl
}

// unwire is wire's inverse, and whether the table allows the pair: a drain
// pends only in a state where the drain event waits.
func unwire(code, fl uint8) (acState, bool) {
	st := acState(code)
	if st == acSuspect && fl&4 != 0 {
		st = acDirty
	}
	return st, code < uint8(acDirty) && fl < 8 && (fl&4 == 0 || st == acDirty || st == acReclaiming) &&
		(fl&3 == 0 || fl&1 != 0 && lifecycle[evDrain][st].next == stay)
}
