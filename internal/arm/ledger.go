package arm

// ledger.go is the split-brain consistency checker (PR 7, DESIGN.md
// §12). Every server appends a GrantEvent for each lease grant
// and each hold end (release, reclaim, detector death, repair, forced
// drain), stamped with the server's leadership epoch and the virtual
// time. After a chaos run the test merges the ledgers of every server
// that was ever alive — leaders, deposed leaders, promoted followers —
// and replays them against the daemons' fencing logs to prove the
// system's core safety claim: no accelerator was exclusively usable by
// two holders over overlapping virtual-time intervals.
//
// The subtlety is what ends a stale hold. A lease granted by a leader
// that was then partitioned away has no release event at the new
// leader, so a naive interval check would report every failover as a
// violation. Fencing is exactly the mechanism that ends such holds: the
// promoted leader pushes its epoch to every daemon of the shard before
// re-granting anything, and from the moment a daemon records a higher
// epoch, tokens minted under lower epochs are rejected — the stale hold
// is unusable. The checker therefore truncates a hold at the first
// fence mark above its epoch on its accelerator's daemon, and reports a
// violation only when two different holders' effective intervals
// actually overlap.

import (
	"fmt"
	"sort"
	"strings"

	"dynacc/internal/sim"
)

// GrantEventKind classifies a ledger entry.
type GrantEventKind uint8

// Ledger event kinds.
const (
	// LedgerGrant: an exclusive lease was granted (or re-opened under a
	// new epoch at promotion re-arm).
	LedgerGrant GrantEventKind = iota + 1
	// LedgerGrantShared: a shared lease was granted to one tenant.
	LedgerGrantShared
	// LedgerEnd: the holder's association with the accelerator ended —
	// release, reclaim, detector death, repair, or forced drain.
	LedgerEnd
)

func (k GrantEventKind) String() string {
	switch k {
	case LedgerGrant:
		return "grant"
	case LedgerGrantShared:
		return "grant-shared"
	case LedgerEnd:
		return "end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// GrantEvent is one entry of a server's grant ledger.
type GrantEvent struct {
	Time   sim.Time
	Shard  int
	Epoch  uint64
	Accel  int
	Holder int // client world rank
	Kind   GrantEventKind
}

func (e GrantEvent) String() string {
	return fmt.Sprintf("t=%-12v shard=%d epoch=%d accel=%d holder=%d %s",
		e.Time, e.Shard, e.Epoch, e.Accel, e.Holder, e.Kind)
}

// logHold records a lease grant, or the end of one holder's association
// with a. Holder 0 is a legal client rank (compute node 0), so ends are
// logged unconditionally; an end with no matching open hold is a no-op in
// the checker.
func (s *Server) logHold(a *accel, holder int, kind GrantEventKind) {
	s.ledger = append(s.ledger, GrantEvent{
		Time: s.now(), Shard: s.shard, Epoch: s.myEpoch,
		Accel: a.id, Holder: holder, Kind: kind,
	})
}

// GrantLedger returns a copy of this server's grant ledger.
func (s *Server) GrantLedger() []GrantEvent {
	return append([]GrantEvent(nil), s.ledger...)
}

// FenceMark records a daemon's fencing high-water mark advancing: from
// Time on, tokens with epochs below Epoch are rejected at that daemon.
type FenceMark struct {
	Epoch uint64
	Time  sim.Time
}

// openHold is checker state: one holder's currently-open interval.
type openHold struct {
	epoch  uint64
	shared bool
	since  sim.Time
}

// fencedBefore reports whether a hold under epoch e on an accelerator
// with the given fence marks was unusable by time t: some mark with a
// strictly higher epoch landed at or before t.
func fencedBefore(marks []FenceMark, e uint64, t sim.Time) bool {
	for _, m := range marks {
		if m.Epoch > e && m.Time.Sub(t) <= 0 {
			return true
		}
	}
	return false
}

// CheckSplitBrain replays the merged grant ledgers of every server that
// participated in a run against the daemons' fencing logs (keyed by
// accelerator id) and returns one message per safety violation: a
// moment where two different holders could both use an accelerator and
// at least one of them exclusively. An empty result is the split-brain
// safety proof for the run.
func CheckSplitBrain(events []GrantEvent, fences map[int][]FenceMark) []string {
	sorted := append([]GrantEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Time != sorted[j].Time {
			return sorted[i].Time.Sub(sorted[j].Time) < 0
		}
		// Ends settle before grants at the same instant: a release and
		// the regrant it unblocks share a timestamp in the simulator.
		ki, kj := sorted[i].Kind == LedgerEnd, sorted[j].Kind == LedgerEnd
		if ki != kj {
			return ki
		}
		if sorted[i].Accel != sorted[j].Accel {
			return sorted[i].Accel < sorted[j].Accel
		}
		return sorted[i].Epoch < sorted[j].Epoch
	})
	holds := make(map[int]map[int]*openHold) // accel → holder → hold
	var violations []string
	for _, e := range sorted {
		byHolder := holds[e.Accel]
		if byHolder == nil {
			byHolder = make(map[int]*openHold)
			holds[e.Accel] = byHolder
		}
		switch e.Kind {
		case LedgerEnd:
			delete(byHolder, e.Holder)
		case LedgerGrant, LedgerGrantShared:
			shared := e.Kind == LedgerGrantShared
			if h := byHolder[e.Holder]; h != nil {
				// The same holder re-granted (promotion re-arm re-opens
				// replicated holds under the new epoch): one continuous
				// hold, tracked under the highest epoch.
				if e.Epoch > h.epoch {
					h.epoch = e.Epoch
				}
				h.shared = h.shared && shared
				continue
			}
			for _, other := range sortedHolders(byHolder) {
				h := byHolder[other]
				if shared && h.shared {
					continue // shared leases legally coexist
				}
				if fencedBefore(fences[e.Accel], h.epoch, e.Time) {
					// The existing hold's epoch was fenced at the daemon
					// before this grant: the stale holder could no longer
					// use the device, so the intervals do not overlap.
					delete(byHolder, other)
					continue
				}
				violations = append(violations, fmt.Sprintf(
					"accel %d: %s to holder %d (epoch %d) at t=%v overlaps live hold by %d (epoch %d, since t=%v, shared=%v) — no fence mark above epoch %d on the daemon by then",
					e.Accel, e.Kind, e.Holder, e.Epoch, e.Time,
					other, h.epoch, h.since, h.shared, h.epoch))
			}
			byHolder[e.Holder] = &openHold{epoch: e.Epoch, shared: shared, since: e.Time}
		}
	}
	return violations
}

// sortedHolders returns the holder ranks of a hold map in ascending
// order so checker output is deterministic.
func sortedHolders(m map[int]*openHold) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// FormatLedger renders merged ledger events and fence marks as the
// postmortem artifact chaos tests dump when the checker fails.
func FormatLedger(events []GrantEvent, fences map[int][]FenceMark) string {
	var b strings.Builder
	sorted := append([]GrantEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time.Sub(sorted[j].Time) < 0 })
	b.WriteString("# grant ledger (merged, time-ordered)\n")
	for _, e := range sorted {
		fmt.Fprintf(&b, "%s\n", e)
	}
	b.WriteString("# daemon fence marks\n")
	ids := make([]int, 0, len(fences))
	for id := range fences {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, m := range fences[id] {
			fmt.Fprintf(&b, "accel=%d epoch=%d t=%v\n", id, m.Epoch, m.Time)
		}
	}
	return b.String()
}
