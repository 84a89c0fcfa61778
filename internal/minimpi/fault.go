package minimpi

import (
	"fmt"

	"dynacc/internal/sim"
)

// LinkVerdict is a fault filter's decision for one message entering the
// wire. The zero value delivers the message normally.
type LinkVerdict struct {
	// Drop makes the message vanish in flight: the sender still observes
	// local completion (it cannot tell a lost message from a slow one) but
	// the envelope never reaches the receiver. Failure detection is the
	// job of higher-level timeouts.
	Drop bool
	// Delay adds extra wire latency before the envelope is delivered.
	Delay sim.Duration
}

// LinkFilter inspects every message as it enters the wire and decides its
// fate. src and dst are world ranks; tag and size come from the send call.
// Filters run inside the deterministic event order of the simulation, so a
// seeded filter keeps runs reproducible.
type LinkFilter func(src, dst int, tag Tag, size int) LinkVerdict

// SetLinkFilter installs (or, with nil, removes) the world's fault filter.
// Intended for fault-injection harnesses; see internal/faults.
func (w *World) SetLinkFilter(f LinkFilter) { w.linkFilter = f }

// verdict consults the installed filter, if any.
func (w *World) verdict(src, dst int, tag Tag, size int) LinkVerdict {
	if w.linkFilter == nil {
		return LinkVerdict{}
	}
	return w.linkFilter(src, dst, tag, size)
}

// ResetEndpoint clears a rank's matching state — posted receives and
// unexpected envelopes — and replaces its NIC resources with fresh ones.
// It models the network-facing half of restarting a crashed daemon:
// messages that arrived while the process was dead are lost, their pool
// payloads returned, and transfers the corpse left holding the NIC no
// longer pin it (a transfer still in flight runs to completion on the old
// resources and returns its units there). The posted receives are recycled:
// nobody may hold them any more (see Waiter.Abandon). Rendezvous senders
// whose envelope is discarded stay parked until their request is Canceled
// (the client timeout path does exactly that).
func (w *World) ResetEndpoint(rank int) {
	ep := w.eps[rank]
	for _, r := range ep.posted {
		w.putRequest(r)
	}
	for _, m := range ep.unexpected {
		w.PutPayload(m.data, Status{Pooled: m.owned})
		m.halfOver()
	}
	ep.unexpected, ep.unexpBase, ep.posted = nil, nil, nil
	ep.tx = sim.NewResource(w.sim, fmt.Sprintf("nic%d.tx", rank), 1)
	ep.rx = sim.NewResource(w.sim, fmt.Sprintf("nic%d.rx", rank), 1)
}
