package sim

// Mailbox is an unbounded FIFO queue of values with blocking receive. It is
// the basic inter-process communication channel inside a simulation: sends
// never block; receivers block until a value is available. Values are
// delivered in send order, and competing receivers are served in arrival
// order.
//
// Both the item queue and the receiver queue are head-indexed slices that
// reuse their backing arrays, so a mailbox in steady state allocates
// nothing per send/receive cycle.
type Mailbox struct {
	sim *Simulation
	// recvState is the precomputed block() label: building it per receive
	// was a measurable share of the hot path.
	recvState string
	items     []any
	ihead     int
	waiters   []*boxWaiter // blocked receivers, oldest first
	whead     int
}

// boxWaiter is a pooled receiver registration: the blocked process and,
// once Send hands it over, the value. A receiver killed while it waits
// keeps its registration, which Send skips; the waiter is not recycled.
type boxWaiter struct {
	p   *Proc
	val any
}

// NewMailbox creates an empty mailbox.
func NewMailbox(s *Simulation, name string) *Mailbox {
	return &Mailbox{sim: s, recvState: "receiving from mailbox " + name}
}

// Len reports the number of queued values.
func (m *Mailbox) Len() int { return len(m.items) - m.ihead }

func (m *Mailbox) pushItem(v any) {
	if m.ihead > 0 {
		if m.ihead == len(m.items) {
			m.items = m.items[:0]
			m.ihead = 0
		} else if m.ihead >= 32 && 2*m.ihead >= len(m.items) {
			// Slide the live tail down so a never-empty mailbox still
			// reuses its backing array instead of growing forever.
			n := copy(m.items, m.items[m.ihead:])
			for i := n; i < len(m.items); i++ {
				m.items[i] = nil
			}
			m.items = m.items[:n]
			m.ihead = 0
		}
	}
	m.items = append(m.items, v)
}

func (m *Mailbox) popItem() any {
	v := m.items[m.ihead]
	m.items[m.ihead] = nil
	m.ihead++
	if m.ihead == len(m.items) {
		m.items = m.items[:0]
		m.ihead = 0
	}
	return v
}

// Send enqueues v. If a receiver is blocked, the value is handed to the
// oldest live one and it is woken at the current virtual time; a receiver
// killed while it waited is skipped.
func (m *Mailbox) Send(v any) {
	for m.whead < len(m.waiters) {
		w := m.waiters[m.whead]
		m.waiters[m.whead] = nil
		m.whead++
		if m.whead == len(m.waiters) {
			m.waiters = m.waiters[:0]
			m.whead = 0
		}
		if w.p.gone() {
			continue
		}
		w.val = v
		w.p.wake()
		return
	}
	m.pushItem(v)
}

// Recv blocks until a value is available and returns it.
func (m *Mailbox) Recv(p *Proc) any {
	if m.Len() > 0 {
		return m.popItem()
	}
	w := m.sim.freeBoxWaiters.Get()
	w.p = p
	m.waiters = append(m.waiters, w)
	p.block(m.recvState)
	v := w.val
	*w = boxWaiter{}
	m.sim.freeBoxWaiters.Put(w)
	return v
}

// TryRecv returns a queued value if one is available.
func (m *Mailbox) TryRecv() (any, bool) {
	if m.Len() == 0 {
		return nil, false
	}
	return m.popItem(), true
}
