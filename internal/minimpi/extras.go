package minimpi

import (
	"fmt"

	"dynacc/internal/sim"
)

// Sendrecv posts the send and the receive together and waits for both,
// the deadlock-free paired exchange of MPI_Sendrecv. It returns the
// received payload and status.
func (c *Comm) Sendrecv(p *sim.Proc, dst int, sendTag Tag, data []byte, src int, recvTag Tag) ([]byte, Status) {
	rreq := c.Irecv(src, recvTag)
	sreq := c.Isend(dst, sendTag, data)
	out, st := rreq.Wait(p)
	sreq.Wait(p)
	return out, st
}

// Alltoall delivers parts[i] to rank i and returns the parts received
// from every rank (the caller's own contribution is passed through).
// Parts may have different sizes (MPI_Alltoallv flavour). All ranks must
// call it with len(parts) == Size().
func (c *Comm) Alltoall(p *sim.Proc, parts [][]byte) [][]byte {
	n := c.Size()
	if len(parts) != n {
		panic(fmt.Sprintf("minimpi: Alltoall: %d parts for %d ranks", len(parts), n))
	}
	out := make([][]byte, n)
	out[c.rank] = append([]byte(nil), parts[c.rank]...)
	sends := make([]*Request, 0, n-1)
	recvs := make([]*Request, 0, n-1)
	order := make([]int, 0, n-1)
	for r := 0; r < n; r++ {
		if r == c.rank {
			continue
		}
		recvs = append(recvs, c.irecvAnyTag(r, tagAlltoall))
		order = append(order, r)
	}
	for r := 0; r < n; r++ {
		if r == c.rank {
			continue
		}
		sends = append(sends, c.isendAnyTag(r, tagAlltoall, parts[r], len(parts[r]), false))
	}
	for i, rr := range recvs {
		data, _ := rr.Wait(p)
		out[order[i]] = data
	}
	WaitAll(p, sends...)
	return out
}

// TrafficStats summarizes one endpoint's network activity.
type TrafficStats struct {
	MsgsSent      int64
	MsgsReceived  int64
	BytesSent     int64
	BytesReceived int64
	// TxBusy/RxBusy are cumulative link occupancies (serialization plus
	// the per-message gap), usable for utilization reports.
	TxBusy sim.Duration
	RxBusy sim.Duration
}

// WireStats counts the messages posted through one Comm, at post time:
// every Isend/Send variant (including collectives' internal sends)
// increments Msgs by one and Bytes by the message's wire size. Unlike
// TrafficStats it is attributed to the communicator handle doing the
// sending, not the endpoint, and it counts dropped messages too — it
// answers "how many wire messages did this client emit", which is what
// batching tests assert on.
type WireStats struct {
	Msgs  int64
	Bytes int64
}

// WireStats returns the messages/bytes posted through this Comm so far.
func (c *Comm) WireStats() WireStats { return c.wire }

// Traffic returns the cumulative network counters of a world rank.
func (w *World) Traffic(rank int) TrafficStats {
	if rank < 0 || rank >= len(w.eps) {
		panic(fmt.Sprintf("minimpi: Traffic: rank %d out of range [0,%d)", rank, len(w.eps)))
	}
	return w.eps[rank].traffic
}

// Utilization reports the fraction of elapsed time a rank's transmit and
// receive paths were busy.
func (ts TrafficStats) Utilization(elapsed sim.Duration) (tx, rx float64) {
	if elapsed <= 0 {
		return 0, 0
	}
	return ts.TxBusy.Seconds() / elapsed.Seconds(), ts.RxBusy.Seconds() / elapsed.Seconds()
}
