package minimpi

import (
	"fmt"

	"dynacc/internal/sim"
)

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
