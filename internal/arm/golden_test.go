package arm

// golden_test.go pins the opStats and opStatsEx reply bodies to
// byte-exact golden vectors. The client aggregates these payloads across
// shards, and external tooling (acbench's figure output) parses them — a
// failure here means a protocol break (and a nettrans.ProtocolVersion
// bump), not a test to update casually.

import (
	"encoding/hex"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// goldenServer hand-builds a server with every statistic non-zero and
// every lifecycle state represented, without running the simulation (so
// no timing integrals muddy the bytes).
func goldenServer(t *testing.T) *Server {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	inv := []Handle{
		{ID: 0, Rank: 100}, {ID: 1, Rank: 101}, {ID: 2, Rank: 102},
		{ID: 3, Rank: 103}, {ID: 4, Rank: 104}, {ID: 5, Rank: 105},
	}
	srv, err := NewServer(w.Comm(1), inv, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	srv.acquireCount = 7
	srv.releaseCount = 5
	srv.reclaimedCount = 2
	srv.migrateCount = 1
	srv.busySeconds = 1.5
	srv.waitSeconds = 0.25

	a := srv.byID[0]
	a.cap = capFermi()
	a.state = acAssigned
	a.hold(3, 0)
	a.grants = 4
	a.busySeconds = 0.5
	a.waitSeconds = 0.125

	sh := srv.byID[1]
	sh.state = acShared
	sh.hold(5, 0)
	sh.hold(6, 0)
	sh.grants = 3
	sh.busySeconds = 0.75

	srv.byID[2].state = acFailed
	srv.byID[3].state = acSuspect
	srv.byID[4].state = acRetired
	return srv
}

const goldenStatsHex = "0600000000000000" /* Total=6 */ +
	"0100000000000000" /* Free=1 */ +
	"0200000000000000" /* Assigned=2 (one exclusive + one shared) */ +
	"0100000000000000" /* Failed=1 */ +
	"0000000000000000" /* Queued=0 */ +
	"0700000000000000" /* Acquires=7 */ +
	"0500000000000000" /* Releases=5 */ +
	"000000000000f83f" /* BusySeconds=1.5 */ +
	"000000000000d03f" /* WaitSeconds=0.25 */ +
	"0100000000000000" /* Suspect=1 */ +
	"0100000000000000" /* Retired=1 */ +
	"0200000000000000" /* Reclaimed=2 */ +
	"0100000000000000" /* Migrations=1 */

// Each opStatsEx row is id, rank, state string, class string, holders,
// grants, busySeconds, waitSeconds for one accelerator.
const goldenStatsExHex = goldenStatsHex +
	"0100000000000000" /* Shared=1 */ +
	"0200000000000000" /* Sessions=2 */ +
	"0600000000000000" /* row count */ +
	"000000000000000064000000000000000800000061737369676e6564" + "050000006665726d69" + "01000000000000000400000000000000000000000000e03f000000000000c03f" /* assigned, fermi */ +
	"0100000000000000650000000000000006000000736861726564" + "00000000" + "02000000000000000300000000000000000000000000e83f0000000000000000" /* shared */ +
	"02000000000000006600000000000000060000006661696c6564" + "00000000" + "0000000000000000000000000000000000000000000000000000000000000000" /* failed */ +
	"030000000000000067000000000000000700000073757370656374" + "00000000" + "0000000000000000000000000000000000000000000000000000000000000000" /* suspect */ +
	"040000000000000068000000000000000700000072657469726564" + "00000000" + "0000000000000000000000000000000000000000000000000000000000000000" /* retired */ +
	"050000000000000069000000000000000400000066726565" + "00000000" + "0000000000000000000000000000000000000000000000000000000000000000" /* free */

func TestGoldenStatsEncoding(t *testing.T) {
	srv := goldenServer(t)
	got := hex.EncodeToString(srv.encodeStats(0))
	if got != goldenStatsHex {
		t.Errorf("opStats encoding drifted:\n got  %s\n want %s", got, goldenStatsHex)
	}
}

func TestGoldenStatsExEncoding(t *testing.T) {
	srv := goldenServer(t)
	got := hex.EncodeToString(srv.encodeStatsEx(0))
	if got != goldenStatsExHex {
		t.Errorf("opStatsEx encoding drifted:\n got  %s\n want %s", got, goldenStatsExHex)
	}
}

// TestGoldenStatsRoundTrip guards the decoder against the same vectors:
// the golden bytes must decode to the exact hand-built state.
func TestGoldenStatsRoundTrip(t *testing.T) {
	body, err := hex.DecodeString(goldenStatsExHex)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeStatsEx(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 6 || st.Free != 1 || st.Assigned != 2 || st.Failed != 1 ||
		st.Suspect != 1 || st.Retired != 1 || st.Shared != 1 || st.Sessions != 2 {
		t.Errorf("decoded summary: %+v", st)
	}
	if st.Acquires != 7 || st.Releases != 5 || st.Reclaimed != 2 || st.Migrations != 1 {
		t.Errorf("decoded counters: %+v", st)
	}
	if st.BusySeconds != 1.5 || st.WaitSeconds != 0.25 {
		t.Errorf("decoded integrals: %+v", st)
	}
	if len(st.PerAccel) != 6 {
		t.Fatalf("decoded %d per-accel rows", len(st.PerAccel))
	}
	a0 := st.PerAccel[0]
	if a0.ID != 0 || a0.Rank != 100 || a0.State != "assigned" || a0.Class != "fermi" || a0.Sessions != 1 ||
		a0.Grants != 4 || a0.BusySeconds != 0.5 || a0.WaitSeconds != 0.125 {
		t.Errorf("decoded accel 0: %+v", a0)
	}
	a1 := st.PerAccel[1]
	if a1.ID != 1 || a1.State != "shared" || a1.Sessions != 2 || a1.Grants != 3 {
		t.Errorf("decoded accel 1: %+v", a1)
	}
}
