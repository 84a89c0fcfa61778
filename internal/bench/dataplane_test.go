package bench

import (
	"fmt"
	"testing"
)

// TestDataplaneReport pins the data-plane fast path's acceptance
// numbers: the tree panel broadcast at 8 GPUs beats the host-staged loop
// by at least 2x while taking the panel off the host NIC, and a
// redistribution whose owners all stay put moves zero payload bytes —
// against a host-staged baseline that round-trips the whole matrix. The
// simulation is deterministic, so the direct route's times and wire
// bytes are exact literals, not flaky perf bounds.
func TestDataplaneReport(t *testing.T) {
	rep := MeasureDataplane()

	treeSecs := map[int]string{8: "0.006291481", 16: "0.008302129"}
	treeNIC := map[int]int64{8: 8393722, 16: 8399994}
	for _, b := range rep.Broadcast {
		if got := fmt.Sprintf("%.9f", b.TreeSecs); got != treeSecs[b.GPUs] {
			t.Errorf("%d-GPU TreeSecs = %s, want %s", b.GPUs, got, treeSecs[b.GPUs])
		}
		if b.TreeNICBytes != treeNIC[b.GPUs] {
			t.Errorf("%d-GPU TreeNICBytes = %d, want %d", b.GPUs, b.TreeNICBytes, treeNIC[b.GPUs])
		}
	}

	var b8 *BroadcastResult
	for i := range rep.Broadcast {
		if rep.Broadcast[i].GPUs == 8 {
			b8 = &rep.Broadcast[i]
		}
	}
	if b8 == nil {
		t.Fatal("report has no 8-GPU broadcast row")
	}
	if b8.Speedup < 2.0 {
		t.Errorf("8-GPU tree broadcast speedup = %.2fx, want >= 2x", b8.Speedup)
	}
	if b8.TreeNICBytes >= b8.HostLoopNICBytes/2 {
		t.Errorf("tree path still host-NIC-bound: %d vs %d bytes",
			b8.TreeNICBytes, b8.HostLoopNICBytes)
	}
	for _, b := range rep.Broadcast {
		if b.GPUs > 8 && b.Speedup <= b8.Speedup {
			t.Errorf("%d-GPU speedup %.2fx not above the 8-GPU %.2fx: the tree stopped scaling",
				b.GPUs, b.Speedup, b8.Speedup)
		}
	}

	var unchanged, mixed *RedistResult
	for i := range rep.Redist {
		switch rep.Redist[i].Scenario {
		case "unchanged":
			unchanged = &rep.Redist[i]
		case "mixed":
			mixed = &rep.Redist[i]
		}
	}
	if unchanged == nil || mixed == nil {
		t.Fatalf("report missing redistribute scenarios: %+v", rep.Redist)
	}
	if unchanged.Unchanged != unchanged.Blocks {
		t.Fatalf("'unchanged' scenario actually moved owners: %d of %d unchanged",
			unchanged.Unchanged, unchanged.Blocks)
	}
	if unchanged.UnchangedPayloadBytes != 0 {
		t.Errorf("unchanged-owner redistribution moved %d payload bytes, want 0",
			unchanged.UnchangedPayloadBytes)
	}
	// Headers only on the wire: orders of magnitude below the block data
	// the staged baseline round-trips.
	if unchanged.DefaultWireBytes*1000 > unchanged.BlockBytes {
		t.Errorf("unchanged-owner default path sent %d wire bytes for %d block bytes",
			unchanged.DefaultWireBytes, unchanged.BlockBytes)
	}
	if unchanged.StagedWireBytes < unchanged.BlockBytes {
		t.Errorf("staged baseline sent %d wire bytes, expected at least the %d block bytes",
			unchanged.StagedWireBytes, unchanged.BlockBytes)
	}

	if unchanged.DefaultWireBytes != 418 {
		t.Errorf("unchanged-owner DefaultWireBytes = %d, want 418", unchanged.DefaultWireBytes)
	}
	if mixed.DefaultWireBytes != 16778790 || mixed.DirectWireBytes != 8390310 {
		t.Errorf("mixed DefaultWireBytes, DirectWireBytes = %d, %d, want 16778790, 8390310",
			mixed.DefaultWireBytes, mixed.DirectWireBytes)
	}

	// Moved blocks: direct D2D carries each moved block once; the default
	// path stages them down and up through the host; staged moves
	// everything.
	if !(mixed.DirectWireBytes < mixed.DefaultWireBytes && mixed.DefaultWireBytes < mixed.StagedWireBytes) {
		t.Errorf("mixed scenario wire bytes not ordered direct < default < staged: %d, %d, %d",
			mixed.DirectWireBytes, mixed.DefaultWireBytes, mixed.StagedWireBytes)
	}
}
