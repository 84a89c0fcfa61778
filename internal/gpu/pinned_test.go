package gpu

import (
	"errors"
	"testing"

	"dynacc/internal/sim"
)

// StartPinnedCopy is CopyEngineTransfer without a process. These tests
// hold the two forms against each other: same engine queue, same
// instants, same counters, same failure reports — and pin what only the
// callback form has to take care of itself, a killed owner.

// pinnedScript runs three pinned transfers that all want the engine at
// t=0 — first, second and third in that order — and returns when each
// finished and with what. callbackSecond runs the second one through
// StartPinnedCopy from scheduler context; otherwise all three are
// processes. failAt > 0 fails the device at that instant.
func pinnedScript(t *testing.T, callbackSecond bool, failAt sim.Duration) (ends [3]sim.Time, errs [3]error, st Stats) {
	t.Helper()
	s := sim.New()
	d := testDevice(t, s, false)
	sizes := [3]int{1 << 20, 512 << 10, 256 << 10}
	proc := func(i int) {
		s.Spawn("xfer", func(p *sim.Proc) {
			errs[i] = d.CopyEngineTransfer(p, sizes[i], i != 1, true)
			ends[i] = p.Now()
		})
	}
	var x PinnedCopy
	owner := s.Spawn("owner", func(p *sim.Proc) { p.Wait(sim.Second) })
	proc(0)
	if callbackSecond {
		// One event at the instant and queue position the process's start
		// has, as a caller replacing a Spawn does.
		s.After(0, func() {
			d.StartPinnedCopy(&x, owner, sizes[1], false, func(any) {
				errs[1], ends[1] = x.Err, s.Now()
			}, nil)
		})
	} else {
		proc(1)
	}
	proc(2)
	if failAt > 0 {
		s.After(failAt, func() { d.Fail("test") })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return ends, errs, d.Stats()
}

func TestStartPinnedCopyMatchesProcessForm(t *testing.T) {
	m := TeslaC1060()
	first, second := m.H2DPinned.Time(1<<20), m.D2HPinned.Time(512<<10)
	for _, failAt := range []sim.Duration{0, first + second/2} {
		pEnds, pErrs, pStats := pinnedScript(t, false, failAt)
		cEnds, cErrs, cStats := pinnedScript(t, true, failAt)
		if cEnds != pEnds || cStats != pStats {
			t.Errorf("failAt=%v: callback form ended %v with %+v, process form %v with %+v", failAt, cEnds, cStats, pEnds, pStats)
		}
		for i := range pErrs {
			if (cErrs[i] == nil) != (pErrs[i] == nil) {
				t.Errorf("failAt=%v: transfer %d: callback form %v, process form %v", failAt, i, cErrs[i], pErrs[i])
			}
		}
		if failAt == 0 {
			if want := sim.Time(0).Add(first + second); cEnds[1] != want {
				t.Errorf("second transfer finished at %v, want %v: FIFO behind the first", cEnds[1], want)
			}
			continue
		}
		// Died under the second transfer: it and the third, already queued
		// for the engine, report the failure after their engine time.
		if !errors.Is(cErrs[1], ErrDeviceFailed) || !errors.Is(cErrs[2], ErrDeviceFailed) || cErrs[0] != nil {
			t.Errorf("errors after a mid-transfer failure: %v", cErrs)
		}
	}
}

func TestStartPinnedCopyOnFailedDeviceCompletesInline(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		d.Fail("gone")
		var x PinnedCopy
		ran := false
		d.StartPinnedCopy(&x, p, 4096, true, func(any) { ran = true }, nil)
		if !ran || !errors.Is(x.Err, ErrDeviceFailed) {
			t.Errorf("completion ran=%v err=%v, want it run before StartPinnedCopy returns with the failure", ran, x.Err)
		}
	})
}

// TestResetEnginesUnderTransfer swaps the device's engines (what RepairGPU
// and a daemon restart do) while a pinned transfer holds the DMA engine.
// The transfer must give its unit back to the engine it took it from: a
// release on the fresh engine ends the run with "release 1 with 0 in use".
func TestResetEnginesUnderTransfer(t *testing.T) {
	for _, form := range []string{"process", "callback"} {
		t.Run(form, func(t *testing.T) {
			s := sim.New()
			d := testDevice(t, s, false)
			const n = 1 << 20
			took := d.Model().H2DPinned.Time(n)
			var firstEnd, secondEnd sim.Time
			var x PinnedCopy
			s.Spawn("first", func(p *sim.Proc) {
				if form == "process" {
					d.CopyEngineTransfer(p, n, true, true)
					firstEnd = p.Now()
					return
				}
				d.StartPinnedCopy(&x, p, n, true, func(any) { firstEnd = s.Now() }, nil)
				p.Wait(2 * took)
			})
			s.After(took/2, func() {
				d.ResetEngines()
				// The fresh engine is free at once, whatever the old one holds.
				s.Spawn("second", func(p *sim.Proc) {
					d.CopyEngineTransfer(p, n, true, true)
					secondEnd = p.Now()
				})
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if want := sim.Time(0).Add(took); firstEnd != want {
				t.Errorf("transfer across the reset ended at %v, want %v", firstEnd, want)
			}
			if want := sim.Time(0).Add(took/2 + took); secondEnd != want {
				t.Errorf("transfer on the fresh engine ended at %v, want %v", secondEnd, want)
			}
		})
	}
}

// TestPinnedCopyEndsWithItsOwner: a transfer runs on behalf of a process,
// and once that process is killed it stops where the process would have
// unwound — the engine stays seized, nothing is counted, the completion
// never runs — whether it was holding the engine or queueing for it.
func TestPinnedCopyEndsWithItsOwner(t *testing.T) {
	s := sim.New()
	d := testDevice(t, s, false)
	const n = 1 << 20
	took := d.Model().H2DPinned.Time(n)
	owner := s.Spawn("owner", func(p *sim.Proc) { p.Wait(sim.Second) })
	var holding, queued PinnedCopy
	completions := 0
	s.After(0, func() {
		d.StartPinnedCopy(&holding, owner, n, true, func(any) { completions++ }, nil)
		d.StartPinnedCopy(&queued, owner, n, true, func(any) { completions++ }, nil)
	})
	s.After(took/2, owner.Kill)
	var lateEnd sim.Time
	s.After(took/2, func() {
		s.Spawn("late", func(p *sim.Proc) {
			// Queues behind the dead owner's transfers until the engines
			// are reset.
			d.CopyEngineTransfer(p, n, true, true)
			lateEnd = p.Now()
		})
	})
	if err := s.RunUntil(sim.Time(0).Add(10 * took)); err != nil {
		t.Fatal(err)
	}
	if completions != 0 || d.Stats() != (Stats{}) {
		t.Errorf("after the owner's death: %d completions, stats %+v; want none", completions, d.Stats())
	}
	if lateEnd != 0 {
		t.Errorf("a transfer got the engine at %v although the dead owner's transfer never released it", lateEnd)
	}
}
