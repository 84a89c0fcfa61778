package accel

import (
	"bytes"
	"errors"
	"testing"

	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// localSetup builds an execute-mode device wrapped as a LocalDevice
// inside a running host process.
func localSetup(t *testing.T, fn func(p *sim.Proc, ld *LocalDevice, raw *gpu.Device)) {
	t.Helper()
	s := sim.New()
	model := gpu.TeslaC1060()
	model.MemBytes = 16 << 20
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "sleep100us",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 100 * sim.Microsecond },
	})
	dev, err := gpu.NewDevice(s, gpu.Config{Model: model, Registry: reg, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("host", func(p *sim.Proc) {
		ld := Local(p, dev)
		defer ld.Close()
		fn(p, ld, dev)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalDeviceCopyRoundTrip(t *testing.T) {
	localSetup(t, func(p *sim.Proc, ld *LocalDevice, _ *gpu.Device) {
		ptr, err := ld.MemAlloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		src := bytes.Repeat([]byte{0x5C}, 4096)
		if err := ld.CopyH2DAsync(ptr, 0, src, 4096, 0).Wait(p); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 4096)
		if err := ld.CopyD2HAsync(dst, ptr, 0, 4096, 0).Wait(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, dst) {
			t.Error("round trip corrupted data")
		}
		if err := ld.MemFree(p, ptr); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLocalDeviceStridedCopy(t *testing.T) {
	localSetup(t, func(p *sim.Proc, ld *LocalDevice, raw *gpu.Device) {
		// 3 columns of 8 bytes, 32 bytes apart.
		ptr, _ := ld.MemAlloc(p, 256)
		packed := []byte("col0....col1....col2....")
		if err := ld.CopyH2D2DAsync(ptr, 0, 8, 3, 32, packed, 0).Wait(p); err != nil {
			t.Fatal(err)
		}
		// Verify placement directly on the device.
		for c := 0; c < 3; c++ {
			got, err := raw.Bytes(ptr, c*32, 8)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(packed[c*8:(c+1)*8]) {
				t.Errorf("column %d: %q", c, got)
			}
		}
		back := make([]byte, 24)
		if err := ld.CopyD2H2DAsync(back, ptr, 0, 8, 3, 32, 0).Wait(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, packed) {
			t.Errorf("gather = %q", back)
		}
	})
}

func TestLocalDeviceStreamOrderingAndOverlap(t *testing.T) {
	localSetup(t, func(p *sim.Proc, ld *LocalDevice, _ *gpu.Device) {
		ptr, _ := ld.MemAlloc(p, 1<<20)
		// Same stream: kernel then copy serialize.
		start := p.Now()
		k := ld.LaunchAsync("sleep100us", gpu.Launch{}, 0)
		c := ld.CopyH2DAsync(ptr, 0, nil, 1<<20, 0)
		if err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(p); err != nil {
			t.Fatal(err)
		}
		serial := p.Now().Sub(start)
		// Different streams: they overlap.
		start = p.Now()
		k = ld.LaunchAsync("sleep100us", gpu.Launch{}, 0)
		c = ld.CopyH2DAsync(ptr, 0, nil, 1<<20, 1)
		k.Wait(p)
		c.Wait(p)
		overlap := p.Now().Sub(start)
		if overlap >= serial {
			t.Errorf("cross-stream (%v) not faster than same-stream (%v)", overlap, serial)
		}
	})
}

func TestLocalDeviceSyncDrainsStreams(t *testing.T) {
	localSetup(t, func(p *sim.Proc, ld *LocalDevice, _ *gpu.Device) {
		pends := []Pending{
			ld.LaunchAsync("sleep100us", gpu.Launch{}, 0),
			ld.LaunchAsync("sleep100us", gpu.Launch{}, 1),
			ld.LaunchAsync("sleep100us", gpu.Launch{}, 2),
		}
		if err := ld.Sync(p); err != nil {
			t.Fatal(err)
		}
		for i, pd := range pends {
			if err := pd.Wait(p); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}
	})
}

func TestLocalDeviceErrorSurfacesThroughPending(t *testing.T) {
	localSetup(t, func(p *sim.Proc, ld *LocalDevice, _ *gpu.Device) {
		err := ld.CopyH2DAsync(gpu.Ptr(424242), 0, nil, 64, 0).Wait(p)
		if err == nil {
			t.Error("copy to invalid pointer returned no error")
		}
		err = ld.LaunchAsync("no-such-kernel", gpu.Launch{}, 0).Wait(p)
		if err == nil {
			t.Error("unknown kernel returned no error")
		}
	})
}

// Remote adapter: both adapters must behave identically through the
// interface (same data, same errors).
func TestRemoteAdapterMatchesLocalSemantics(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	model := gpu.TeslaC1060()
	model.MemBytes = 16 << 20
	dev, err := gpu.NewDevice(s, gpu.Config{Model: model, Registry: gpu.NewRegistry(), Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	daemon := core.NewDaemon(w.Comm(1), dev, core.DefaultDaemonConfig())
	s.Spawn("daemon", daemon.Run)
	s.Spawn("cn", func(p *sim.Proc) {
		client, err := core.NewClient(w.Comm(0), core.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		ac := client.Attach(1)
		var d Device = Remote(ac)
		ptr, err := d.MemAlloc(p, 1024)
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte{7}, 512)
		if err := d.CopyH2DAsync(ptr, 256, payload, 512, 0).Wait(p); err != nil {
			t.Error(err)
		}
		back := make([]byte, 512)
		if err := d.CopyD2HAsync(back, ptr, 256, 512, 0).Wait(p); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(back, payload) {
			t.Error("remote round trip corrupted data")
		}
		// Strided through the remote protocol.
		if err := d.CopyH2D2DAsync(ptr, 0, 8, 4, 64, payload[:32], 0).Wait(p); err != nil {
			t.Error(err)
		}
		got := make([]byte, 32)
		if err := d.CopyD2H2DAsync(got, ptr, 0, 8, 4, 64, 0).Wait(p); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, payload[:32]) {
			t.Error("remote strided round trip corrupted data")
		}
		if err := d.Sync(p); err != nil {
			t.Error(err)
		}
		if err := d.MemFree(p, ptr); err != nil {
			t.Error(err)
		}
		if err := ac.Shutdown(p); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCopyD2DRoutes is the route table: every pair of ends, bare and
// wrapped in a decorator that embeds Device, takes the route its
// attachments name — read off the wire bytes the copy cost — and a
// successful copy lands the source's bytes.
func TestCopyD2DRoutes(t *testing.T) {
	const n = 4096
	const (
		headerOnly  = iota // under one payload's worth of bytes on the wire
		payloadOnce        // the payload crosses the wire once, plus headers
		onDevice           // nothing on the wire
		noPath             // core.ErrNoPeerPath, nothing on the wire
	)
	s := sim.New()
	w, err := minimpi.NewWorld(s, 4, netmodel.QDRInfiniBand()) // 0, 3: front-ends; 1, 2: daemons
	if err != nil {
		t.Fatal(err)
	}
	model := gpu.TeslaC1060()
	model.MemBytes = 16 << 20
	var devs []*gpu.Device
	for i := 0; i < 4; i++ {
		dev, err := gpu.NewDevice(s, gpu.Config{Model: model, Registry: gpu.NewRegistry(), Execute: true})
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	for r := 1; r <= 2; r++ {
		s.Spawn("daemon", core.NewDaemon(w.Comm(r), devs[r-1], core.DefaultDaemonConfig()).Run)
	}
	wire := func() (sum int64) {
		for r := 0; r < w.Size(); r++ {
			sum += w.Traffic(r).BytesSent
		}
		return sum
	}
	s.Spawn("cn", func(p *sim.Proc) {
		clientA, errA := core.NewClient(w.Comm(0), core.DefaultOptions())
		clientB, errB := core.NewClient(w.Comm(3), core.DefaultOptions())
		if err := errors.Join(errA, errB); err != nil {
			t.Error(err)
			return
		}
		a1, a2 := clientA.Attach(1), clientA.Attach(2)
		r1, r2, rb := Remote(a1), Remote(a2), Remote(clientB.Attach(2))
		l1, l2 := Local(p, devs[2]), Local(p, devs[3])
		defer l1.Close()
		defer l2.Close()
		rows := []struct {
			name     string
			src, dst Device
			route    int
		}{
			{"remote, same handle", r1, r1, headerOnly},
			{"remote, same client", r1, r2, payloadOnce},
			{"remote, different clients", r1, rb, noPath},
			{"local, same device", l1, l1, onDevice},
			{"local, different devices", l1, l2, noPath},
			{"local to remote", l1, r1, noPath},
			{"remote to local", r1, l1, noPath},
		}
		for _, row := range rows {
			for _, wrap := range []bool{false, true} {
				src, dst, name := row.src, row.dst, row.name
				if wrap {
					src, dst, name = struct{ Device }{src}, struct{ Device }{dst}, name+", decorated"
				}
				sp, errS := src.MemAlloc(p, n)
				dp, errD := dst.MemAlloc(p, 2*n)
				payload := bytes.Repeat([]byte{0xC3}, n)
				if err := errors.Join(errS, errD, src.CopyH2DAsync(sp, 0, payload, n, 0).Wait(p)); err != nil {
					t.Errorf("%s: set-up: %v", name, err)
					return
				}
				before := wire()
				err = CopyD2D(p, src, sp, Window{Off: 0, ColBytes: n, Cols: 1, Pitch: n}, dst, dp, n, 0, 0)
				bytesOnWire := wire() - before
				switch {
				case row.route == noPath:
					if !errors.Is(err, core.ErrNoPeerPath) || bytesOnWire != 0 {
						t.Errorf("%s: err %v, %d wire bytes; want ErrNoPeerPath and none", name, err, bytesOnWire)
					}
				case err != nil:
					t.Errorf("%s: %v", name, err)
				case row.route == headerOnly && bytesOnWire >= n,
					row.route == payloadOnce && (bytesOnWire < n || bytesOnWire >= 2*n),
					row.route == onDevice && bytesOnWire != 0:
					t.Errorf("%s: %d wire bytes for a %d-byte copy took the wrong route", name, bytesOnWire, n)
				default:
					got := make([]byte, n)
					if err := dst.CopyD2HAsync(got, dp, n, n, 0).Wait(p); err != nil || !bytes.Equal(got, payload) {
						t.Errorf("%s: the destination does not hold the copied bytes (%v)", name, err)
					}
				}
				if err := errors.Join(src.MemFree(p, sp), dst.MemFree(p, dp)); err != nil {
					t.Errorf("%s: free: %v", name, err)
				}
			}
		}
		for _, a := range []*core.Accel{a1, a2} {
			if err := a.Shutdown(p); err != nil {
				t.Error(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
