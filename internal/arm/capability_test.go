package arm

// Mixed-fleet regression tests (PR 9): capability-constrained
// acquire routing, the typed ErrNoCapableDevice in both blocking modes,
// class-aware migration preference (same model before merely
// compatible; a C1060's resident state never lands on the FPGA),
// randomized placement invariants, and golden wire vectors — the
// capability encodings and the opAcquire/opRegister request frames pinned
// byte-exact (udpx TestABI style: a change here is a protocol break and
// must come with a nettrans.ProtocolVersion bump).

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// Capability fixtures matching the gpu package's registered models.
func capC1060() Capability { return Capability{Class: "c1060"} }
func capFermi() Capability { return Capability{Class: "fermi"} }
func capFPGA() Capability {
	return Capability{Class: "fpga", Kernels: []string{"magma", "blas"}}
}

// capPool is the pool harness with a capability-tagged inventory.
func capPool(t *testing.T, inv []Handle, nCN int, policy Policy, client func(p *sim.Proc, c *Client, rank int)) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, nCN+1, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(w.Comm(0), inv, policy)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("arm", srv.Run)
	var procs []*sim.Proc
	for r := 1; r <= nCN; r++ {
		r := r
		procs = append(procs, s.Spawn(fmt.Sprintf("cn%d", r), func(p *sim.Proc) {
			client(p, NewClient(w.Comm(r), 0), r)
		}))
	}
	s.Spawn("closer", func(p *sim.Proc) {
		for _, cp := range procs {
			cp.Done().Await(p)
		}
		if err := NewClient(w.Comm(1), 0).Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// mixedInventory is two C1060s, one Fermi, one FPGA card.
func mixedInventory() []Handle {
	return []Handle{
		{ID: 0, Rank: 100, Cap: capC1060()},
		{ID: 1, Rank: 101, Cap: capC1060()},
		{ID: 2, Rank: 102, Cap: capFermi()},
		{ID: 3, Rank: 103, Cap: capFPGA()},
	}
}

func TestAcquireCapableRoutesByClass(t *testing.T) {
	capPool(t, mixedInventory(), 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		hs, err := c.AcquireCapable(p, 1, false, Constraint{Class: "fermi"})
		if err != nil {
			t.Fatalf("acquire fermi: %v", err)
		}
		if hs[0].ID != 2 || hs[0].Cap.Class != "fermi" {
			t.Errorf("fermi constraint granted %+v", hs[0])
		}
		// A kernel-class constraint the FPGA cannot serve must land on a
		// run-everything GPU even with the FPGA free.
		hs2, err := c.AcquireCapable(p, 1, false, Constraint{Kernel: "mp2c"})
		if err != nil {
			t.Fatalf("acquire mp2c-capable: %v", err)
		}
		if hs2[0].Cap.Class == "fpga" {
			t.Errorf("mp2c constraint granted the FPGA: %+v", hs2[0])
		}
		// With both C1060s and the Fermi held... release and drain the
		// c1060 class instead: constrained counts must be per class.
		if err := c.Release(p, append(hs, hs2...)); err != nil {
			t.Fatal(err)
		}
		both, err := c.AcquireCapable(p, 2, false, Constraint{Class: "c1060"})
		if err != nil || len(both) != 2 {
			t.Fatalf("acquire 2 c1060: %v (%d)", err, len(both))
		}
		if _, err := c.AcquireCapable(p, 1, false, Constraint{Class: "c1060"}); !errors.Is(err, ErrUnavailable) {
			t.Errorf("exhausted class gave %v, want ErrUnavailable", err)
		}
		if err := c.Release(p, both); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAcquireCapableNoCapableDevice(t *testing.T) {
	capPool(t, mixedInventory(), 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		// Non-blocking: a class the fleet does not have.
		if _, err := c.AcquireCapable(p, 1, false, Constraint{Class: "cell"}); !errors.Is(err, ErrNoCapableDevice) {
			t.Errorf("non-blocking unknown class gave %v, want ErrNoCapableDevice", err)
		}
		// Blocking: must fail immediately too — waiting for hardware the
		// fleet will never have would hang forever.
		if _, err := c.AcquireCapable(p, 1, true, Constraint{Class: "cell"}); !errors.Is(err, ErrNoCapableDevice) {
			t.Errorf("blocking unknown class gave %v, want ErrNoCapableDevice", err)
		}
		// Asking for more devices of a class than exist is equally
		// unsatisfiable.
		if _, err := c.AcquireCapable(p, 2, true, Constraint{Class: "fermi"}); !errors.Is(err, ErrNoCapableDevice) {
			t.Errorf("oversized class request gave %v, want ErrNoCapableDevice", err)
		}
		// An unconstrained capable acquire degrades to plain semantics:
		// oversized requests stay ErrImpossible.
		if _, err := c.AcquireCapable(p, 9, false, Constraint{}); !errors.Is(err, ErrImpossible) {
			t.Errorf("oversized unconstrained gave %v, want ErrImpossible", err)
		}
	})
}

// TestMigratePrefersSameClassSpare: a held Fermi migrates onto the free
// Fermi spare even though a compatible C1060 has the lower id.
func TestMigratePrefersSameClassSpare(t *testing.T) {
	inv := []Handle{
		{ID: 0, Rank: 100, Cap: capFermi()},
		{ID: 1, Rank: 101, Cap: capC1060()},
		{ID: 2, Rank: 102, Cap: capFermi()},
	}
	capPool(t, inv, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		hs, err := c.AcquireCapable(p, 1, false, Constraint{Class: "fermi"})
		if err != nil || hs[0].ID != 0 {
			t.Fatalf("acquire: %v %+v", err, hs)
		}
		h, err := c.Migrate(p, hs[0].Rank)
		if err != nil {
			t.Fatalf("migrate: %v", err)
		}
		if h.ID != 2 {
			t.Errorf("migrated to id %d, want the same-class spare 2", h.ID)
		}
		if err := c.Release(p, []Handle{h}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMigrateNeverLandsOnFPGA: with only the FPGA free, a C1060 holder
// keeps limping on its suspect device rather than moving general GPU
// state onto a bitstream-limited card.
func TestMigrateNeverLandsOnFPGA(t *testing.T) {
	inv := []Handle{
		{ID: 0, Rank: 100, Cap: capC1060()},
		{ID: 1, Rank: 101, Cap: capFPGA()},
	}
	capPool(t, inv, 1, FIFO, func(p *sim.Proc, c *Client, rank int) {
		hs, err := c.AcquireCapable(p, 1, false, Constraint{Class: "c1060"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Migrate(p, hs[0].Rank); !errors.Is(err, ErrUnavailable) {
			t.Errorf("migrate onto FPGA gave %v, want ErrUnavailable", err)
		}
		// The old assignment must survive the refusal.
		if err := c.Release(p, hs); err != nil {
			t.Errorf("release after refused migrate: %v", err)
		}
	})
}

// TestPropertyCapabilityPlacement (testing/quick): over random class
// assignments and hold patterns, the pure placement helpers agree with
// brute force — eligible implies the constraint matches, per-class free
// counts are exact, and migration targets are compatible with same-class
// preferred.
func TestPropertyCapabilityPlacement(t *testing.T) {
	caps := []Capability{capC1060(), capFermi(), capFPGA(), {}}
	classes := []string{"", "c1060", "fermi", "fpga", "cell"}
	kernels := []string{"", "magma", "blas", "mp2c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + rng.Intn(6)
		inv := make([]Handle, n)
		for i := range inv {
			inv[i] = Handle{ID: i, Rank: 100 + i, Cap: caps[rng.Intn(len(caps))]}
		}
		srv, err := NewServer(w.Comm(1), inv, FIFO)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range srv.accels {
			if rng.Intn(2) == 1 {
				a.state = acAssigned
				a.hold(3, 0)
			}
		}
		c := Constraint{Class: classes[rng.Intn(len(classes))], Kernel: kernels[rng.Intn(len(kernels))]}
		req := &pendingAcquire{constraint: c}
		wantFree := 0
		for _, a := range srv.accels {
			if srv.eligible(a, req) != c.Matches(a.cap) {
				t.Errorf("eligible disagrees with Matches for cap %+v constraint %+v", a.cap, c)
				return false
			}
			if a.state == acFree && c.Matches(a.cap) {
				wantFree++
			}
		}
		if got := srv.freeCountFor(req); got != wantFree {
			t.Errorf("freeCountFor(%+v) = %d, want %d", c, got, wantFree)
			return false
		}
		for _, old := range srv.accels {
			if old.state != acAssigned {
				continue
			}
			target := srv.migrationTarget(old)
			sameClassFree := false
			anyCompatFree := false
			for _, a := range srv.accels {
				if a.state != acFree {
					continue
				}
				if a.cap.Class == old.cap.Class {
					sameClassFree = true
				}
				if a.cap.CanHost(old.cap) {
					anyCompatFree = true
				}
			}
			switch {
			case target == nil:
				if sameClassFree || anyCompatFree {
					t.Errorf("no target despite compatible spare (old %+v)", old.cap)
					return false
				}
			case target.state != acFree:
				t.Errorf("migration target not free")
				return false
			case sameClassFree && target.cap.Class != old.cap.Class:
				t.Errorf("target class %q despite free same-class spare for %q", target.cap.Class, old.cap.Class)
				return false
			case !sameClassFree && !target.cap.CanHost(old.cap):
				t.Errorf("incompatible migration target %+v for %+v", target.cap, old.cap)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---- Golden wire vectors ----

const (
	// encodeCapability({fpga, [magma blas]}).
	goldenCapabilityHex = "0400000066706761" /* Str "fpga" */ +
		"0200000000000000" /* 2 kernel classes */ +
		"050000006d61676d61" /* "magma" */ +
		"04000000626c6173" /* "blas" */

	// encodeConstraint({Class: "fermi", Kernel: "magma"}).
	goldenConstraintHex = "050000006665726d69" + "050000006d61676d61"

	// Full request frames as a lone manager's client puts them on the wire
	// (first request, reqID 1, epoch 0): op | reqID | epoch | body, the
	// acquire body being n | flags | constraint.
	goldenAcquireReqHex = "01" /* opAcquire */ + "0100000000000000" /* reqID */ + "0000000000000000" /* epoch */ +
		"0200000000000000" /* n=2 */ + "00" /* no flags */ + "00000000" + "00000000" /* any class, any kernel */
	goldenRegisterReqHex = "0d" /* opRegister */ + "0100000000000000" + "0000000000000000" +
		"0700000000000000" /* id=7 */ + "6b00000000000000" /* rank=107 */ +
		"00000000" + "0000000000000000" /* untagged: empty class, no kernel classes */
	goldenAcquireCapableReqHex = "01" /* opAcquire */ + "0100000000000000" + "0000000000000000" +
		"0100000000000000" /* n=1 */ + "01" /* flagBlocking */ +
		goldenConstraintHex
	goldenAcquireSharedReqHex = "01" /* opAcquire */ + "0100000000000000" + "0000000000000000" +
		"0100000000000000" /* n=1 */ + "02" /* flagShared */ + "00000000" + "00000000"
)

func TestGoldenCapabilityEncoding(t *testing.T) {
	w := wire.NewWriter(64)
	encodeCapability(w, capFPGA())
	if got := hex.EncodeToString(w.Bytes()); got != goldenCapabilityHex {
		t.Errorf("capability encoding drifted:\n got  %s\n want %s", got, goldenCapabilityHex)
	}
	back, err := decodeCapability(wire.NewReader(w.Bytes()))
	if err != nil || back.Class != "fpga" || len(back.Kernels) != 2 || back.Kernels[0] != "magma" || back.Kernels[1] != "blas" {
		t.Errorf("capability round trip: %+v, %v", back, err)
	}

	w2 := wire.NewWriter(32)
	encodeConstraint(w2, Constraint{Class: "fermi", Kernel: "magma"})
	if got := hex.EncodeToString(w2.Bytes()); got != goldenConstraintHex {
		t.Errorf("constraint encoding drifted:\n got  %s\n want %s", got, goldenConstraintHex)
	}
}

// captureRequest runs one call of a lone manager's client (NewClient)
// against a scripted responder and returns the raw request bytes sent.
func captureRequest(t *testing.T, status uint8, body []byte, do func(p *sim.Proc, c *Client)) []byte {
	t.Helper()
	return captureRequestVia(t, nil, status, body, do)
}

// captureRequestVia is captureRequest for a client built over dir, whose
// every shard must be served by rank 1 (the responder); nil is NewClient.
func captureRequestVia(t *testing.T, dir *Directory, status uint8, body []byte, do func(p *sim.Proc, c *Client)) []byte {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	s.Spawn("responder", func(p *sim.Proc) {
		data, _ := w.Comm(1).Recv(p, minimpi.AnySource, TagRequest)
		got = append([]byte(nil), data...)
		r := wire.NewReader(data)
		r.U8()
		reqID := r.U64()
		reply := wire.NewWriter(16 + len(body))
		reply.U8(status).U64(0).Raw(body)
		w.Comm(1).Isend(0, tagReplyBase+minimpi.Tag(reqID), reply.Bytes())
	})
	s.Spawn("client", func(p *sim.Proc) {
		if dir == nil {
			do(p, NewClient(w.Comm(0), 1))
		} else {
			do(p, NewDirectoryClient(w.Comm(0), dir))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGoldenRequestFrames pins the request frames a client emits: one
// opAcquire whatever the kind (exclusive, constrained and blocking,
// shared) and one opRegister whatever the capability.
func TestGoldenRequestFrames(t *testing.T) {
	emptyGrant := wire.NewWriter(8).Int(0).Bytes()
	for _, tc := range []struct {
		name, want string
		body       []byte
		do         func(p *sim.Proc, c *Client) error
	}{
		{"Acquire", goldenAcquireReqHex, emptyGrant, func(p *sim.Proc, c *Client) error {
			_, err := c.Acquire(p, 2, false)
			return err
		}},
		{"AcquireCapable", goldenAcquireCapableReqHex, emptyGrant, func(p *sim.Proc, c *Client) error {
			_, err := c.AcquireCapable(p, 1, true, Constraint{Class: "fermi", Kernel: "magma"})
			return err
		}},
		{"AcquireShared", goldenAcquireSharedReqHex, emptyGrant, func(p *sim.Proc, c *Client) error {
			_, err := c.AcquireShared(p, 1, false)
			return err
		}},
		{"RegisterCapable zero", goldenRegisterReqHex, nil, func(p *sim.Proc, c *Client) error {
			return c.RegisterCapable(p, 7, 107, Capability{})
		}},
	} {
		frame := captureRequest(t, statusOK, tc.body, func(p *sim.Proc, c *Client) {
			if err := tc.do(p, c); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		})
		if got := hex.EncodeToString(frame); got != tc.want {
			t.Errorf("%s frame drifted:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
