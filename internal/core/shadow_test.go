package core

// The host shadow (allocRecord) is a contiguous mirror overlaid by the
// pending blocks of successful streamed copies. These tests hold it to the
// ledger it replaced — a mirror every successful write was copied into, made
// on first touch — and to its own invariants.

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// flipReplacer fails a handle over between ranks 1 and 2.
type flipReplacer struct{}

func (flipReplacer) Replace(_ *sim.Proc, failed int) (int, error) { return 3 - failed, nil }

// refAlloc is one allocation as the old ledger kept it.
type refAlloc struct {
	ptr  gpu.Ptr
	size int
	ref  []byte // nil until the front-end first touched the allocation
}

// write copies a strided window's packed bytes into the reference, made on
// first touch.
func (r *refAlloc) write(w window, packed []byte) {
	if r.ref == nil {
		r.ref = make([]byte, r.size)
	}
	w.scatter(r.ref, 0, packed)
}

// checkShadow holds a record to its invariants and its logical contents — the
// mirror (zeros where there is none) overlaid by the pending blocks — to the
// reference.
func checkShadow(t *testing.T, what string, rec *allocRecord, want []byte) {
	t.Helper()
	if want == nil {
		if rec.shadow != nil || len(rec.pend) > 0 {
			t.Fatalf("%s: untouched allocation has a shadow", what)
		}
		return
	}
	got := make([]byte, rec.size)
	copy(got, rec.shadow)
	covered, bytesPend := make([]bool, rec.size), 0
	for _, b := range rec.pend {
		w := b.win
		for k := range b.buf {
			at := w.at(b.lo + k)
			if covered[at] {
				t.Fatalf("%s: pending blocks overlap at byte %d", what, at)
			}
			covered[at] = true
		}
		w.scatter(got, b.lo, b.buf)
		bytesPend += len(b.buf)
	}
	switch {
	case bytesPend != rec.pendBytes:
		t.Fatalf("%s: pending blocks hold %d bytes, the record says %d", what, bytesPend, rec.pendBytes)
	case rec.pendBytes == rec.size && rec.shadow != nil:
		t.Fatalf("%s: a mirror is kept under pending blocks that cover the allocation", what)
	case !bytes.Equal(got, want):
		t.Fatalf("%s: shadow differs from the copy-on-success reference", what)
	}
}

// randRange draws a contiguous window that fits size bytes.
func randRange(rng *rand.Rand, size int) window {
	n := 1 + rng.Intn(size)
	return window{rng.Intn(size - n + 1), n, 1, n}
}

// randWindow draws a window that fits size bytes: contiguous or strided.
func randWindow(rng *rand.Rand, size int) window {
	if rng.Intn(2) == 0 {
		return randRange(rng, size)
	}
	colBytes := 1 + rng.Intn(min(size, 300))
	pitch := colBytes + rng.Intn(200)
	cols := 1 + rng.Intn(6)
	for cols > 1 && (cols-1)*pitch+colBytes > size {
		cols--
	}
	if (cols-1)*pitch+colBytes > size {
		return window{0, size, 1, size}
	}
	return window{rng.Intn(size - (cols-1)*pitch - colBytes + 1), colBytes, cols, pitch}
}

// shadowSequences is how many sequences TestShadowMatchesCopyOnSuccess runs
// (see race_test.go).
var shadowSequences = 2000

// TestShadowMatchesCopyOnSuccess runs seeded sequences of contiguous and
// strided uploads and downloads, memsets, inline writes, device-local copies
// and frees, checking every live record against a reference ledger kept the
// old way after every operation; then fails the handle over to the other
// daemon, where every touched allocation must read back as the reference.
func TestShadowMatchesCopyOnSuccess(t *testing.T) {
	const opsPer = 8
	opts := chaosOpts()
	opts.H2D, opts.D2H = PaperPipeline(700), PaperPipeline(1000)
	opts.BatchOps, opts.InlineCopy = 8, 256 // uploads of <= 256 bytes ride inline
	cb := newChaosBed(t, 2, true, opts)
	cb.client.SetReplacer(flipReplacer{})
	rng := rand.New(rand.NewSource(29))
	cb.run(t, 1000*sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		for seq := 0; seq < shadowSequences; seq++ {
			var live []*refAlloc
			alloc := func() {
				r := &refAlloc{size: 1 + rng.Intn(3000)}
				var err error
				if r.ptr, err = a.MemAlloc(p, r.size); err != nil {
					t.Fatalf("seq %d: alloc: %v", seq, err)
				}
				live = append(live, r)
			}
			alloc()
			alloc()
			for op := 0; op < opsPer; op++ {
				r := live[rng.Intn(len(live))]
				w := randWindow(rng, r.size)
				packed := make([]byte, w.colBytes*w.cols)
				rng.Read(packed)
				var err error
				switch k := rng.Intn(7); k {
				case 0, 1: // upload, streamed or inline by size
					if err = a.MemcpyH2D2DAsync(r.ptr, w.off, w.colBytes, w.cols, w.pitch, packed, 0).Wait(p); err == nil {
						r.write(w, packed)
					}
				case 2: // download: host-visible truth enters the shadow too
					if err = a.MemcpyD2H2DAsync(packed, r.ptr, w.off, w.colBytes, w.cols, w.pitch, 0).Wait(p); err == nil {
						r.write(w, packed)
					}
				case 3:
					w, v := randRange(rng, r.size), byte(rng.Intn(256))
					if err = a.Memset(p, r.ptr, w.off, w.colBytes, v); err == nil {
						r.write(w, bytes.Repeat([]byte{v}, w.colBytes))
					}
				case 4: // device-local copy: the source's shadow, if any, follows
					d := live[rng.Intn(len(live))]
					n := 1 + rng.Intn(min(r.size, d.size))
					so, do := rng.Intn(r.size-n+1), rng.Intn(d.size-n+1)
					if err = a.c.CopyD2D(p, a, r.ptr, so, n, 1, n, a, d.ptr, do, 0, 0); err == nil && r.ref != nil {
						d.write(window{do, n, 1, n}, append([]byte(nil), r.ref[so:so+n]...))
					}
				case 5: // a failed upload leaves the shadow as it was
					if err = a.MemcpyH2D(p, r.ptr, r.size, packed, len(packed)); err == nil {
						t.Fatalf("seq %d: upload past the end of a %d-byte allocation succeeded", seq, r.size)
					}
					err = nil
				case 6:
					if err = a.MemFree(p, r.ptr); err == nil {
						live = slices.DeleteFunc(live, func(l *refAlloc) bool { return l == r })
						alloc()
					}
				}
				if err != nil {
					t.Fatalf("seq %d op %d: %v", seq, op, err)
				}
				for _, l := range live {
					checkShadow(t, "after an op", a.allocs[l.ptr], l.ref)
				}
			}
			if err := a.Failover(p); err != nil {
				t.Fatalf("seq %d: failover: %v", seq, err)
			}
			for _, l := range live {
				if l.ref == nil {
					continue
				}
				got := make([]byte, l.size)
				if err := a.MemcpyD2H(p, got, l.ptr, 0, l.size); err != nil {
					t.Fatalf("seq %d: read back: %v", seq, err)
				}
				if !bytes.Equal(got, l.ref) {
					t.Fatalf("seq %d: the replacement differs from the reference ledger", seq)
				}
			}
			// Wipe both daemons for the next sequence.
			old := cb.client.handle(3-a.Rank(), true)
			if err := errors.Join(a.Reset(p), old.Reset(p)); err != nil {
				t.Fatalf("seq %d: reset: %v", seq, err)
			}
		}
	})
}

// TestSeveredUploadReplaysPreUploadBytes: an upload that dies mid-stream
// changed nothing the shadow knows of, so Failover replays the window's
// bytes from before the upload — not the half that reached the old device.
func TestSeveredUploadReplaysPreUploadBytes(t *testing.T) {
	const n = 1 << 20
	cb := newChaosBed(t, 2, true, chaosOpts())
	cb.client.SetReplacer(flipReplacer{})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		before := bytes.Repeat([]byte{0x11}, n)
		if err := a.MemcpyH2D(p, ptr, 0, before, n); err != nil {
			t.Fatalf("upload: %v", err)
		}
		// 1 MiB takes ~1 ms on the test fabric: the daemon dies with blocks on the wire.
		cb.sim.After(300*sim.Microsecond, func() { cb.daemons[0].Kill() })
		if err := a.MemcpyH2D(p, ptr, 0, bytes.Repeat([]byte{0x22}, n), n); !errors.Is(err, ErrTimeout) {
			t.Fatalf("upload into a dying daemon: got %v, want a timeout", err)
		}
		if err := a.Failover(p); err != nil {
			t.Fatalf("failover: %v", err)
		}
		got := make([]byte, n)
		if err := a.MemcpyD2H(p, got, ptr, 0, n); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, before) {
			t.Fatal("the replacement does not hold the window's pre-upload bytes")
		}
	})
}

// TestPeerCopyShadowFollowsSource: a daemon-to-daemon copy carries the
// source window's shadow, gathered to packed, into the destination's
// record, so failing the destination over replays the copied bytes — not
// the destination's stale pre-copy ones.
func TestPeerCopyShadowFollowsSource(t *testing.T) {
	const n = 2048
	cb := newChaosBed(t, 2, true, chaosOpts())
	cb.client.SetReplacer(flipReplacer{})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		src, dst := cb.accels[0], cb.accels[1]
		sp, err := src.MemAlloc(p, 4096)
		if err != nil {
			t.Fatalf("alloc src: %v", err)
		}
		dp, err := dst.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc dst: %v", err)
		}
		// Four 512-byte columns of 0xAA, 1024 bytes apart from 64, in 0x11.
		w := window{64, 512, 4, 1024}
		fill := bytes.Repeat([]byte{0x11}, 4096)
		w.scatter(fill, 0, bytes.Repeat([]byte{0xAA}, n))
		if err := src.MemcpyH2D(p, sp, 0, fill, len(fill)); err != nil {
			t.Fatalf("upload src: %v", err)
		}
		if err := dst.MemcpyH2D(p, dp, 0, bytes.Repeat([]byte{0x55}, n), n); err != nil {
			t.Fatalf("upload dst: %v", err)
		}
		if err := cb.client.CopyD2D(p, src, sp, w.off, w.colBytes, w.cols, w.pitch, dst, dp, 0, 0, 0); err != nil {
			t.Fatalf("peer copy: %v", err)
		}
		if err := dst.Failover(p); err != nil {
			t.Fatalf("failover: %v", err)
		}
		got := make([]byte, n)
		if err := dst.MemcpyD2H(p, got, dp, 0, n); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if i := slices.IndexFunc(got, func(b byte) bool { return b != 0xAA }); i >= 0 {
			t.Fatalf("the replacement reads %#x at byte %d, want the copied 0xaa", got[i], i)
		}
	})
}
