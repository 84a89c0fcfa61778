package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// H2D blocks are placed in device memory as they arrive, each at its
// packed offset, rather than reassembled and scattered once at the end.
// These tests pin what that must not change — which bytes land where, and
// that a refused copy writes nothing — and the one thing it does change:
// a payload that dies mid-way leaves its earlier blocks in place.

const fill = 0xEE // what device memory holds before the copy under test

// filledAlloc allocates n device bytes and fills them with the sentinel.
func filledAlloc(t *testing.T, p *sim.Proc, a *Accel, n int) gpu.Ptr {
	t.Helper()
	ptr, err := a.MemAlloc(p, n)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := a.Memset(p, ptr, 0, n, fill); err != nil {
		t.Fatalf("memset: %v", err)
	}
	return ptr
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i>>8)
	}
	return b
}

// TestStridedH2DPlacesBlocksInPlace uploads a strided window whose block
// size divides neither the column nor the payload, so block boundaries
// fall inside columns and one block spans two of them, and compares the
// whole allocation — columns and the gaps between them — with the layout
// a single ScatterColumns of the packed payload defines.
func TestStridedH2DPlacesBlocksInPlace(t *testing.T) {
	const colBytes, cols, pitch, off, block = 1000, 5, 1536, 64, 768
	const span = off + (cols-1)*pitch + colBytes + 100
	opts := DefaultOptions()
	opts.H2D = PaperPipeline(block)
	runTestbed(t, 1, true, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr := filledAlloc(t, p, a, span)
		src := pattern(colBytes * cols)
		if err := a.MemcpyH2D2DAsync(ptr, off, colBytes, cols, pitch, src, 0).Wait(p); err != nil {
			t.Fatalf("strided upload: %v", err)
		}
		if got, want := tb.daemons[0].Stats().BlocksIn, int64(numBlocks(len(src), block)); got != want || want <= cols {
			t.Fatalf("upload moved %d blocks, want %d (more than the %d columns)", got, want, cols)
		}
		want := bytes.Repeat([]byte{fill}, span)
		for c := 0; c < cols; c++ {
			copy(want[off+c*pitch:], src[c*colBytes:(c+1)*colBytes])
		}
		got := make([]byte, span)
		if err := a.MemcpyD2H(p, got, ptr, 0, span); err != nil {
			t.Fatalf("download: %v", err)
		}
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("device byte %d = %#x, want %#x (column %d, row %d)", i, got[i], want[i], (i-off)/pitch, (i-off)%pitch)
				}
			}
		}
	})
}

// TestRefusedH2DLeavesDeviceUntouched sends multi-block uploads the daemon
// must refuse — a window reaching past the allocation, and another
// tenant's pointer — and checks that the payload drained (the error comes
// back, the daemon keeps serving) without one byte reaching the device.
func TestRefusedH2DLeavesDeviceUntouched(t *testing.T) {
	const n, block = 16 << 10, 4 << 10
	opts := DefaultOptions()
	opts.H2D = PaperPipeline(block)
	runTestbed(t, 1, true, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
		owner, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatalf("attach owner: %v", err)
		}
		other, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatalf("attach other: %v", err)
		}
		ptr := filledAlloc(t, p, owner, n)
		src := pattern(n)

		if err := owner.MemcpyH2D(p, ptr, block, src, n); err == nil {
			t.Error("upload reaching past the allocation succeeded")
		}
		if err := other.MemcpyH2D(p, ptr, 0, src, n); !errors.Is(err, ErrNotOwner) {
			t.Errorf("cross-session upload: %v, want ErrNotOwner", err)
		}

		got := make([]byte, n)
		if err := owner.MemcpyD2H(p, got, ptr, 0, n); err != nil {
			t.Fatalf("download: %v", err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{fill}, n)) {
			t.Error("a refused upload modified device memory")
		}
		for _, s := range []*Accel{owner, other} {
			if err := s.CloseSession(p); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})
}

// TestH2DMidPayloadTimeout plays a front-end that dies after two of four
// blocks against a daemon with a payload timeout: the response must carry
// the timeout, the two blocks that arrived stay where they were placed —
// an interrupted copy, not a rolled-back one — and nothing is written past
// them.
func TestH2DMidPayloadTimeout(t *testing.T) {
	const block, nb, sent = 4 << 10, 4, 2
	cb := newChaosBed(t, 1, true, DefaultOptions())
	cb.daemons[0].cfg.PayloadTimeout = 5 * sim.Millisecond
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr := filledAlloc(t, p, a, nb*block)
		src := pattern(nb * block)

		const reqID = 1 << 40 // clear of the front-end's own sequence
		comm := cb.world.Comm(0)
		resp := comm.Irecv(1, respTag(reqID))
		cb.rawSend(reqID, &request{op: OpMemcpyH2D, ptr: ptr, size: nb * block, block: block, depth: 2})
		for i := 0; i < sent; i++ {
			comm.Isend(1, dataTag(reqID), src[i*block:(i+1)*block])
		}
		data, _ := resp.Wait(p)
		rsp, err := decodeResponse(data)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if err := rsp.err(); err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Errorf("interrupted upload answered %v, want a payload timeout", err)
		}

		got := make([]byte, nb*block)
		if err := a.MemcpyD2H(p, got, ptr, 0, len(got)); err != nil {
			t.Fatalf("download: %v", err)
		}
		if !bytes.Equal(got[:sent*block], src[:sent*block]) {
			t.Error("blocks that arrived before the timeout are not in device memory")
		}
		if !bytes.Equal(got[sent*block:], bytes.Repeat([]byte{fill}, (nb-sent)*block)) {
			t.Error("device memory past the last arrived block was written")
		}
	})
}
