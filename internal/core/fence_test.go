package core

// fence_test.go covers the request header that carries the fencing token
// and the daemon side of lease fencing (DESIGN.md §12): the fencing
// high-water mark any tokened request advances, and the stale-token
// rejection that is limited to destructive ownership ops (reset, session
// open, session reap) — data-path traffic from surviving holders is never
// fenced, and neither is token-less traffic.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynacc/internal/sim"
)

// TestFencePrefixGolden pins the request wire format: the full frame of
// every op, and the session and fence fields at header offsets 10 and 18
// whether they are zero or not.
func TestFencePrefixGolden(t *testing.T) {
	seen := map[uint8]bool{}
	for _, tc := range requestFrames {
		seen[tc.q.op] = true
		enc := encodeRequest(tc.q)
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%s: frame drifted:\n got  %s\n want %s", tc.name, got, tc.hex)
			continue
		}
		if enc[0] != tc.q.op || binary.LittleEndian.Uint64(enc[1:]) != tc.q.reqID || enc[9] != tc.q.stream ||
			binary.LittleEndian.Uint64(enc[10:]) != tc.q.session || binary.LittleEndian.Uint64(enc[18:]) != tc.q.fence {
			t.Errorf("%s: header fields not at offsets 0, 1, 9, 10, 18: %x", tc.name, enc[:requestHeaderSize])
		}
	}
	for op := OpMemAlloc; op <= OpMemcpyD2D; op++ {
		if retired := op == 18 || op == 19; !seen[op] && !retired {
			t.Errorf("op %d has no row in requestFrames", op)
		}
	}
}

// TestFencePrefixRoundTrip: every pinned frame decodes to the request it
// was encoded from, header and body.
func TestFencePrefixRoundTrip(t *testing.T) {
	for _, tc := range requestFrames {
		frame := mustHex(t, tc.hex)
		got, err := decodeRequest(frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// %+v prints a batch's commands as addresses; the re-encoding covers them.
		if tc.q.op != OpBatch && fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", tc.q) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", tc.name, got, tc.q)
		}
		if !bytes.Equal(encodeRequest(got), frame) {
			t.Errorf("%s: re-encoding differs", tc.name)
		}
	}
}

// TestFencePrefixMalformed: the two retired prefix markers are unknown
// ops, a header cut inside any of its five fields is refused with nothing
// to answer, and a body cut behind a whole header is refused with the
// header still in hand.
func TestFencePrefixMalformed(t *testing.T) {
	for _, op := range []uint8{18, 19} {
		frame := encodeRequest(&request{op: op, reqID: 9, session: 5, fence: 3})
		q, err := decodeRequest(frame)
		if err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("retired prefix marker %d as op: err = %v, want unknown op", op, err)
		}
		if q == nil || q.reqID != 9 {
			t.Errorf("retired prefix marker %d: header not returned for the answer: %+v", op, q)
		}
	}
	for _, tc := range requestFrames {
		frame := mustHex(t, tc.hex)
		for n := 0; n < len(frame); n++ {
			q, err := decodeRequest(frame[:n])
			switch {
			case err == nil:
				t.Errorf("%s cut at %d of %d bytes accepted", tc.name, n, len(frame))
			case n < requestHeaderSize && q != nil:
				t.Errorf("%s: header cut at byte %d still produced a request", tc.name, n)
			case n >= requestHeaderSize && (q == nil || q.reqID != tc.q.reqID):
				t.Errorf("%s: body cut at byte %d lost the header's reqID: %+v", tc.name, n, q)
			}
		}
	}
}

// TestDaemonFencing drives a live daemon through the fencing state
// machine: any tokened request advances the high-water mark, only
// destructive ownership ops are rejected when stale, data-path and
// token-less traffic always passes, and the mark's advance log is
// strictly monotonic.
func TestDaemonFencing(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		d := tb.daemons[0]

		// Epoch 1 arrives on a data-path op: advances the mark.
		a.SetFence(1)
		if _, err := a.MemAlloc(p, 4096); err != nil {
			t.Fatalf("tokened alloc: %v", err)
		}
		if d.FenceEpoch() != 1 {
			t.Fatalf("fence mark = %d after epoch-1 request, want 1", d.FenceEpoch())
		}

		// Epoch 2 on a fence-checked op: advances and succeeds.
		a.SetFence(2)
		if err := a.Reset(p); err != nil {
			t.Fatalf("epoch-2 reset: %v", err)
		}
		if d.FenceEpoch() != 2 {
			t.Fatalf("fence mark = %d, want 2", d.FenceEpoch())
		}

		// Stale token on destructive ops: rejected with ErrFenced.
		a.SetFence(1)
		if err := a.Reset(p); !errors.Is(err, ErrFenced) {
			t.Errorf("stale reset err = %v, want ErrFenced", err)
		}
		if err := a.OpenSession(p); !errors.Is(err, ErrFenced) {
			t.Errorf("stale session open err = %v, want ErrFenced", err)
		}
		if err := a.ReapSessions(p, 0); !errors.Is(err, ErrFenced) {
			t.Errorf("stale reap err = %v, want ErrFenced", err)
		}
		if got := d.Stats().Fenced; got != 3 {
			t.Errorf("fenced counter = %d, want 3", got)
		}

		// Stale token on the data path: allowed. A surviving holder must
		// be able to finish its work and clean up.
		if _, err := a.MemAlloc(p, 4096); err != nil {
			t.Errorf("stale alloc rejected: %v", err)
		}
		if err := a.Sync(p); err != nil {
			t.Errorf("stale sync rejected: %v", err)
		}
		a.SetFence(3)
		if err := a.OpenSession(p); err != nil {
			t.Fatalf("epoch-3 session open: %v", err)
		}
		a.SetFence(1) // fence yanked mid-session
		if err := a.CloseSession(p); err != nil {
			t.Errorf("stale session close rejected: %v", err)
		}

		// Token-less traffic is never fence-checked, whatever the mark
		// (a closed-session handle is dead, so use a fresh attach).
		fresh := tb.client.Attach(1)
		if err := fresh.Reset(p); err != nil {
			t.Errorf("token-less reset rejected: %v", err)
		}

		// The advance log is strictly monotonic in epoch and time.
		marks := d.FenceMarks()
		if len(marks) != 3 {
			t.Fatalf("fence log has %d marks, want 3: %+v", len(marks), marks)
		}
		for i, m := range marks {
			if m.Epoch != uint64(i+1) {
				t.Errorf("mark %d epoch = %d, want %d", i, m.Epoch, i+1)
			}
			if i > 0 && marks[i-1].Time.Sub(m.Time) > 0 {
				t.Errorf("mark %d time regressed: %+v", i, marks)
			}
		}
	})
}
