package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := NewWriter(64)
	w.U8(7).U32(1 << 30).U64(1 << 60).I64(-42).Int(-9).F64(3.25).Str("hello").Blob([]byte{1, 2, 3})
	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -9 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %g", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Blob(); len(got) != 3 || got[0] != 1 {
		t.Errorf("Blob = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestTruncatedStickyError(t *testing.T) {
	w := NewWriter(0)
	w.U32(5)
	r := NewReader(w.Bytes())
	r.U64() // too short
	if r.Err() == nil {
		t.Fatal("no error on truncated read")
	}
	// Sticky: everything after returns zero values, error preserved.
	if got := r.U32(); got != 0 {
		t.Errorf("post-error U32 = %d", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("post-error Str = %q", got)
	}
	if r.Err() == nil {
		t.Fatal("error cleared")
	}
}

func TestEmptyStringAndBlob(t *testing.T) {
	w := NewWriter(0)
	w.Str("").Blob(nil)
	r := NewReader(w.Bytes())
	if got := r.Str(); got != "" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Blob(); len(got) != 0 {
		t.Errorf("Blob = %v", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(a uint8, b uint32, c uint64, d int64, e float64, s string, blob []byte) bool {
		w := NewWriter(0)
		w.U8(a).U32(b).U64(c).I64(d).F64(e).Str(s).Blob(blob)
		r := NewReader(w.Bytes())
		if r.U8() != a || r.U32() != b || r.U64() != c || r.I64() != d {
			return false
		}
		got := r.F64()
		if got != e && !(got != got && e != e) { // NaN-safe compare
			return false
		}
		if r.Str() != s {
			return false
		}
		gb := r.Blob()
		if len(gb) != len(blob) {
			return false
		}
		for i := range gb {
			if gb[i] != blob[i] {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriterResetReuse pins the scratch-writer contract the protocol
// layer relies on: a Reset writer re-encoding the same fields produces
// bytes identical to a fresh writer's, in the buffer it already has.
func TestWriterResetReuse(t *testing.T) {
	encode := func(w *Writer) []byte {
		w.U8(3).U32(0xdeadbeef).U64(1<<40 + 7).I64(-42).Int(123456).
			F64(3.14159).Str("reuse").Blob([]byte{9, 8, 7})
		return bytes.Clone(w.Bytes())
	}
	fresh := encode(NewWriter(0))

	w := NewWriter(8)
	// Dirty the writer with unrelated content, then Reset and re-encode
	// several times: every round must be byte-identical to the fresh
	// encoding and to each other.
	w.Str("garbage that should vanish on Reset").U64(0xffffffffffffffff)
	for round := 0; round < 3; round++ {
		got := encode(w.Reset())
		if !bytes.Equal(got, fresh) {
			t.Fatalf("round %d: reused writer encoded %x, fresh writer %x", round, got, fresh)
		}
	}

	// Bytes alias the writer's buffer and the next encoding reuses it: a
	// caller that keeps them copies first (minimpi.Comm.SendCopy), and a
	// warm scratch writer allocates nothing.
	kept := w.Reset().U8(1).Bytes()
	w.Reset().U8(2)
	if kept[0] != 2 {
		t.Fatal("Reset left the buffer: a scratch writer would allocate per encoding")
	}
	if avg := testing.AllocsPerRun(100, func() { encode(w.Reset()) }); avg > 1 {
		t.Errorf("re-encoding into a warm writer allocates %.1f times besides the copy, want 0", avg-1)
	}
}
