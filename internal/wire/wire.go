// Package wire provides a compact little-endian binary codec for the
// dynacc control protocols (ARM requests, middleware requests and
// responses). It is a thin sticky-error wrapper around encoding/binary:
// writers never fail; readers record the first error and return zero
// values afterwards, so decoding code reads linearly and checks Err once.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer appends values to a buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with optional initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the writer for reuse, keeping the allocated capacity.
// Bytes returned before the Reset remain valid only if the caller copied
// them: further appends reuse the same backing array, so a scratch writer
// encodes without allocating once it has grown.
func (w *Writer) Reset() *Writer {
	w.buf = w.buf[:0]
	return w
}

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) *Writer { w.buf = append(w.buf, v); return w }

// U32 appends a uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	return w
}

// I64 appends an int64.
func (w *Writer) I64(v int64) *Writer { return w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) *Writer { return w.I64(int64(v)) }

// F64 appends a float64.
func (w *Writer) F64(v float64) *Writer { return w.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) *Writer {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) *Writer {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// Raw appends bytes verbatim, with no length prefix. Forwarding wrappers
// use it to splice an already-encoded request tail into a new envelope.
func (w *Writer) Raw(b []byte) *Writer {
	w.buf = append(w.buf, b...)
	return w
}

// Ints appends a count-prefixed int slice (each as int64). The shard
// replication and forwarding ops move id lists with it.
func (w *Writer) Ints(vs []int) *Writer {
	w.Int(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
	return w
}

// Reader consumes values from a buffer. The first decoding error sticks;
// subsequent reads return zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 {
		// int(uint32) wraps negative on 32-bit platforms; a negative count
		// must fail like any other bogus length, not slice out of range.
		r.err = fmt.Errorf("wire: invalid length %d at offset %d", n, r.off)
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("wire: truncated message: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 as int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.U32()
	b := r.take(int(n))
	return string(b)
}

// Blob reads a length-prefixed byte slice (aliasing the input buffer).
func (r *Reader) Blob() []byte {
	n := r.U32()
	return r.take(int(n))
}

// Ints reads a count-prefixed int slice. A count that cannot fit in the
// remaining bytes fails like any other truncation (bounding allocation
// before it happens).
func (r *Reader) Ints() []int { return r.AppendInts(nil) }

// AppendInts is Ints appending to dst, so a decoder that reuses a scratch
// slice reads an id list without allocating. On error dst comes back as is.
func (r *Reader) AppendInts(dst []int) []int {
	n := r.Int()
	if r.err != nil || n == 0 {
		return dst
	}
	if n < 0 || n > r.Remaining()/8 {
		r.err = fmt.Errorf("wire: invalid int-slice count %d with %d bytes left", n, r.Remaining())
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Int())
	}
	return dst
}
