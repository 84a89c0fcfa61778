package nettrans

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"dynacc/internal/minimpi"
	"dynacc/internal/wire"
)

// frameBytes encodes one message frame as it travels: header, then payload.
func frameBytes(env minimpi.Envelope, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	putMsgHeader(&hdr, env, payload)
	return append(hdr[:], payload...)
}

// patched returns a copy of frame with b stored at off.
func patched(frame []byte, off int, b ...byte) []byte {
	out := append([]byte(nil), frame...)
	copy(out[off:], b)
	return out
}

// Message frames the reader must refuse, by what is wrong with them.
var (
	goodFrame  = frameBytes(minimpi.Envelope{Src: 1, Dst: 2, Ctx: 3, Tag: -5, Size: 4}, []byte("abcd"))
	sizedFrame = frameBytes(minimpi.Envelope{Src: 0, Dst: 1, Tag: 10, Size: 1 << 20}, nil)
	badFrames  = []struct {
		name  string
		frame []byte
	}{
		{"oversized", patched(goodFrame, 0, 0xF0, 0xFF, 0xFF, 0x7F)}, // claims ~2 GiB
		{"short", patched(goodFrame, 0, msgHeaderSize-1, 0, 0, 0)},
		{"zero length", patched(goodFrame, 0, 0, 0, 0, 0)},
		{"wrong kind", patched(goodFrame, 4, kindHello)},
		{"negative size", patched(goodFrame, 29, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"size past payload", patched(goodFrame, 29, 5)},
		{"payload past size", patched(goodFrame, 0, msgHeaderSize+5)},
		{"sized send with tail", patched(sizedFrame, 0, msgHeaderSize+3)},
	}
)

// countingBuf is the reader's getBuf under test: it records what was asked.
type countingBuf struct{ calls, bytes int }

func (c *countingBuf) get(n int) []byte {
	c.calls++
	c.bytes += n
	return make([]byte, n)
}

// FuzzDecodeMsgBody throws arbitrary bytes at the message-header decoder:
// it must never panic, and an accepted header must satisfy the invariants
// the reader relies on before it takes a payload buffer.
func FuzzDecodeMsgBody(f *testing.F) {
	f.Add(goodFrame)
	f.Add(sizedFrame)
	f.Add(goodFrame[:len(goodFrame)-2]) // truncated payload
	f.Add([]byte{kindMsg})              // truncated header
	f.Add([]byte{})
	f.Add([]byte{kindHello, 0xFF, 0xFF})
	for _, bad := range badFrames {
		f.Add(bad.frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		var hdr [frameHeaderSize]byte
		copy(hdr[:], data)
		env, n, err := decodeMsgHeader(&hdr, limit)
		if err != nil {
			return
		}
		if env.Size < 0 {
			t.Fatalf("accepted negative size: %+v", env)
		}
		if n > limit-msgHeaderSize {
			t.Fatalf("accepted a %d-byte payload past the %d frame limit", n, limit)
		}
		if n >= 0 && n != env.Size {
			t.Fatalf("accepted mismatched payload: %d bytes for size %d", n, env.Size)
		}
	})
}

// decoded is one readMsgFrame result, the error kept as its text.
type decoded struct {
	env     minimpi.Envelope
	payload []byte
	err     string
}

// decodeStream reads message frames from r until the first error and
// returns every result, that error's included.
func decodeStream(r io.Reader, limit int) []decoded {
	var hdr [frameHeaderSize]byte
	var cb countingBuf
	var out []decoded
	for {
		env, payload, err := readMsgFrame(r, &hdr, limit, cb.get)
		out = append(out, decoded{env: env, payload: payload})
		if err != nil {
			out[len(out)-1].err = err.Error()
			return out
		}
	}
}

// describe prints result i of ds, its payload by length.
func describe(ds []decoded, i int) string {
	if i >= len(ds) {
		return "(none)"
	}
	d := ds[i]
	return fmt.Sprintf("%+v, %d payload bytes (nil: %v), error %q", d.env, len(d.payload), d.payload == nil, d.err)
}

// chunkReader hands out at most 1, 2, … n bytes per Read, cycling.
type chunkReader struct {
	r    io.Reader
	n, i int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.i = c.i%c.n + 1
	return c.r.Read(p[:min(len(p), c.i)])
}

// FuzzReadFrame exercises the stream layer, header then payload: arbitrary
// byte streams must produce either a message within the limit or an error,
// never a panic, and never a buffer request that the frame limit or the
// bytes actually present do not cover. The handshake reader sees the same
// streams. Decoded frame after frame, the stream gives the same envelopes,
// payloads and errors through readers that return it a few bytes at a
// time, or with the last bytes and EOF together, and through readLoop's
// connReader over each, as through bytes.Reader.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(minimpi.Envelope{Src: 0, Dst: 1, Tag: 1, Size: 3}, []byte("xyz")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}) // absurd length prefix
	f.Add([]byte{0, 0, 0, 0})                      // zero length
	f.Add([]byte{10, 0, 0, 0, 1, 2})               // truncated body
	f.Add(sizedFrame)
	for _, bad := range badFrames {
		f.Add(bad.frame)
	}
	// A burst: two frames back to back, then the head of a third.
	f.Add(slices.Concat(goodFrame, sizedFrame, goodFrame[:frameHeaderSize+1]))
	// A payload larger than connReader's buffer, then a frame behind it.
	big := make([]byte, len(connReader{}.buf)+1000)
	f.Add(slices.Concat(frameBytes(minimpi.Envelope{Dst: 1, Tag: 2, Size: len(big)}, big), goodFrame))

	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		var hdr [frameHeaderSize]byte
		var cb countingBuf
		env, payload, err := readMsgFrame(bytes.NewReader(data), &hdr, limit, cb.get)
		if cb.calls > 1 || cb.bytes > limit {
			t.Fatalf("reader took %d buffers, %d bytes, for one frame under a %d limit", cb.calls, cb.bytes, limit)
		}
		if err == nil && payload != nil && len(payload) != env.Size {
			t.Fatalf("accepted %d payload bytes for size %d", len(payload), env.Size)
		}
		if err == nil && frameHeaderSize+len(payload) > len(data) {
			t.Fatalf("accepted a %d-byte frame out of a %d-byte stream", frameHeaderSize+len(payload), len(data))
		}
		if body, err := readFrame(bytes.NewReader(data), limit); err == nil && len(body) > limit {
			t.Fatalf("readFrame returned %d bytes past the %d limit", len(body), limit)
		}

		want := decodeStream(bytes.NewReader(data), limit)
		for name, r := range map[string]io.Reader{
			"one byte":                  iotest.OneByteReader(bytes.NewReader(data)),
			"half":                      iotest.HalfReader(bytes.NewReader(data)),
			"data+EOF":                  iotest.DataErrReader(bytes.NewReader(data)),
			"1..7 each":                 &chunkReader{r: bytes.NewReader(data), n: 7},
			"connReader over 1..7 each": &connReader{r: &chunkReader{r: bytes.NewReader(data), n: 7}},
			"connReader over data+EOF":  &connReader{r: iotest.DataErrReader(bytes.NewReader(data))},
			"connReader":                &connReader{r: bytes.NewReader(data)},
		} {
			got := decodeStream(r, limit)
			for i := range max(len(got), len(want)) {
				if i >= len(got) || i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s reader: frame %d decoded differently from bytes.Reader's (%d and %d results):\n%s\n%s",
						name, i, len(got), len(want), describe(got, i), describe(want, i))
				}
			}
		}
	})
}

// FuzzDecodeHandshake covers the hello/welcome decoders.
func FuzzDecodeHandshake(f *testing.F) {
	w := wire.NewWriter(64)
	for _, version := range []uint32{ProtocolVersion, ProtocolVersion - 1} {
		appendHello(w, hello{version: version, procID: 2, ranks: []int{3, 4}, token: "tok"})
		f.Add(append([]byte(nil), w.Bytes()[lenPrefixSize:]...))
		w.Reset()
	}
	appendWelcome(w, welcome{ok: false, version: 9, reason: "nope"})
	f.Add(append([]byte(nil), w.Bytes()[lenPrefixSize:]...))

	f.Fuzz(func(t *testing.T, body []byte) {
		if h, err := decodeHelloBody(body); err == nil {
			rt := wire.NewWriter(64)
			appendHello(rt, h)
			if h2, err2 := decodeHelloBody(rt.Bytes()[lenPrefixSize:]); err2 != nil || h2.token != h.token || h2.procID != h.procID {
				t.Fatalf("hello round-trip broke: %+v -> %+v (%v)", h, h2, err2)
			}
		}
		decodeWelcomeBody(body)
	})
}

// TestReadFrameOversizedRejectsWithoutAllocating pins the order the reader
// works in: every malformed header — oversized, short, wrong kind, negative
// size, payload and size disagreeing either way, bytes trailing a sized
// send — is refused before a payload buffer is taken, so a corrupt prefix
// claiming a near-2GiB body costs nothing. Measured both as buffer requests
// and in allocated bytes (the error value itself may allocate a few dozen).
// The good frames prove the table is not refused for some other reason.
func TestReadFrameOversizedRejectsWithoutAllocating(t *testing.T) {
	var hdr [frameHeaderSize]byte
	var cb countingBuf
	r := bytes.NewReader(nil)

	r.Reset(goodFrame)
	if env, payload, err := readMsgFrame(r, &hdr, DefaultMaxFrame, cb.get); err != nil || string(payload) != "abcd" || env.Tag != -5 || cb.calls != 1 {
		t.Fatalf("good frame: env %+v payload %q err %v after %d buffer requests", env, payload, err, cb.calls)
	}
	r.Reset(sizedFrame)
	if env, payload, err := readMsgFrame(r, &hdr, DefaultMaxFrame, cb.get); err != nil || payload != nil || env.Size != 1<<20 || cb.calls != 1 {
		t.Fatalf("sized frame: env %+v payload %v err %v after %d buffer requests", env, payload, err, cb.calls)
	}

	for _, bad := range badFrames {
		name := bad.name
		cb = countingBuf{}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			r.Reset(bad.frame)
			if _, _, err := readMsgFrame(r, &hdr, DefaultMaxFrame, cb.get); err == nil {
				t.Fatalf("%s frame accepted", name)
			}
		}
		runtime.ReadMemStats(&after)
		if cb.calls != 0 {
			t.Errorf("%s: reader took %d payload buffers (%d bytes) before refusing", name, cb.calls, cb.bytes)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: 100 rejections allocated %d bytes", name, grew)
		}
	}

	r.Reset([]byte{0xF0, 0xFF, 0xFF, 0x7F})
	if _, err := readFrame(r, maxHandshakeFrame); err == nil {
		t.Fatal("oversized handshake frame accepted")
	}
}
