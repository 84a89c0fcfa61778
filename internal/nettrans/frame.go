package nettrans

import (
	"encoding/binary"
	"fmt"
	"io"

	"dynacc/internal/minimpi"
	"dynacc/internal/wire"
)

// Stream format: every frame travels as [u32 length][body], length counting
// the body only. Bodies start with a one-byte kind; all integers are
// little-endian. Three kinds exist: the connection handshake pair
// (hello/welcome, wire codec) and the message frame that carries one
// minimpi envelope as a fixed header, then the payload.

// ProtocolVersion is the wire protocol revision (2: the ARM's one fixed
// header; 3: the daemon's); mismatched versions are refused during the
// handshake.
const ProtocolVersion uint32 = 3

// helloMagic opens every hello body so a stray connection from something
// that is not a dynacc transport fails fast, before any length prefix is
// trusted. "DACT" little-endian.
const helloMagic uint32 = 0x54434144

// Frame kinds.
const (
	kindMsg     = 1
	kindHello   = 2
	kindWelcome = 3
)

// DefaultMaxFrame bounds a single frame body. Larger pipelined transfers
// are already split into blocks well under this by the copy pipelines.
const DefaultMaxFrame = 64 << 20

// lenPrefixSize is the stream length prefix.
const lenPrefixSize = 4

// maxHandshakeFrame bounds hello/welcome bodies: a rank-claim list plus a
// refusal reason fits far under this.
const maxHandshakeFrame = 1 << 16

// msgHeaderSize is the fixed-size header of a kindMsg body: kind byte,
// four u32 fields (dst, src, srcComm, ctx), i64 tag, u64 size and the
// has-payload flag. frameHeaderSize adds the stream length prefix.
const (
	msgHeaderSize   = 1 + 4*4 + 8 + 8 + 1
	frameHeaderSize = lenPrefixSize + msgHeaderSize
)

// putMsgHeader encodes the prefix and header of a message frame carrying
// payload (nil for a sized send). The tag is encoded as i64: collective
// tags are negative and must round-trip.
func putMsgHeader(hdr *[frameHeaderSize]byte, env minimpi.Envelope, payload []byte) {
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], uint32(msgHeaderSize+len(payload)))
	hdr[4] = kindMsg
	le.PutUint32(hdr[5:], uint32(env.Dst))
	le.PutUint32(hdr[9:], uint32(env.Src))
	le.PutUint32(hdr[13:], uint32(env.SrcComm))
	le.PutUint32(hdr[17:], uint32(env.Ctx))
	le.PutUint64(hdr[21:], uint64(env.Tag))
	le.PutUint64(hdr[29:], uint64(env.Size))
	hdr[37] = 0
	if payload != nil {
		hdr[37] = 1
	}
}

// decodeMsgHeader validates a message frame's prefix and header in full —
// length against maxFrame, kind, size, and that exactly the announced
// payload follows — and returns the envelope with that payload length, -1
// for a sized send. The reader takes a payload buffer only after this
// passed, so a corrupt or hostile header costs no allocation.
func decodeMsgHeader(hdr *[frameHeaderSize]byte, maxFrame int) (minimpi.Envelope, int, error) {
	le := binary.LittleEndian
	n := int(le.Uint32(hdr[0:]))
	env := minimpi.Envelope{
		Dst:     int(int32(le.Uint32(hdr[5:]))),
		Src:     int(int32(le.Uint32(hdr[9:]))),
		SrcComm: int(int32(le.Uint32(hdr[13:]))),
		Ctx:     int(int32(le.Uint32(hdr[17:]))),
		Tag:     minimpi.Tag(int64(le.Uint64(hdr[21:]))),
		Size:    int(int64(le.Uint64(hdr[29:]))),
	}
	rest, sized := n-msgHeaderSize, hdr[37] == 0
	switch {
	case n < msgHeaderSize || n > maxFrame:
		return env, 0, fmt.Errorf("nettrans: frame length %d outside [%d,%d]", n, msgHeaderSize, maxFrame)
	case hdr[4] != kindMsg:
		return env, 0, fmt.Errorf("nettrans: frame kind %d, want message", hdr[4])
	case env.Size < 0:
		return env, 0, fmt.Errorf("nettrans: negative envelope size %d", env.Size)
	case sized && rest != 0:
		return env, 0, fmt.Errorf("nettrans: %d trailing bytes after sized-send frame", rest)
	case sized:
		rest = -1
	case rest != env.Size:
		return env, 0, fmt.Errorf("nettrans: payload %dB does not match envelope size %dB", rest, env.Size)
	}
	return env, rest, nil
}

// readMsgFrame reads one message frame from r: the fixed header into hdr,
// then — once decodeMsgHeader accepted it — the payload straight into a
// buffer from getBuf, which the caller owns from then on.
func readMsgFrame(r io.Reader, hdr *[frameHeaderSize]byte, maxFrame int, getBuf func(int) []byte) (minimpi.Envelope, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return minimpi.Envelope{}, nil, err
	}
	env, n, err := decodeMsgHeader(hdr, maxFrame)
	if err != nil || n < 0 {
		return env, nil, err // refused, or a sized send: nothing follows
	}
	payload := []byte{} // an empty payload is still a payload, not a sized send
	if n > 0 {
		payload = getBuf(n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return minimpi.Envelope{}, nil, err
		}
	}
	return env, payload, nil
}

// connReader is readLoop's 4 KiB buffer over one connection: one read
// takes in a frame's header and small payload, or a burst of frames. A Read
// that finds the buffer empty and asks for at least its size goes straight
// into the caller's slice, so at most 4 KiB of a large payload is copied. An
// error that comes with data is left for the next read of the connection to
// return again (net.Conn errors and io.EOF stay).
type connReader struct {
	r    io.Reader
	i, n int // buf[i:n] is read but not yet handed out
	buf  [4 << 10]byte
}

func (c *connReader) Read(p []byte) (int, error) {
	if c.i == c.n {
		if len(p) >= len(c.buf) {
			return c.r.Read(p)
		}
		n, err := c.r.Read(c.buf[:])
		if n == 0 {
			return 0, err
		}
		c.i, c.n = 0, n
	}
	n := copy(p, c.buf[c.i:c.n])
	c.i += n
	return n, nil
}

// hello is the handshake opener: the dialer claims a proc id and the exact
// rank set the shared topology assigns to it, and proves membership with
// the connection token.
type hello struct {
	version uint32
	procID  int
	ranks   []int
	token   string
}

func appendHello(w *wire.Writer, h hello) {
	body := wire.NewWriter(64)
	body.U8(kindHello)
	body.U32(helloMagic)
	body.U32(h.version)
	body.U32(uint32(h.procID))
	body.Ints(h.ranks)
	body.Str(h.token)
	w.U32(uint32(body.Len()))
	w.Raw(body.Bytes())
}

func decodeHelloBody(body []byte) (hello, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != kindHello {
		return hello{}, fmt.Errorf("nettrans: frame kind %d, want hello", k)
	}
	if m := r.U32(); m != helloMagic {
		return hello{}, fmt.Errorf("nettrans: bad magic %#x", m)
	}
	h := hello{
		version: r.U32(),
		procID:  int(int32(r.U32())),
		ranks:   r.Ints(),
		token:   r.Str(),
	}
	if err := r.Err(); err != nil {
		return hello{}, err
	}
	if r.Remaining() != 0 {
		return hello{}, fmt.Errorf("nettrans: %d trailing bytes in hello", r.Remaining())
	}
	return h, nil
}

// welcome is the handshake reply. A refusal carries a reason and, for
// version mismatches, the acceptor's version so the dialer can produce a
// precise error.
type welcome struct {
	ok      bool
	version uint32
	reason  string
}

func appendWelcome(w *wire.Writer, wl welcome) {
	body := wire.NewWriter(32)
	body.U8(kindWelcome)
	if wl.ok {
		body.U8(1)
	} else {
		body.U8(0)
	}
	body.U32(wl.version)
	body.Str(wl.reason)
	w.U32(uint32(body.Len()))
	w.Raw(body.Bytes())
}

func decodeWelcomeBody(body []byte) (welcome, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != kindWelcome {
		return welcome{}, fmt.Errorf("nettrans: frame kind %d, want welcome", k)
	}
	wl := welcome{
		ok:      r.U8() != 0,
		version: r.U32(),
		reason:  r.Str(),
	}
	if err := r.Err(); err != nil {
		return welcome{}, err
	}
	return wl, nil
}

// readFrame reads one length-prefixed handshake frame body from r. The
// length is validated against maxFrame before any body allocation, so an
// adversarial or corrupt prefix cannot cause an allocation blowup.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var prefix [lenPrefixSize]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(prefix[:]))
	if n <= 0 || n > maxFrame {
		return nil, fmt.Errorf("nettrans: handshake frame length %d outside (0,%d]", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
