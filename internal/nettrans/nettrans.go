// Package nettrans is the TCP backend of the minimpi Transport interface:
// it carries messages between the ranks of one minimpi World when those
// ranks are spread over several OS processes.
//
// Deployment model. A topology assigns every world rank to exactly one
// process. Each process runs its own simulation driven by sim.RunRealtime
// (virtual clock slaved to the wall clock) and owns one Transport bound to
// one listener. Messages between ranks of the same process take the
// unchanged in-sim path — the deterministic interconnect model stays the
// oracle — while messages to remote ranks are framed and written to a
// per-process-pair TCP connection. A goroutine-per-connection reader
// decodes arriving frames and injects them into the destination World,
// where they land in the same matching queues (posted receives and
// unexpected envelopes) a local send would.
//
// Connections. Process i dials process j exactly when i < j, so each pair
// shares a single full-duplex connection carrying all of its rank traffic
// in both directions; per-pair FIFO order on the wire preserves minimpi's
// non-overtaking guarantee. The dialer owns reconnection: on connection
// loss it redials with exponential backoff while outbound frames queue in
// an unbounded outbox (the scheduler must never block on a slow peer), and
// the frame a broken connection failed to carry is resent on the next one.
// A handshake (protocol version, shared token, proc id + rank claim)
// guards every connection; refusals produce typed errors wrapping
// ErrHandshake.
//
// Timeouts need no special handling: they are simulation timer events, and
// under RunRealtime those fire at wall-clock deadlines.
package nettrans

import (
	"crypto/subtle"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynacc/internal/minimpi"
	"dynacc/internal/wire"
)

// ProcSpec describes one process of the topology: where it listens and
// which world ranks it hosts.
type ProcSpec struct {
	Addr  string
	Ranks []int
}

// Config describes one process's attachment to the topology.
type Config struct {
	// World is the local World; messages for remote ranks leave it through
	// this transport, arriving frames are injected into it.
	World *minimpi.World
	// ProcID indexes Procs: which process this is.
	ProcID int
	// Procs is the shared topology. The rank sets must partition
	// [0, World.Size()) and be identical in every process.
	Procs []ProcSpec
	// Token authenticates connections; both sides must present the same
	// value. Empty means unauthenticated.
	Token string
	// Listener optionally provides a pre-bound listener (e.g. on :0 with
	// the resolved address already published in Procs). When nil, the
	// transport listens on Procs[ProcID].Addr.
	Listener net.Listener
	// Version overrides the announced protocol version (tests only);
	// ProtocolVersion when zero.
	Version uint32

	// DialBackoff is the first step of the reconnect schedule, doubling to
	// dialBackoffMax (default 50ms).
	DialBackoff time.Duration
}

// Per connect attempt, the reconnect schedule's ceiling, per handshake.
const (
	dialTimeout      = 2 * time.Second
	dialBackoffMax   = 2 * time.Second
	handshakeTimeout = 5 * time.Second
)

// Transport is a minimpi.Transport carrying remote-rank messages over TCP.
// Create with New, install with World.SetTransport, and drive the world
// with sim.RunRealtime — injection needs a running real-time loop.
type Transport struct {
	cfg      Config
	world    *minimpi.World
	local    minimpi.Transport // in-sim backend for local-destination traffic
	version  uint32
	rankProc []int // world rank -> proc id
	peers    []*peer
	ln       net.Listener

	closed   atomic.Bool
	closedCh chan struct{}
	wg       sync.WaitGroup

	stats struct {
		dials, reconnects, handshakeFailures     atomic.Int64
		framesSent, framesReceived, framesResent atomic.Int64
		bytesSent, bytesReceived                 atomic.Int64
	}
}

// outFrame is one queued message frame: the fixed header inline and the
// payload, a world-pool buffer the outbox owns — or rendezvous send m's own.
type outFrame struct {
	hdr     [frameHeaderSize]byte
	payload []byte
	m       *minimpi.Message
}

// peer is the connection state toward one remote process.
type peer struct {
	t      *Transport
	id     int
	addr   string
	dialer bool // we dial them (our proc id is lower)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []outFrame // frames awaiting write; queue[head] is next
	head     int
	inflight int // queue[head:head+inflight] is the writer's: too late to cancel
	conn     net.Conn
	connGen  int
	written  []*minimpi.Message // rendezvous sends on the wire, for settle
	settle   func()             // settle(pr), bound once: Inject allocates nothing

	ready   bool // first handshake completed
	readyCh chan struct{}
	failCh  chan struct{}
	permErr error // permanent handshake refusal; set once, then failCh closes
}

// New validates the topology, binds the listener and starts the
// per-peer connection machinery. It does not block waiting for peers; use
// WaitReady for that.
func New(cfg Config) (*Transport, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("nettrans: nil World")
	}
	if cfg.ProcID < 0 || cfg.ProcID >= len(cfg.Procs) {
		return nil, fmt.Errorf("nettrans: proc id %d out of range [0,%d)", cfg.ProcID, len(cfg.Procs))
	}
	n := cfg.World.Size()
	rankProc := make([]int, n)
	for i := range rankProc {
		rankProc[i] = -1
	}
	for pid, ps := range cfg.Procs {
		for _, r := range ps.Ranks {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("nettrans: proc %d claims rank %d outside world [0,%d)", pid, r, n)
			}
			if rankProc[r] != -1 {
				return nil, fmt.Errorf("nettrans: rank %d assigned to procs %d and %d", r, rankProc[r], pid)
			}
			rankProc[r] = pid
		}
	}
	for r, pid := range rankProc {
		if pid == -1 {
			return nil, fmt.Errorf("nettrans: rank %d not assigned to any proc", r)
		}
	}
	if cfg.DialBackoff == 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	t := &Transport{
		cfg:      cfg,
		world:    cfg.World,
		local:    cfg.World.SimTransport(),
		version:  cfg.Version,
		rankProc: rankProc,
		closedCh: make(chan struct{}),
	}
	if t.version == 0 {
		t.version = ProtocolVersion
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Procs[cfg.ProcID].Addr)
		if err != nil {
			return nil, fmt.Errorf("nettrans: listen: %w", err)
		}
	}
	t.ln = ln
	t.peers = make([]*peer, len(cfg.Procs))
	for pid, ps := range cfg.Procs {
		if pid == cfg.ProcID {
			continue
		}
		pr := &peer{
			t:       t,
			id:      pid,
			addr:    ps.Addr,
			dialer:  cfg.ProcID < pid,
			readyCh: make(chan struct{}),
			failCh:  make(chan struct{}),
		}
		pr.cond = sync.NewCond(&pr.mu)
		pr.settle = func() { settle(pr) }
		t.peers[pid] = pr
		t.wg.Add(1)
		go pr.writeLoop()
		if pr.dialer {
			t.wg.Add(1)
			go pr.dialLoop()
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's actual address (useful with ":0").
func (t *Transport) Addr() net.Addr { return t.ln.Addr() }

// Deliver implements minimpi.Transport. Local-destination messages take
// the in-sim path unchanged; remote ones queue toward the destination
// process, completing at once if owned or borrowed below the eager threshold
// (copied to a pool buffer), else once written from the sender's buffer.
func (t *Transport) Deliver(m *minimpi.Message) {
	dst := m.Dst()
	pid := t.rankProc[dst]
	if pid == t.cfg.ProcID {
		t.local.Deliver(m)
		return
	}
	var f outFrame
	payload, owned := m.TakePayload()
	putMsgHeader(&f.hdr, m.RemoteEnvelope(), payload)
	if owned {
		f.payload = payload
	} else if t.world.Params().Rendezvous(len(payload)) {
		f.payload, f.m = payload, m
		m.OnCancel(settle, t.peers[pid])
	} else if len(payload) > 0 { // an empty borrowed slice stays the caller's
		f.payload = t.world.GetBuf(len(payload))
		copy(f.payload, payload)
	}
	if f.m == nil {
		m.FinishLocal()
	}
	t.peers[pid].enqueue(f)
}

// settle completes, in scheduler context, the rendezvous sends the writer put
// on the wire, and those canceled before it took them (their frames dropped).
func settle(v any) {
	pr := v.(*peer)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, m := range pr.written {
		m.FinishLocal()
	}
	clear(pr.written)
	pr.written = pr.written[:0]
	for i := len(pr.queue) - 1; i >= pr.head+pr.inflight; i-- {
		if f := pr.queue[i]; f.m != nil && f.m.Canceled() {
			pr.queue = slices.Delete(pr.queue, i, i+1)
			f.m.FinishLocal()
		}
	}
}

// Stats implements minimpi.Transport.
func (t *Transport) Stats() minimpi.TransportStats {
	return minimpi.TransportStats{
		Dials:             t.stats.dials.Load(),
		Reconnects:        t.stats.reconnects.Load(),
		HandshakeFailures: t.stats.handshakeFailures.Load(),
		FramesSent:        t.stats.framesSent.Load(),
		FramesReceived:    t.stats.framesReceived.Load(),
		FramesResent:      t.stats.framesResent.Load(),
		BytesSent:         t.stats.bytesSent.Load(),
		BytesReceived:     t.stats.bytesReceived.Load(),
	}
}

// WaitReady blocks until every peer this process dials has completed its
// first handshake, or returns the first permanent refusal (bad token,
// version mismatch) or a timeout error. Accept-side peers are not waited
// for: they connect whenever the remote process starts.
func (t *Transport) WaitReady(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for _, pr := range t.peers {
		if pr == nil || !pr.dialer {
			continue
		}
		select {
		case <-pr.readyCh:
		case <-pr.failCh:
			return pr.permErr
		case <-t.closedCh:
			return ErrClosed
		case <-deadline.C:
			return fmt.Errorf("nettrans: timed out waiting for peer %d (%s)", pr.id, pr.addr)
		}
	}
	return nil
}

// Flush waits until every outbox has drained (all queued frames written to
// a live connection), the timeout elapses or Close runs, reporting whether
// it drained. Call before Close when in-flight responses must reach peers.
func (t *Transport) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		empty := true
		for _, pr := range t.peers {
			if pr != nil && pr.queued() > 0 {
				empty = false
				break
			}
		}
		if empty || t.closed.Load() {
			return empty
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close implements minimpi.Transport: stops all connection machinery and
// waits for its goroutines. Queued frames that never reached a connection
// are dropped, like any network would on process exit; use Flush first for
// a graceful drain.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.closedCh)
	t.ln.Close()
	for _, pr := range t.peers {
		if pr == nil {
			continue
		}
		pr.mu.Lock()
		if pr.conn != nil {
			pr.conn.Close()
			pr.conn = nil
		}
		pr.cond.Broadcast()
		pr.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}

// enqueue appends a frame to the peer's outbox. Never blocks: the outbox
// is unbounded so the simulation scheduler cannot be wedged by a slow or
// dead peer.
func (pr *peer) enqueue(frame outFrame) {
	pr.mu.Lock()
	if pr.t.closed.Load() {
		pr.mu.Unlock()
		return
	}
	pr.queue = append(pr.queue, frame)
	pr.cond.Signal()
	pr.mu.Unlock()
}

func (pr *peer) queued() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.queue) - pr.head
}

// maxBatch caps the frames one writev carries.
const maxBatch = 64

// writeLoop writes queued frames to the current connection, every frame
// queued (up to maxBatch) in one writev, header and payload each, and
// returns each written payload to the payload pool. A failed write drops
// the connection; the frames it carried whole are sent, and the first it
// did not is left at the head of the queue, to be resent whole on the next
// connection (counted once in FramesResent).
func (pr *peer) writeLoop() {
	defer pr.t.wg.Done()
	// Declared once: these escape into the writev call. The batch stays in
	// the queue: enqueue only appends, and settle spares the writer's frames.
	var iov [2 * maxBatch][]byte
	var bufs net.Buffers
	for {
		pr.mu.Lock()
		for !pr.t.closed.Load() && (pr.head >= len(pr.queue) || pr.conn == nil) {
			pr.cond.Wait()
		}
		if pr.t.closed.Load() {
			pr.mu.Unlock()
			return
		}
		batch := pr.queue[pr.head:min(len(pr.queue), pr.head+maxBatch)]
		for i := range batch {
			iov[2*i], iov[2*i+1] = batch[i].hdr[:], batch[i].payload
		}
		conn, gen := pr.conn, pr.connGen
		pr.inflight = len(batch)
		pr.mu.Unlock()

		bufs = iov[:2*len(batch)]
		n, err := bufs.WriteTo(conn)
		clear(iov[:2*len(batch)]) // hold no payload past its write

		pr.mu.Lock()
		pr.inflight = 0
		var sent, sentBytes int64
		for _, f := range batch {
			size := int64(frameHeaderSize + len(f.payload))
			if n-sentBytes < size {
				break
			}
			sent++
			sentBytes += size
			if f.m != nil {
				pr.written = append(pr.written, f.m)
			} else {
				pr.t.world.PutBuf(f.payload)
			}
			pr.queue[pr.head] = outFrame{}
			pr.head++
		}
		if pr.head == len(pr.queue) {
			pr.queue = pr.queue[:0]
			pr.head = 0
		}
		if len(pr.written) > 0 {
			pr.t.world.Sim().Inject(pr.settle)
		}
		if err != nil {
			if pr.connGen == gen && pr.conn != nil {
				pr.conn.Close()
				pr.conn = nil
			}
			pr.t.stats.framesResent.Add(1)
		}
		pr.mu.Unlock()
		pr.t.stats.framesSent.Add(sent)
		pr.t.stats.bytesSent.Add(sentBytes)
	}
}

// setConn installs a fresh, handshaken connection, replacing (and closing)
// any previous one. Once Close has swept the peers (under this mutex)
// nobody would close an installed conn, so one that completes its
// handshake that late is closed here instead; the caller's readLoop then
// ends on its first read.
func (pr *peer) setConn(conn net.Conn) {
	pr.mu.Lock()
	if pr.t.closed.Load() {
		pr.mu.Unlock()
		conn.Close()
		return
	}
	if pr.conn != nil {
		pr.conn.Close()
	}
	pr.conn = conn
	pr.connGen++
	if pr.ready {
		pr.t.stats.reconnects.Add(1)
	} else {
		pr.ready = true
		close(pr.readyCh)
	}
	pr.cond.Broadcast()
	pr.mu.Unlock()
}

// dropConn clears the peer's current connection if it is still conn.
func (pr *peer) dropConn(conn net.Conn) {
	pr.mu.Lock()
	if pr.conn == conn {
		pr.conn = nil
	}
	pr.mu.Unlock()
}

func (pr *peer) setPermErr(err error) {
	pr.mu.Lock()
	if pr.permErr == nil {
		pr.permErr = err
		close(pr.failCh)
	}
	pr.mu.Unlock()
}

// dialLoop owns the connection toward a higher-numbered process: dial,
// handshake, then serve reads until the connection dies, then redial with
// exponential backoff. A permanent refusal (bad token, version mismatch)
// stops the loop — retrying cannot help.
func (pr *peer) dialLoop() {
	defer pr.t.wg.Done()
	t := pr.t
	backoff := t.cfg.DialBackoff
	for {
		if t.closed.Load() {
			return
		}
		conn, err := net.DialTimeout("tcp", pr.addr, dialTimeout)
		t.stats.dials.Add(1)
		if err == nil {
			herr := t.handshakeOut(conn)
			if herr == nil {
				backoff = t.cfg.DialBackoff
				pr.setConn(conn)
				t.readLoop(conn, pr) // returns when the connection dies
				continue
			}
			conn.Close()
			t.stats.handshakeFailures.Add(1)
			switch herr.(type) {
			case *VersionMismatchError, *HandshakeError:
				pr.setPermErr(herr)
				return
			}
		}
		timer := time.NewTimer(backoff)
		select {
		case <-t.closedCh:
			timer.Stop()
			return
		case <-timer.C:
		}
		backoff = min(2*backoff, dialBackoffMax)
	}
}

// handshakeOut runs the dialer's half: send hello, await welcome.
func (t *Transport) handshakeOut(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	w := wire.NewWriter(64)
	appendHello(w, hello{
		version: t.version,
		procID:  t.cfg.ProcID,
		ranks:   t.cfg.Procs[t.cfg.ProcID].Ranks,
		token:   t.cfg.Token,
	})
	if _, err := conn.Write(w.Bytes()); err != nil {
		return err
	}
	body, err := readFrame(conn, maxHandshakeFrame)
	if err != nil {
		return err
	}
	wl, err := decodeWelcomeBody(body)
	if err != nil {
		return err
	}
	if !wl.ok {
		if wl.version != t.version {
			return &VersionMismatchError{Mine: t.version, Theirs: wl.version}
		}
		return &HandshakeError{Peer: conn.RemoteAddr().String(), Reason: wl.reason}
	}
	return nil
}

// acceptLoop admits inbound connections: each runs the accept-side
// handshake and, if it checks out, becomes the claimed peer's connection.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			pr, err := t.handshakeIn(conn)
			if err != nil {
				t.stats.handshakeFailures.Add(1)
				conn.Close()
				return
			}
			pr.setConn(conn)
			t.readLoop(conn, pr)
		}()
	}
}

// handshakeIn runs the accept side: read the hello, verify the version,
// token and rank claim against the shared topology, and reply.
func (t *Transport) handshakeIn(conn net.Conn) (*peer, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	body, err := readFrame(conn, maxHandshakeFrame)
	if err != nil {
		return nil, err
	}
	h, err := decodeHelloBody(body)
	if err != nil {
		return nil, t.refuse(conn, err.Error())
	}
	if h.version != t.version {
		t.refuse(conn, "protocol version mismatch")
		return nil, &VersionMismatchError{Mine: t.version, Theirs: h.version}
	}
	if subtle.ConstantTimeCompare([]byte(h.token), []byte(t.cfg.Token)) != 1 {
		return nil, t.refuse(conn, "bad connection token")
	}
	if h.procID < 0 || h.procID >= len(t.cfg.Procs) || h.procID == t.cfg.ProcID {
		return nil, t.refuse(conn, fmt.Sprintf("bogus proc id %d", h.procID))
	}
	want := t.cfg.Procs[h.procID].Ranks
	if !slices.Equal(h.ranks, want) {
		return nil, t.refuse(conn, fmt.Sprintf("rank claim %v does not match topology %v for proc %d", h.ranks, want, h.procID))
	}
	w := wire.NewWriter(32)
	appendWelcome(w, welcome{ok: true, version: t.version})
	if _, err := conn.Write(w.Bytes()); err != nil {
		return nil, err
	}
	return t.peers[h.procID], nil
}

// refuse sends a negative welcome and returns the matching typed error.
func (t *Transport) refuse(conn net.Conn, reason string) error {
	w := wire.NewWriter(64)
	appendWelcome(w, welcome{ok: false, version: t.version, reason: reason})
	conn.Write(w.Bytes())
	return &HandshakeError{Peer: conn.RemoteAddr().String(), Reason: reason}
}

// readLoop reads message frames off one connection and injects them into
// the local World until the connection dies, through a connReader: one read
// takes in a frame and the frames behind it. Payloads land in payload-pool
// buffers that the receiver returns to the pool (World.PutPayload).
func (t *Transport) readLoop(conn net.Conn, pr *peer) {
	var hdr [frameHeaderSize]byte
	getBuf := t.world.GetBuf
	r := &connReader{r: conn}
	for {
		env, payload, err := readMsgFrame(r, &hdr, DefaultMaxFrame, getBuf)
		if err != nil {
			break
		}
		t.stats.framesReceived.Add(1)
		t.stats.bytesReceived.Add(int64(frameHeaderSize + len(payload)))
		if err := t.world.InjectRemote(env, payload); err != nil {
			break
		}
	}
	conn.Close()
	pr.dropConn(conn)
}
