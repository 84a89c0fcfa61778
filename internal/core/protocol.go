// Package core implements the paper's dynamic accelerator-cluster
// middleware: the front-end computation API a compute node links against
// (the ac* calls of Listing 2) and the back-end daemon that executes the
// requests on an accelerator's GPU (paper Figure 4).
//
// Every API call is a request/response exchange over minimpi — the
// paper's "two MPI messages per request". Bulk payloads of the memory
// copy operations additionally travel as a stream of block messages
// governed by a copy protocol:
//
//   - Naive: the whole payload is one message, fully staged in the
//     accelerator node's main memory before a single DMA moves it to the
//     GPU (and symmetrically for device-to-host).
//   - Pipeline: the payload is split into fixed-size blocks; while block
//     i+1 is still in flight on the network, block i is already being
//     DMA-copied from the shared pinned staging buffers into GPU memory —
//     the GPUDirect-style overlap of the paper's Section IV.
//   - Adaptive: pipeline with a size-dependent block size (the paper's
//     best configuration: 128 KiB blocks below ~9 MiB, 512 KiB above).
//
// Requests carry a stream identifier; requests on the same stream execute
// in order on the accelerator while different streams may overlap (copies
// overlap kernels), mirroring CUDA stream semantics that MAGMA-style
// lookahead codes rely on.
package core

import (
	"errors"
	"fmt"
	"slices"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/wire"
)

// Message tags used between a front-end and its accelerators' daemons.
// They live below arm.TagRequest (1<<20) so both protocols share a
// communicator safely. Response and data tags are offset by the request
// sequence number modulo tagWindow, which keeps concurrent requests apart
// without unbounded tag growth.
const (
	// TagRequest carries request headers to a daemon.
	TagRequest minimpi.Tag = 10
	// tag bases for responses, copy-block streams and direct AC-to-AC
	// transfers.
	tagRespBase minimpi.Tag = 1 << 16
	tagDataBase minimpi.Tag = 2 << 16
	tagD2DBase  minimpi.Tag = 3 << 16
	tagWindow               = 1 << 15
)

func respTag(reqID uint64) minimpi.Tag { return tagRespBase + minimpi.Tag(reqID%tagWindow) }
func dataTag(reqID uint64) minimpi.Tag { return tagDataBase + minimpi.Tag(reqID%tagWindow) }
func d2dTag(xferID uint64) minimpi.Tag { return tagD2DBase + minimpi.Tag(xferID%tagWindow) }

// Op codes of the request protocol.
const (
	OpMemAlloc uint8 = iota + 1
	OpMemFree
	OpMemcpyH2D
	OpMemcpyD2H
	OpKernelRun
	OpSync
	OpDeviceInfo
	OpD2DSend
	OpD2DRecv
	OpMemset
	OpReset
	OpShutdown
	// OpBatch is a stream-ordered command buffer: one wire message
	// carrying a sequence of header-only commands that execute in order
	// on the target stream. It carries one request ID and replays
	// atomically through the dedup window.
	OpBatch
	// OpWriteInline is a small host-to-device write whose payload rides
	// inside the request header instead of a separate block stream. Only
	// valid inside an OpBatch.
	OpWriteInline
	// Session layer (multi-tenant sharing). OpSessionOpen establishes a
	// per-client session on the daemon (carrying its memory quota),
	// OpSessionClose tears it down and frees every allocation it still
	// owns, and OpSessionReap — sent by the ARM's reclaim path — closes
	// all sessions a given client rank holds, so one tenant's death never
	// requires a device-wide reset.
	OpSessionOpen
	OpSessionClose
	OpSessionReap
	// 18 and 19 were the session and fence prefix markers before the fixed
	// header carried both fields; they stay unassigned so such a frame is
	// refused as an unknown op, not run as a device-local copy.
	_
	_
	// OpMemcpyD2D is a device-local copy between two allocations on the
	// same accelerator: a header-only request (no payload ever crosses the
	// wire) that the daemon resolves with one device-internal DMA. The
	// redistribution fast path uses it to "move" blocks whose owner did
	// not change when the block-cyclic layout shifts their offsets.
	OpMemcpyD2D
)

// maxBatchOps bounds the command count one OpBatch may claim; anything
// larger is corrupt or hostile framing, not a buffer a client would
// record (clients flush far earlier).
const maxBatchOps = 4096

// batchable reports whether an op may appear inside an OpBatch:
// header-only commands whose execution is fully described by the header.
// Streamed copies, syncs and control ops need their own request exchange.
func batchable(op uint8) bool {
	switch op {
	case OpKernelRun, OpMemset, OpMemFree, OpWriteInline:
		return true
	}
	return false
}

// Response status codes. The typed codes map to exported sentinel
// errors on the client side so callers can dispatch with errors.Is;
// they ride in the existing status byte, so responses are the same size
// whether or not sessions are in play.
const (
	statusOK uint8 = iota
	statusError
	statusNotOwner  // ErrNotOwner: pointer not owned by the requesting session
	statusQuota     // ErrQuotaExceeded: allocation would exceed the session quota
	statusNoSession // ErrNoSession: request named an unknown or closed session
	statusFenced    // ErrFenced: fencing token below the daemon's high-water mark
)

// Typed errors of the session layer.
var (
	// ErrNotOwner is returned when a request names a device pointer that
	// the requesting session does not own. The allocation is untouched.
	ErrNotOwner = errors.New("core: device pointer not owned by this session")
	// ErrQuotaExceeded is returned when an allocation would push a
	// session past its memory quota.
	ErrQuotaExceeded = errors.New("core: session memory quota exceeded")
	// ErrNoSession is returned when a request carries a session id the
	// daemon does not know (never opened, already closed, or reaped).
	ErrNoSession = errors.New("core: unknown or closed session")
	// ErrFenced is returned when a destructive request's fencing token is
	// below the daemon's high-water epoch: the lease it was minted under
	// has been superseded by an ARM failover, and honoring it could undo
	// the successor's work (the split-brain write the fence exists to
	// stop).
	ErrFenced = errors.New("core: fencing token is stale")
)

// ErrNoPeerPath is returned when a device-to-device copy is requested
// between accelerators that share no direct link (different front-ends,
// or a node-local device outside the fabric). It mirrors
// arm.ErrNoCapableDevice: a typed "this route cannot exist" that callers
// distinguish from transfer failures, so data-plane code can fall back
// to host staging instead of aborting.
var ErrNoPeerPath = errors.New("core: no direct peer path between accelerators")

// sentinels holds the typed status codes' errors, by code.
var sentinels = [...]error{statusNotOwner: ErrNotOwner, statusQuota: ErrQuotaExceeded,
	statusNoSession: ErrNoSession, statusFenced: ErrFenced}

// statusForErr maps a daemon-side error to its wire status code.
func statusForErr(err error) uint8 {
	if err == nil {
		return statusOK
	}
	for st, sentinel := range sentinels {
		if sentinel != nil && errors.Is(err, sentinel) {
			return uint8(st)
		}
	}
	return statusError
}

// sentinelFor maps a wire status code back to the sentinel it carries
// (nil for plain errors).
func sentinelFor(status uint8) error {
	if int(status) < len(sentinels) {
		return sentinels[status]
	}
	return nil
}

// ProtocolKind selects the memory-copy protocol.
type ProtocolKind uint8

// Copy protocol kinds.
const (
	// Naive stages the complete payload in accelerator main memory before
	// the single host↔device copy (paper Figure 5 "naive").
	Naive ProtocolKind = iota + 1
	// Pipeline splits the payload into fixed-size blocks and overlaps
	// network transfer with host↔device DMA.
	Pipeline
	// Adaptive is Pipeline with a block size chosen from the payload size.
	Adaptive
	// Autotune starts from the Adaptive thresholds (the warm start — the
	// first transfer on a link is never worse than PaperAdaptive) and then
	// adapts block size and pipeline depth per transfer from achieved
	// bandwidth, tracked per (peer link, direction) in the client's EWMA
	// link-model table. Purely client-side: the wire protocol still
	// carries a concrete (block, depth) per request.
	Autotune
)

func (k ProtocolKind) String() string {
	switch k {
	case Naive:
		return "naive"
	case Pipeline:
		return "pipeline"
	case Adaptive:
		return "adaptive"
	case Autotune:
		return "autotune"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(k))
	}
}

// CopyConfig describes how acMemCpy payloads move.
type CopyConfig struct {
	Kind ProtocolKind
	// Block is the pipeline block size in bytes.
	Block int
	// SmallBlock/LargeBlock/Threshold configure Adaptive: payloads below
	// Threshold use SmallBlock, others LargeBlock.
	SmallBlock, LargeBlock, Threshold int
	// Depth is the number of pinned staging buffers at the daemon
	// (bounded memory: Depth*block bytes). Zero means DefaultDepth.
	Depth int
}

// DefaultDepth is the staging-buffer count used when CopyConfig.Depth is
// zero: enough to keep the network and the DMA engine busy concurrently.
const DefaultDepth = 4

// PaperAdaptive returns the paper's tuned host-to-device configuration:
// 128 KiB blocks for payloads under 9 MiB and 512 KiB blocks above
// ("pipeline-128-512K" in Figure 5).
func PaperAdaptive() CopyConfig {
	return CopyConfig{
		Kind:       Adaptive,
		SmallBlock: 128 * 1024,
		LargeBlock: 512 * 1024,
		Threshold:  9 * 1024 * 1024,
	}
}

// PaperPipeline returns a fixed-block pipeline configuration.
func PaperPipeline(block int) CopyConfig {
	return CopyConfig{Kind: Pipeline, Block: block}
}

// PaperAutotune returns the online-autotuned configuration, warm-started
// from the paper's adaptive thresholds: until the link-model table has a
// bandwidth sample for a link, transfers resolve exactly as
// PaperAdaptive would.
func PaperAutotune() CopyConfig {
	c := PaperAdaptive()
	c.Kind = Autotune
	return c
}

// PaperNaive returns the naive configuration.
func PaperNaive() CopyConfig { return CopyConfig{Kind: Naive} }

// Validate reports whether the configuration is usable.
func (c CopyConfig) Validate() error {
	if c.Depth < 0 {
		return fmt.Errorf("core: negative pipeline depth %d", c.Depth)
	}
	switch c.Kind {
	case Naive:
		return nil
	case Pipeline:
		if c.Block <= 0 {
			return fmt.Errorf("core: pipeline block size must be positive, got %d", c.Block)
		}
	case Adaptive, Autotune:
		if c.SmallBlock <= 0 || c.LargeBlock <= 0 || c.Threshold < 0 {
			return fmt.Errorf("core: adaptive config %+v invalid", c)
		}
	default:
		return fmt.Errorf("core: unknown copy protocol %d", c.Kind)
	}
	return nil
}

// resolve returns the concrete (blockSize, depth) for a payload of n
// bytes. Naive is a single block of the payload size with one buffer.
func (c CopyConfig) resolve(n int) (block, depth int) {
	depth = c.Depth
	if depth == 0 {
		depth = DefaultDepth
	}
	switch c.Kind {
	case Naive:
		return n, 1
	case Adaptive, Autotune:
		// Autotune resolves like Adaptive here: this is the warm start the
		// client's link model refines once bandwidth samples exist.
		if n < c.Threshold {
			block = c.SmallBlock
		} else {
			block = c.LargeBlock
		}
	default:
		block = c.Block
	}
	return min(block, n), depth
}

// numBlocks returns the block count of an n-byte payload at the given
// block size.
func numBlocks(n, block int) int {
	if n == 0 {
		return 0
	}
	return (n + block - 1) / block
}

// request is a decoded request header.
type request struct {
	op     uint8
	reqID  uint64
	stream uint8

	// session is the tenant session the request executes under; 0 is the
	// session-less exclusive mode (the default, and the privileged path
	// the ARM's sanitizer uses).
	session uint64
	// quota is the session memory quota in bytes (OpSessionOpen only;
	// 0 = unlimited).
	quota int64

	// fence is the requester's fencing token: the ARM leadership epoch
	// its lease was granted under (DESIGN.md §12). Any non-zero token
	// advances the daemon's fencing high-water mark, and destructive
	// ownership ops (reset, session open, session reap) carrying a token
	// below that mark are rejected with ErrFenced. 0 is token-less and
	// never fence-checked.
	fence uint64

	// memory ops; size is the total payload in bytes. A copy is a strided
	// window of cols columns of size/cols bytes each, pitch bytes apart on
	// the device (cols == 1 means contiguous).
	ptr   gpu.Ptr
	off   int
	size  int
	cols  int
	pitch int
	block int
	depth int

	// kernel ops
	kernel string
	launch gpu.Launch

	// D2D ops
	peer   int // world rank of the partner daemon
	xferID uint64

	// OpMemcpyD2D: destination pointer/offset (ptr/off name the source).
	ptr2 gpu.Ptr
	off2 int

	// memset
	value uint8

	// OpBatch: the recorded commands, in issue order. Sub-requests
	// inherit the batch's reqID and stream.
	batch []*request
	// OpWriteInline: the payload carried inside the header. Empty in
	// model mode, where only size is charged on the wire.
	inline []byte

	src int // the rank the daemon received it from; not on the wire
}

// requestHeaderSize is the fixed header every request opens with:
//
//	op u8 | reqID u64 | stream u8 | session u64 | fence u64
//
// Session 0 and fence 0 are values like any other, not absent fields; the
// op's body follows. DESIGN.md §11 has the table.
const requestHeaderSize = 26

// encodeRequestTo serializes a request, header then body, into scratch w; it
// returns w's bytes.
func encodeRequestTo(w *wire.Writer, q *request) []byte {
	w.Reset()
	w.U8(q.op).U64(q.reqID).U8(q.stream).U64(q.session).U64(q.fence)
	encodeBody(w, q)
	return w.Bytes()
}

// encodeWindow serializes the strided device window shared by the copy
// ops: cols columns of size/cols bytes each, pitch bytes apart at ptr+off.
func encodeWindow(w *wire.Writer, q *request) *wire.Writer {
	return w.U64(uint64(q.ptr)).Int(q.off).Int(q.size).Int(q.cols).Int(q.pitch)
}

// encodeBody serializes the op-specific fields of a request (everything
// after the header). Batch framing reuses it per command.
func encodeBody(w *wire.Writer, q *request) {
	switch q.op {
	case OpMemAlloc:
		w.Int(q.size)
	case OpMemFree:
		w.U64(uint64(q.ptr))
	case OpMemcpyH2D, OpMemcpyD2H:
		encodeWindow(w, q).Int(q.block).Int(q.depth)
	case OpKernelRun:
		w.Str(q.kernel)
		for _, d := range []gpu.Dim3{q.launch.Grid, q.launch.Block} {
			w.Int(d.X).Int(d.Y).Int(d.Z)
		}
		w.Int(len(q.launch.Args))
		for _, a := range q.launch.Args {
			w.U8(uint8(a.Kind))
			switch a.Kind {
			case gpu.KindPtr:
				w.U64(uint64(a.Ptr))
			case gpu.KindInt:
				w.I64(a.Int)
			case gpu.KindFloat:
				w.F64(a.F64)
			}
		}
	case OpD2DSend, OpD2DRecv:
		encodeWindow(w.Int(q.peer).U64(q.xferID), q).Int(q.block).Int(q.depth)
	case OpMemset:
		w.U64(uint64(q.ptr)).Int(q.off).Int(q.size).U8(q.value)
	case OpMemcpyD2D:
		w.U64(uint64(q.ptr)).Int(q.off).U64(uint64(q.ptr2)).Int(q.off2).Int(q.size)
	case OpWriteInline:
		encodeWindow(w, q).Blob(q.inline)
	case OpBatch:
		w.U32(uint32(len(q.batch)))
		for _, sub := range q.batch {
			w.U8(sub.op)
			encodeBody(w, sub)
		}
	case OpSessionOpen:
		w.I64(q.quota)
	case OpSessionReap:
		w.Int(q.peer)
	case OpSync, OpDeviceInfo, OpReset, OpShutdown, OpSessionClose:
		// header only
	}
}

// decode parses a request into q, a recycled record (see reset). A whole
// header stays in q when the body is refused, so the daemon can answer it.
func (q *request) decode(data []byte, reg *gpu.Registry) error {
	q.reset()
	r := wire.NewReader(data)
	q.op, q.reqID, q.stream, q.session, q.fence = r.U8(), r.U64(), r.U8(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: malformed request header: %w", err)
	}
	if err := decodeBody(r, q, reg); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: malformed request: %w", err)
	}
	return q.validate()
}

// reset empties q but for the arrays of its launch arguments, batch (with
// the sub-records in it) and inline payload.
func (q *request) reset() {
	*q = request{launch: gpu.Launch{Args: q.launch.Args[:0]}, batch: q.batch[:0], inline: q.inline[:0]}
}

// decodeWindow parses the strided device window of the copy ops.
func decodeWindow(r *wire.Reader, q *request) {
	q.ptr = gpu.Ptr(r.U64())
	q.off = r.Int()
	q.size = r.Int()
	q.cols = r.Int()
	q.pitch = r.Int()
}

// decodeBody parses the op-specific fields of a request into a reset q.
func decodeBody(r *wire.Reader, q *request, reg *gpu.Registry) error {
	switch q.op {
	case OpMemAlloc:
		q.size = r.Int()
	case OpMemFree:
		q.ptr = gpu.Ptr(r.U64())
	case OpMemcpyH2D, OpMemcpyD2H:
		decodeWindow(r, q)
		q.block = r.Int()
		q.depth = r.Int()
	case OpKernelRun:
		name := r.Blob()
		if k, ok := reg.Lookup(string(name)); ok {
			q.kernel = k.Name() // the registry's string: a warm decode allocates none
		} else {
			q.kernel = string(name)
		}
		var dims [6]int
		for i := range dims {
			dims[i] = r.Int()
		}
		q.launch.Grid = gpu.Dim3{X: dims[0], Y: dims[1], Z: dims[2]}
		q.launch.Block = gpu.Dim3{X: dims[3], Y: dims[4], Z: dims[5]}
		nargs := r.Int()
		if nargs < 0 || nargs > 1<<16 {
			return fmt.Errorf("core: implausible kernel arg count %d", nargs)
		}
		for i := 0; i < nargs && r.Err() == nil; i++ {
			kind := gpu.ValueKind(r.U8())
			var v gpu.Value
			switch kind {
			case gpu.KindPtr:
				v = gpu.PtrArg(gpu.Ptr(r.U64()))
			case gpu.KindInt:
				v = gpu.IntArg(r.I64())
			case gpu.KindFloat:
				v = gpu.FloatArg(r.F64())
			default:
				return fmt.Errorf("core: unknown kernel arg kind %d", kind)
			}
			q.launch.Args = append(q.launch.Args, v)
		}
	case OpD2DSend, OpD2DRecv:
		q.peer = r.Int()
		q.xferID = r.U64()
		decodeWindow(r, q)
		q.block = r.Int()
		q.depth = r.Int()
	case OpMemset:
		q.ptr = gpu.Ptr(r.U64())
		q.off = r.Int()
		q.size = r.Int()
		q.value = r.U8()
	case OpMemcpyD2D:
		q.ptr = gpu.Ptr(r.U64())
		q.off = r.Int()
		q.ptr2 = gpu.Ptr(r.U64())
		q.off2 = r.Int()
		q.size = r.Int()
	case OpWriteInline:
		decodeWindow(r, q)
		q.inline = append(q.inline, r.Blob()...)
	case OpBatch:
		// Sub-commands are batchable ops, so a batch never nests.
		n := int(r.U32())
		if r.Err() == nil && (n < 1 || n > maxBatchOps) {
			return fmt.Errorf("core: malformed request: batch of %d commands", n)
		}
		for i := 0; i < n && r.Err() == nil; i++ {
			if q.batch = slices.Grow(q.batch, 1)[:i+1]; q.batch[i] == nil { // else a record it held before
				q.batch[i] = new(request)
			}
			sub := q.batch[i]
			sub.reset()
			sub.op, sub.reqID, sub.stream = r.U8(), q.reqID, q.stream
			if r.Err() == nil && !batchable(sub.op) {
				return fmt.Errorf("core: malformed request: op %d not allowed inside a batch", sub.op)
			}
			if err := decodeBody(r, sub, reg); err != nil {
				return err
			}
		}
	case OpSessionOpen:
		q.quota = r.I64()
	case OpSessionReap:
		q.peer = r.Int()
	case OpSync, OpDeviceInfo, OpReset, OpShutdown, OpSessionClose:
	default:
		return fmt.Errorf("core: unknown op %d", q.op)
	}
	return nil
}

// maxPayload bounds the size a request header may claim (1 TiB): anything
// larger is a corrupted or hostile header, not a copy the simulated
// cluster could perform. maxBlocks bounds what a streamed copy may ask the
// daemon to keep per transfer — its block count and its staging depth —
// far above any real copy (64 MiB at the smallest 32 KiB autotune rung is
// 2 048 blocks), because the pipeline allocates a record per block before
// the first byte moves.
const (
	maxPayload = 1 << 40
	maxBlocks  = 1 << 20
)

// validate rejects decoded headers whose fields would corrupt daemon
// state: negative sizes or geometry flow into block counts and resource
// capacities, so they must never leave the decoder.
func (q *request) validate() error {
	switch q.op {
	case OpMemAlloc:
		if q.size < 0 || q.size > maxPayload {
			return fmt.Errorf("core: malformed request: alloc size %d", q.size)
		}
	case OpMemcpyH2D, OpMemcpyD2H, OpD2DSend, OpD2DRecv, OpWriteInline:
		if q.size < 0 || q.size > maxPayload || q.off < 0 || q.cols < 0 || q.pitch < 0 {
			return fmt.Errorf("core: malformed request: window size=%d off=%d cols=%d pitch=%d",
				q.size, q.off, q.cols, q.pitch)
		}
		// Columns that do not tile the window's bytes, or overlap, would
		// fail the copy at its last block: refuse before the first ships.
		if q.cols > 1 && (q.size%q.cols != 0 || q.pitch > 0 && q.pitch < q.size/q.cols) {
			return fmt.Errorf("core: malformed request: window of %d bytes in %d columns at pitch %d", q.size, q.cols, q.pitch)
		}
		switch {
		case q.op == OpWriteInline:
			if len(q.inline) != 0 && len(q.inline) != q.size {
				return fmt.Errorf("core: malformed request: inline payload %d bytes for size %d", len(q.inline), q.size)
			}
		case q.block < 0 || q.block > maxPayload || q.depth < 0 || q.depth > maxBlocks ||
			q.size > 0 && (q.block == 0 || q.depth == 0 || numBlocks(q.size, q.block) > maxBlocks):
			return fmt.Errorf("core: malformed request: copy pipeline size=%d block=%d depth=%d", q.size, q.block, q.depth)
		case q.peer < 0:
			return fmt.Errorf("core: malformed request: negative peer rank %d", q.peer)
		}
	case OpMemset:
		if q.size < 0 || q.size > maxPayload || q.off < 0 {
			return fmt.Errorf("core: malformed request: memset size=%d off=%d", q.size, q.off)
		}
	case OpMemcpyD2D:
		if q.size < 0 || q.size > maxPayload || q.off < 0 || q.off2 < 0 {
			return fmt.Errorf("core: malformed request: d2d copy size=%d off=%d off2=%d", q.size, q.off, q.off2)
		}
	case OpBatch:
		for i, sub := range q.batch {
			if err := sub.validate(); err != nil {
				return fmt.Errorf("core: batch command %d: %w", i, err)
			}
		}
	case OpSessionOpen:
		if q.quota < 0 || q.quota > maxPayload {
			return fmt.Errorf("core: malformed request: session quota %d", q.quota)
		}
		if q.session == 0 {
			return fmt.Errorf("core: malformed request: session open without session id")
		}
	case OpSessionClose:
		if q.session == 0 {
			return fmt.Errorf("core: malformed request: session close without session id")
		}
	case OpSessionReap:
		if q.peer < 0 {
			return fmt.Errorf("core: malformed request: negative reap target rank %d", q.peer)
		}
	}
	return nil
}

// modelPad returns the bytes a command should add to the batch message
// beyond its encoded header: in model mode an inline write carries no
// payload bytes, but the flush pads the wire message by this amount so
// the virtual-time cost matches an execute-mode run bit for bit.
func (q *request) modelPad() int {
	if q.op == OpWriteInline && len(q.inline) == 0 {
		return q.size
	}
	return 0
}

// response is a decoded response. The echoed reqID lets a client reject
// stale or misdirected responses (tag windows wrap; error replies to
// garbage headers may carry a colliding tag) instead of trusting tag
// matching alone.
type response struct {
	reqID   uint64
	status  uint8
	errmsg  string
	ptr     gpu.Ptr // OpMemAlloc
	payload []byte  // OpDeviceInfo
}

// encodeResponseTo serializes a response into scratch w; it returns w's bytes.
func encodeResponseTo(w *wire.Writer, rsp *response) []byte {
	w.Reset()
	w.U64(rsp.reqID).U8(rsp.status).Str(rsp.errmsg).U64(uint64(rsp.ptr)).Blob(rsp.payload)
	return w.Bytes()
}

// decode parses a response into rsp, a call's, reusing its payload's array.
func (rsp *response) decode(data []byte) error {
	r := wire.NewReader(data)
	rsp.reqID, rsp.status, rsp.errmsg, rsp.ptr = r.U64(), r.U8(), r.Str(), gpu.Ptr(r.U64())
	rsp.payload = append(rsp.payload[:0], r.Blob()...)
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: malformed response: %w", err)
	}
	return nil
}

// Per-command statuses inside a batch response's status vector.
const (
	batchCmdOK uint8 = iota
	batchCmdFailed
	batchCmdSkipped
)

// cmdStatus is one entry of a batch response's per-command status vector.
type cmdStatus struct {
	status uint8
	errmsg string // set when status == batchCmdFailed
}

// encodeBatchStatus serializes the per-command status vector carried in
// the payload of an OpBatch response.
func encodeBatchStatus(sts []cmdStatus) []byte {
	w := wire.NewWriter(8 + 2*len(sts))
	w.U32(uint32(len(sts)))
	for _, st := range sts {
		w.U8(st.status)
		if st.status == batchCmdFailed {
			w.Str(st.errmsg)
		}
	}
	return w.Bytes()
}

// decodeBatchStatus parses a batch status vector, requiring exactly want
// entries (the client knows how many commands it flushed).
func decodeBatchStatus(data []byte, want int) ([]cmdStatus, error) {
	r := wire.NewReader(data)
	n := int(r.U32())
	if r.Err() == nil && n != want {
		return nil, fmt.Errorf("core: batch status vector has %d entries, want %d", n, want)
	}
	sts := make([]cmdStatus, 0, want)
	for i := 0; i < n && r.Err() == nil; i++ {
		st := cmdStatus{status: r.U8()}
		if st.status == batchCmdFailed {
			st.errmsg = r.Str()
		}
		sts = append(sts, st)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: malformed batch status: %w", err)
	}
	return sts, nil
}

// BatchError reports the failure of one command inside a flushed command
// buffer: which position in the batch, which op, and the underlying
// error. Commands recorded after the failing one are never attempted;
// their Pendings fail with a BatchError wrapping ErrBatchAborted.
type BatchError struct {
	Index int
	Op    uint8
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: batch command %d (op %d): %v", e.Index, e.Op, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// ErrBatchAborted marks commands skipped because an earlier command in
// the same batch failed: the daemon stops at the first error so stream
// order is never violated.
var ErrBatchAborted = errors.New("core: command skipped after earlier batch error")

// remoteError is an error reported by a daemon. When the response
// carried a typed status code, sentinel is set and errors.Is matches it
// (ErrNotOwner, ErrQuotaExceeded, ErrNoSession).
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return "core: accelerator error: " + e.msg }

func (e *remoteError) Is(target error) bool {
	return e.sentinel != nil && target == e.sentinel
}

func (rsp *response) err() error {
	if rsp.status == statusOK {
		return nil
	}
	return &remoteError{msg: rsp.errmsg, sentinel: sentinelFor(rsp.status)}
}

// DeviceInfo describes an attached accelerator, as reported by its
// daemon.
type DeviceInfo struct {
	ModelName string
	MemBytes  int64
	MemUsed   int64
	Execute   bool
	Kernels   []string
}

func encodeDeviceInfo(di DeviceInfo) []byte {
	w := wire.NewWriter(64)
	w.Str(di.ModelName).I64(di.MemBytes).I64(di.MemUsed)
	b := uint8(0)
	if di.Execute {
		b = 1
	}
	w.U8(b)
	w.Int(len(di.Kernels))
	for _, k := range di.Kernels {
		w.Str(k)
	}
	return w.Bytes()
}

func decodeDeviceInfo(data []byte) (DeviceInfo, error) {
	r := wire.NewReader(data)
	di := DeviceInfo{ModelName: r.Str(), MemBytes: r.I64(), MemUsed: r.I64(), Execute: r.U8() == 1}
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		di.Kernels = append(di.Kernels, r.Str())
	}
	return di, r.Err()
}
