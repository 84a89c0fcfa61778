package magma

import (
	"errors"
	"fmt"
	"os"

	"dynacc/internal/accel"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// poisonFreed is the chaos guard DYNACC_POISON=1 turns on across the tree
// (see minimpi): here no staged record is reused, and a host workspace
// reads NaN whenever a factorization takes it up again.
var poisonFreed = os.Getenv("DYNACC_POISON") == "1"

// Dist is an m×n column-major matrix distributed 1-D block-cyclically
// over a set of GPUs: column block b (nb columns wide) lives on GPU
// b % G at local block position b / G. Device storage is contiguous per
// GPU with leading dimension m, so a whole block is one contiguous
// transfer. Only the globally last block may be narrower than nb.
type Dist struct {
	M, N, NB int
	Devs     []Device
	ptrs     []gpu.Ptr
	widths   []int // local columns per GPU
	exec     bool

	// world's buffer pool lends the byte staging buffers hostBytes/copyBack
	// encode through (execute mode only; made where the devices have no
	// world): a buffer is taken when a transfer is issued and returned once
	// its Pending completes and the bytes are decoded, so concurrent
	// in-flight transfers each hold their own. A transfer that fails simply
	// never returns its buffer — correctness does not depend on the return
	// happening.
	world *minimpi.World

	// What the solvers reuse while the Dist lives, each made on first need:
	// staged transfers' records, Dgeqrf's host workspace, Pending lists and
	// device workspace pointers; and the array launch arguments are built in.
	stages []staged
	ws     []float64
	pends  []Pending
	wsPtrs []gpu.Ptr
	args   [16]gpu.Value
}

// getScratch returns an n-byte staging buffer.
func (d *Dist) getScratch(n int) []byte {
	if d.world != nil {
		return d.world.GetBuf(n)
	}
	return make([]byte, n)
}

func (d *Dist) putScratch(bufs ...[]byte) {
	for _, b := range bufs {
		if d.world != nil {
			d.world.PutBuf(b)
		}
	}
}

// NewDist allocates device storage for an m×n matrix with block width nb
// over the devices. exec declares whether real data will flow (the
// caller's host buffers are non-nil).
func NewDist(p *sim.Proc, devs []Device, m, n, nb int, exec bool) (*Dist, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("magma: no devices")
	}
	if m <= 0 || n <= 0 || nb <= 0 {
		return nil, fmt.Errorf("magma: invalid dimensions m=%d n=%d nb=%d", m, n, nb)
	}
	d := &Dist{M: m, N: n, NB: nb, Devs: devs, exec: exec}
	G := len(devs)
	nblocks := (n + nb - 1) / nb
	d.widths, d.ptrs = make([]int, G), make([]gpu.Ptr, 0, G)
	for b := 0; b < nblocks; b++ {
		d.widths[b%G] += d.blockWidth(b)
	}
	for g, dev := range devs {
		if d.world == nil {
			d.world = accel.World(dev)
		}
		if d.widths[g] == 0 {
			d.ptrs = append(d.ptrs, 0)
			continue
		}
		ptr, err := dev.MemAlloc(p, 8*m*d.widths[g])
		if err != nil {
			d.Free(p)
			return nil, fmt.Errorf("magma: allocating %d local columns on GPU %d: %w", d.widths[g], g, err)
		}
		d.ptrs = append(d.ptrs, ptr)
	}
	return d, nil
}

// Free releases the device storage.
func (d *Dist) Free(p *sim.Proc) {
	for g, ptr := range d.ptrs {
		if !ptr.IsNull() {
			_ = d.Devs[g].MemFree(p, ptr)
		}
	}
	d.ptrs = nil
}

// Redistribute moves the matrix onto a new device set, block by block:
// blocks whose owning device is unchanged never leave it (a
// device-local copy shifts them to their new offset — zero payload
// bytes on the wire). A block whose owner changed is staged through
// the host, or with direct set moves between its two accelerators
// (accel.CopyD2D), falling back to host staging per block when no
// direct path exists (core.ErrNoPeerPath). An identical device list is
// a no-op. In model mode
// the same transfers are issued with nil payloads, so the
// redistribution cost still lands in virtual time. The caller must have
// quiesced all in-flight operations first. On error the Dist may be
// left without device storage and must not be used further.
func (d *Dist) Redistribute(p *sim.Proc, devs []Device, direct bool) error {
	if len(devs) == 0 {
		return fmt.Errorf("magma: no devices")
	}
	if sameDevs(devs, d.Devs) {
		// Every block's owner and offset are unchanged: nothing moves.
		return nil
	}
	// Build the new layout while the old storage is still live, so
	// blocks can move storage-to-storage without a full host gather.
	// When the devices lack headroom for both layouts at once, fall
	// back to the legacy gather-free-reupload path.
	nd, err := NewDist(p, devs, d.M, d.N, d.NB, d.exec)
	if err != nil {
		return d.redistributeStaged(p, devs)
	}
	old := *d // shallow snapshot of the old layout (Devs/ptrs/widths)
	fail := func(err error) error {
		old.Free(p)
		nd.Free(p)
		d.Devs, d.ptrs, d.widths = nd.Devs, nil, nil
		return err
	}
	// Blocks that need host staging: downloads all issued first, then
	// the uploads, so the two waves each overlap across devices.
	type stagedBlock struct {
		b   int
		buf []byte
	}
	var stage []stagedBlock
	var downloads []Pending
	for b := 0; b < d.Blocks(); b++ {
		srcDev, srcPtr := old.devPtr(b)
		dstDev, dstPtr := nd.devPtr(b)
		nbytes := 8 * old.M * old.blockWidth(b)
		srcOff := 8 * old.elemOff(b, 0, 0)
		dstOff := 8 * nd.elemOff(b, 0, 0)
		if srcDev == dstDev || direct {
			// An unchanged owner shifts the block on its device, header
			// only; with direct set a re-homed block moves daemon to
			// daemon. Without a direct path the block stages.
			err := accel.CopyD2D(p, srcDev, srcPtr, accel.Window{Off: srcOff, ColBytes: nbytes, Cols: 1, Pitch: nbytes}, dstDev, dstPtr, dstOff, 0, 0)
			if err == nil {
				continue
			}
			if !errors.Is(err, core.ErrNoPeerPath) {
				return fail(err)
			}
		}
		var buf []byte
		if d.exec {
			buf = d.getScratch(nbytes)
		}
		downloads = append(downloads, srcDev.CopyD2HAsync(buf, srcPtr, srcOff, nbytes, 0))
		stage = append(stage, stagedBlock{b: b, buf: buf})
	}
	if err := waitAllPending(p, downloads); err != nil {
		return fail(err)
	}
	var uploads []Pending
	for _, s := range stage {
		dstDev, dstPtr := nd.devPtr(s.b)
		nbytes := 8 * old.M * old.blockWidth(s.b)
		uploads = append(uploads, dstDev.CopyH2DAsync(dstPtr, 8*nd.elemOff(s.b, 0, 0), s.buf, nbytes, 0))
	}
	if err := waitAllPending(p, uploads); err != nil {
		return fail(err)
	}
	for _, s := range stage {
		d.putScratch(s.buf)
	}
	old.Free(p)
	d.Devs, d.ptrs, d.widths = nd.Devs, nd.ptrs, nd.widths
	return nil
}

// redistributeStaged is the full-matrix host round trip: gather
// everything, free, re-allocate over devs, re-upload. It is the
// fallback when the devices cannot hold the old and new layouts at
// once, and the reference the block-wise routes are tested against.
func (d *Dist) redistributeStaged(p *sim.Proc, devs []Device) error {
	var host []float64
	if d.exec {
		host = make([]float64, d.M*d.N)
	}
	if err := d.Download(p, host); err != nil {
		return err
	}
	d.Free(p)
	nd, err := NewDist(p, devs, d.M, d.N, d.NB, d.exec)
	if err != nil {
		return err
	}
	d.Devs, d.ptrs, d.widths = nd.Devs, nd.ptrs, nd.widths
	return d.Upload(p, host)
}

// Blocks returns the number of column blocks.
func (d *Dist) Blocks() int { return (d.N + d.NB - 1) / d.NB }

// blockWidth returns the column count of block b.
func (d *Dist) blockWidth(b int) int {
	w := d.N - b*d.NB
	if w > d.NB {
		w = d.NB
	}
	return w
}

// Owner returns the GPU index owning block b.
func (d *Dist) Owner(b int) int { return b % len(d.Devs) }

// localCol returns the local starting column of block b on its owner.
func (d *Dist) localCol(b int) int { return (b / len(d.Devs)) * d.NB }

// elemOff returns the element offset of (row, block-local column 0+c) of
// block b within its owner's allocation.
func (d *Dist) elemOff(b, row, c int) int { return (d.localCol(b)+c)*d.M + row }

// devPtr returns the owning device and allocation of block b.
func (d *Dist) devPtr(b int) (Device, gpu.Ptr) { return d.Devs[d.Owner(b)], d.ptrs[d.Owner(b)] }

// Upload distributes hostA (column-major, leading dimension m) to the
// devices; hostA may be nil in model mode. One contiguous transfer per
// block, all issued asynchronously and awaited together.
func (d *Dist) Upload(p *sim.Proc, hostA []float64) error {
	pends := d.pendList(d.Blocks())
	for b := 0; b < d.Blocks(); b++ {
		dev, ptr := d.devPtr(b)
		w := d.blockWidth(b)
		nbytes := 8 * d.M * w
		var src []byte
		if hostA != nil {
			src = f64bytesTo(d.getScratch(nbytes), hostA[b*d.NB*d.M:b*d.NB*d.M+d.M*w])
		}
		pd := dev.CopyH2DAsync(ptr, 8*d.elemOff(b, 0, 0), src, nbytes, 0)
		if src != nil {
			pd = d.stage(pd, nil, src)
		}
		pends = append(pends, pd)
	}
	return waitAllPending(p, pends)
}

// Download gathers the distributed matrix back into hostA (nil in model
// mode).
func (d *Dist) Download(p *sim.Proc, hostA []float64) error {
	pends := d.pendList(d.Blocks())
	for b := 0; b < d.Blocks(); b++ {
		dev, ptr := d.devPtr(b)
		w := d.blockWidth(b)
		nbytes := 8 * d.M * w
		var dst []byte
		if hostA != nil {
			dst = d.getScratch(nbytes)
		}
		pd := dev.CopyD2HAsync(dst, ptr, 8*d.elemOff(b, 0, 0), nbytes, 0)
		if hostA != nil {
			pd = d.stage(pd, hostA[b*d.NB*d.M:b*d.NB*d.M+d.M*w], dst)
		}
		pends = append(pends, pd)
	}
	return waitAllPending(p, pends)
}

// downloadCols fetches rows [row0, row0+rows) of block b's columns
// [c0, c0+cols) into host (leading dimension rows) as one strided
// transfer (the cudaMemcpy2D the real MAGMA issues).
func (d *Dist) downloadCols(p *sim.Proc, b, row0, rows, c0, cols int, host []float64, stream uint8) Pending {
	dev, ptr := d.devPtr(b)
	var dst []byte
	if host != nil {
		dst = d.getScratch(8 * rows * cols)
	}
	pd := dev.CopyD2H2DAsync(dst, ptr, 8*d.elemOff(b, row0, c0), 8*rows, cols, 8*d.M, stream)
	if host == nil {
		return pd
	}
	return d.stage(pd, host[:rows*cols], dst)
}

// uploadCols pushes host (leading dimension rows) into rows
// [row0, row0+rows) of block b's columns [c0, c0+cols) as one strided
// transfer.
func (d *Dist) uploadCols(b, row0, rows, c0, cols int, host []float64, stream uint8) Pending {
	dev, ptr := d.devPtr(b)
	var src []byte
	if host != nil {
		src = f64bytesTo(d.getScratch(8*rows*cols), host[:rows*cols])
	}
	pd := dev.CopyH2D2DAsync(ptr, 8*d.elemOff(b, row0, c0), 8*rows, cols, 8*d.M, src, stream)
	if src != nil {
		return d.stage(pd, nil, src)
	}
	return pd
}

// staged is a transfer through a scratch buffer: once it has completed, a
// download's bytes are decoded into host (nil for an upload) and the buffer
// goes back to the Dist for the next transfer. It is waited for once, and
// then the record is free (d nil) for the Dist's next staged transfer.
type staged struct {
	pd   Pending
	d    *Dist
	host []float64
	raw  []byte
}

// pendList returns the Dist's Pending list, emptied, with room for n: made
// once with room for Dgeqrf's, the longest list.
func (d *Dist) pendList(n int) []Pending {
	if G := len(d.Devs); cap(d.pends) < n {
		d.pends = make([]Pending, max(n, d.Blocks()*(G+1)+2*G+1))
	}
	return d.pends[:0]
}

// stage wraps a transfer in a free record of the Dist's, enough for every
// block's plus two more; past that a record is made.
func (d *Dist) stage(pd Pending, host []float64, raw []byte) *staged {
	if d.stages == nil {
		d.stages = make([]staged, d.Blocks()+2)
	}
	for i := range d.stages {
		if s := &d.stages[i]; s.d == nil && !poisonFreed {
			*s = staged{pd: pd, d: d, host: host, raw: raw}
			return s
		}
	}
	return &staged{pd: pd, d: d, host: host, raw: raw}
}

func (s *staged) Wait(p *sim.Proc) error {
	if s.d == nil {
		panic("magma: a staged transfer waited for twice")
	}
	err := s.pd.Wait(p)
	if err == nil {
		copyBack(s.host, s.raw)
		s.d.putScratch(s.raw)
	}
	*s = staged{}
	return err
}

// settle ends an error return that would leave issued and more in flight: it
// waits them out, so every call the routine started is over when it returns.
func settle(p *sim.Proc, err error, issued []Pending, more ...Pending) error {
	waitAllPending(p, append(issued, more...))
	return err
}

func waitAllPending(p *sim.Proc, pends []Pending) error {
	var first error
	for _, pd := range pends {
		if err := pd.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// hostBytes encodes the leading want elements into a scratch buffer the
// caller returns once the transfers reading it are over, or is nil in model
// mode. copyBack decodes a destination buffer in place.
func (d *Dist) hostBytes(buf []float64, want int) []byte {
	if buf == nil {
		return nil
	}
	return f64bytesTo(d.getScratch(8*want), buf[:want])
}

// f64bytesTo encodes into a caller-provided buffer of exactly
// 8*len(vals) bytes (typically a recycled Dist scratch buffer).
func f64bytesTo(buf []byte, vals []float64) []byte {
	for i, v := range vals {
		putF64(buf[8*i:], v)
	}
	return buf
}

func copyBack(dst []float64, raw []byte) {
	for i := range dst {
		dst[i] = getF64(raw[8*i:])
	}
}
