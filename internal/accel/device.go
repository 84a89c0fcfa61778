// Package accel abstracts "a GPU I can issue asynchronous work to" for
// application code: the Device interface is satisfied both by node-local
// GPUs (the paper's "CUDA local" baseline, adapted with Local) and by
// network-attached accelerators through the dynacc middleware (Remote).
// The paper's application studies — the MAGMA-style factorizations and
// the MP2C miniapp — are written once against this interface and
// benchmarked on either attachment.
package accel

import (
	"fmt"
	"slices"
	"sort"

	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// Pending is an in-flight asynchronous device operation. Wait for it at most
// once: under MPI_Wait's rule a remote one's Wait hands its call record back to
// the front-end for reuse. A Pending never waited for is left to the GC.
type Pending interface{ Wait(p *sim.Proc) error }

// Device is the GPU surface the hybrid algorithms need. Offsets and sizes
// are in bytes. Operations issued on the same stream execute in order;
// different streams may overlap.
type Device interface {
	MemAlloc(p *sim.Proc, n int) (gpu.Ptr, error)
	MemFree(p *sim.Proc, ptr gpu.Ptr) error
	CopyH2DAsync(dst gpu.Ptr, off int, src []byte, n int, stream uint8) Pending
	CopyD2HAsync(dst []byte, src gpu.Ptr, off, n int, stream uint8) Pending
	// The 2D variants move a strided device window (cudaMemcpy2D style):
	// cols columns of colBytes bytes, pitch bytes apart on the device,
	// packed contiguously on the host.
	CopyH2D2DAsync(dst gpu.Ptr, off, colBytes, cols, pitch int, src []byte, stream uint8) Pending
	CopyD2H2DAsync(dst []byte, src gpu.Ptr, off, colBytes, cols, pitch int, stream uint8) Pending
	// LaunchAsync copies l.Args before it returns: the caller may reuse the
	// array at once.
	LaunchAsync(kernel string, l gpu.Launch, stream uint8) Pending
	// Flush submits any commands the attachment has recorded but not yet
	// shipped for the given stream. Local devices and unbatched remote
	// handles submit eagerly, making it a no-op; with command batching on
	// (core.Options.BatchOps) it ships the stream's command buffer, so
	// issue-heavy code should call it after a launch storm instead of
	// waiting for a blocking call to trigger the flush.
	Flush(stream uint8)
	Sync(p *sim.Proc) error
	// attachment names what the device is attached through: a middleware
	// handle or a node-local GPU, the other nil. A type that embeds a
	// Device inherits it, so wrapping a device never changes its route.
	attachment() (*core.Accel, *LocalDevice)
}

// Batched reports whether the device records commands into buffers that
// Flush submits (i.e. a remote attachment with command batching on).
// Algorithms use it to pick an issue-all-then-wait shape only when it
// pays.
func Batched(d Device) bool {
	a, _ := d.attachment()
	return a != nil && a.Client().Options().BatchOps > 0
}

// World returns the world a remote device's payloads travel through, whose
// buffer pool host staging can borrow from, or nil for a local device.
func World(d Device) *minimpi.World {
	if a, _ := d.attachment(); a != nil {
		return a.Client().Comm().World()
	}
	return nil
}

// Window is a strided device range: Cols columns of ColBytes bytes,
// Pitch bytes apart from Off. A contiguous n-byte range is {off, n, 1, n}.
type Window struct{ Off, ColBytes, Cols, Pitch int }

// CopyD2D copies src's window at srcPtr into dst's memory at
// dstPtr+dstOff, packed, without staging it through the compute node. The
// route follows from where the two ends live, never from the types that
// wrap them: one local device copies on srcStream; two remote handles run
// core.Client.CopyD2D (header-only on one handle, daemon to daemon on two,
// srcStream sending and dstStream receiving); anything else returns
// core.ErrNoPeerPath, and the caller stages the copy through the host.
func CopyD2D(p *sim.Proc, src Device, srcPtr gpu.Ptr, w Window, dst Device, dstPtr gpu.Ptr, dstOff int, srcStream, dstStream uint8) error {
	sa, sl := src.attachment()
	da, dl := dst.attachment()
	switch {
	case sa != nil && da != nil:
		return sa.Client().CopyD2D(p, sa, srcPtr, w.Off, w.ColBytes, w.Cols, w.Pitch, da, dstPtr, dstOff, srcStream, dstStream)
	case sl != nil && sl == dl:
		if w.Cols != 1 {
			return fmt.Errorf("accel: CopyD2D: a copy on one device is contiguous, got %d columns", w.Cols)
		}
		return sl.enqueue(srcStream, func(wp *sim.Proc) error {
			return sl.dev.CopyD2D(wp, dstPtr, dstOff, srcPtr, w.Off, w.ColBytes)
		}).Wait(p)
	}
	return core.ErrNoPeerPath
}

// ---- Remote adapter: network-attached accelerator via the middleware ----

type remoteDevice struct{ a *core.Accel }

// Remote wraps a middleware accelerator handle as a magma Device.
func Remote(a *core.Accel) Device { return remoteDevice{a: a} }

func (r remoteDevice) MemAlloc(p *sim.Proc, n int) (gpu.Ptr, error) { return r.a.MemAlloc(p, n) }
func (r remoteDevice) MemFree(p *sim.Proc, ptr gpu.Ptr) error       { return r.a.MemFree(p, ptr) }
func (r remoteDevice) Flush(stream uint8)                           { r.a.Submit(stream) }
func (r remoteDevice) Sync(p *sim.Proc) error                       { return r.a.Sync(p) }

func (r remoteDevice) CopyH2DAsync(dst gpu.Ptr, off int, src []byte, n int, stream uint8) Pending {
	return r.a.MemcpyH2DAsync(dst, off, src, n, stream)
}

func (r remoteDevice) CopyD2HAsync(dst []byte, src gpu.Ptr, off, n int, stream uint8) Pending {
	return r.a.MemcpyD2HAsync(dst, src, off, n, stream)
}

func (r remoteDevice) CopyH2D2DAsync(dst gpu.Ptr, off, colBytes, cols, pitch int, src []byte, stream uint8) Pending {
	return r.a.MemcpyH2D2DAsync(dst, off, colBytes, cols, pitch, src, stream)
}

func (r remoteDevice) CopyD2H2DAsync(dst []byte, src gpu.Ptr, off, colBytes, cols, pitch int, stream uint8) Pending {
	return r.a.MemcpyD2H2DAsync(dst, src, off, colBytes, cols, pitch, stream)
}

func (r remoteDevice) LaunchAsync(kernel string, l gpu.Launch, stream uint8) Pending {
	return r.a.LaunchAsync(kernel, l, stream)
}

func (r remoteDevice) attachment() (*core.Accel, *LocalDevice) { return r.a, nil }

// ---- Local adapter: node-attached GPU (paper's "CUDA local") ----

// LocalDevice gives a raw gpu.Device CUDA-like stream semantics: per-
// stream worker processes execute queued operations in order, so copies
// and kernels on different streams overlap exactly as they do through the
// middleware daemon.
type LocalDevice struct {
	dev     *gpu.Device
	sim     *sim.Simulation
	streams map[uint8]*sim.Mailbox
	host    *sim.Proc
}

// Local wraps a node-attached gpu.Device as a magma Device. The host
// process is used to spawn stream workers; call Close when done so the
// workers terminate.
func Local(host *sim.Proc, dev *gpu.Device) *LocalDevice {
	return &LocalDevice{dev: dev, sim: host.Sim(), streams: make(map[uint8]*sim.Mailbox), host: host}
}

type localOp struct {
	run  func(p *sim.Proc) error
	pend *localPending
	stop bool
}

type localPending struct {
	done *sim.Event
	err  error
}

func (lp *localPending) Wait(p *sim.Proc) error {
	lp.done.Await(p)
	return lp.err
}

func (l *LocalDevice) stream(id uint8) *sim.Mailbox {
	if mbox, ok := l.streams[id]; ok {
		return mbox
	}
	mbox := sim.NewMailbox(l.sim, fmt.Sprintf("%s.lstream%d", l.dev.Name(), id))
	l.streams[id] = mbox
	l.host.Spawn(fmt.Sprintf("%s-lstream%d", l.dev.Name(), id), func(p *sim.Proc) {
		for {
			op := mbox.Recv(p).(localOp)
			if op.stop {
				return
			}
			op.pend.err = op.run(p)
			op.pend.done.Trigger()
		}
	})
	return mbox
}

func (l *LocalDevice) enqueue(stream uint8, run func(p *sim.Proc) error) Pending {
	pend := &localPending{done: sim.NewEvent(l.sim)}
	l.stream(stream).Send(localOp{run: run, pend: pend})
	return pend
}

func (l *LocalDevice) MemAlloc(p *sim.Proc, n int) (gpu.Ptr, error) { return l.dev.MemAlloc(p, n) }
func (l *LocalDevice) MemFree(p *sim.Proc, ptr gpu.Ptr) error       { return l.dev.MemFree(p, ptr) }

func (l *LocalDevice) CopyH2DAsync(dst gpu.Ptr, off int, src []byte, n int, stream uint8) Pending {
	return l.enqueue(stream, func(p *sim.Proc) error {
		// Local transfers use pinned host buffers (the DMA path).
		return l.dev.CopyH2D(p, dst, off, src, n, true)
	})
}

func (l *LocalDevice) CopyD2HAsync(dst []byte, src gpu.Ptr, off, n int, stream uint8) Pending {
	return l.enqueue(stream, func(p *sim.Proc) error {
		return l.dev.CopyD2H(p, dst, src, off, n, true)
	})
}

func (l *LocalDevice) CopyH2D2DAsync(dst gpu.Ptr, off, colBytes, cols, pitch int, src []byte, stream uint8) Pending {
	return l.enqueue(stream, func(p *sim.Proc) error {
		if err := l.dev.CopyEngineTransfer(p, colBytes*cols, true, true); err != nil {
			return err
		}
		return l.dev.ScatterColumns(dst, off, colBytes, cols, pitch, src)
	})
}

func (l *LocalDevice) CopyD2H2DAsync(dst []byte, src gpu.Ptr, off, colBytes, cols, pitch int, stream uint8) Pending {
	return l.enqueue(stream, func(p *sim.Proc) error {
		if err := l.dev.CopyEngineTransfer(p, colBytes*cols, false, true); err != nil {
			return err
		}
		data, err := l.dev.GatherColumns(src, off, colBytes, cols, pitch)
		if err != nil {
			return err
		}
		if dst != nil && data != nil {
			copy(dst, data)
		}
		return nil
	})
}

func (l *LocalDevice) attachment() (*core.Accel, *LocalDevice) { return nil, l }

func (l *LocalDevice) LaunchAsync(kernel string, launch gpu.Launch, stream uint8) Pending {
	launch.Args = slices.Clone(launch.Args) // runs later, on the stream's worker
	return l.enqueue(stream, func(p *sim.Proc) error {
		return l.dev.LaunchKernel(p, kernel, launch)
	})
}

// Flush is a no-op: local operations are submitted to their stream
// worker the moment they are enqueued.
func (l *LocalDevice) Flush(uint8) {}

// Sync drains all streams.
func (l *LocalDevice) Sync(p *sim.Proc) error {
	var pends []Pending
	for _, id := range sortedStreamIDs(l.streams) {
		pends = append(pends, l.enqueue(id, func(*sim.Proc) error { return nil }))
	}
	var first error
	for _, pd := range pends {
		if err := pd.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the stream workers (call when done with the device).
func (l *LocalDevice) Close() {
	for _, id := range sortedStreamIDs(l.streams) {
		l.streams[id].Send(localOp{stop: true})
	}
}

// sortedStreamIDs keeps stream iteration deterministic (simulation
// reproducibility depends on event creation order).
func sortedStreamIDs(m map[uint8]*sim.Mailbox) []uint8 {
	ids := make([]uint8, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
