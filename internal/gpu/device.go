package gpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dynacc/internal/sim"
)

// ErrDeviceFailed is wrapped by every error a failed device returns;
// callers test for it with errors.Is to distinguish hardware loss from
// argument errors.
var ErrDeviceFailed = errors.New("device failed")

// Device is one virtual accelerator. All methods must be called from
// simulation processes; operations charge virtual time and contend on the
// device's engines.
type Device struct {
	sim      *sim.Simulation
	name     string
	model    Model
	registry *Registry
	alloc    *allocator

	// dma is the single copy engine: pinned (DMA) transfers serialize on
	// it. Pageable transfers run on the host CPU (PIO) and do not occupy
	// it.
	dma *sim.Resource
	// compute is the kernel execution engine; the C1060 generation runs
	// one kernel at a time.
	compute *sim.Resource

	execute bool

	// cfgClass is the kernel class the device is currently configured
	// for. Models with a ReconfigLatency (FPGA-style) charge it on the
	// first launch of a class different from the resident one; GPUs
	// (zero latency) ignore it.
	cfgClass string

	// failure, when non-nil, makes every operation fail (fault injection:
	// the silicon is gone but the daemon in front of it is still up).
	failure error

	// arena holds the float64 windows ReadFloat64s decodes and the
	// workspaces Scratch hands out, taken in order from arenaUsed and
	// started over at every launch: it grows to the largest launch's need
	// and then serves every launch without allocating. retired keeps the
	// arrays a launch outgrew, for the poison fill at its end.
	arena     []float64
	arenaUsed int
	retired   [][]float64

	// stats
	bytesIn, bytesOut int64
	launches          int64
	busy              sim.Duration
}

// Config configures a new Device.
type Config struct {
	// Name identifies the device in diagnostics.
	Name string
	// Model is the performance model; required.
	Model Model
	// Registry resolves kernel names; required for LaunchKernel.
	Registry *Registry
	// Execute selects execute mode (real data) over model mode.
	Execute bool
}

// NewDevice creates a device.
func NewDevice(s *sim.Simulation, cfg Config) (*Device, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = cfg.Model.Name
	}
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	return &Device{
		sim:      s,
		name:     name,
		model:    cfg.Model,
		registry: reg,
		alloc:    newAllocator(cfg.Model.MemBytes, cfg.Execute),
		dma:      sim.NewResource(s, name+".dma", 1),
		compute:  sim.NewResource(s, name+".compute", 1),
		execute:  cfg.Execute,
	}, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Model returns the device performance model.
func (d *Device) Model() Model { return d.model }

// ExecuteMode reports whether the device stores real data.
func (d *Device) ExecuteMode() bool { return d.execute }

// Registry returns the kernel registry the device resolves names in.
func (d *Device) Registry() *Registry { return d.registry }

// Fail marks the device failed with the given cause: every subsequent
// operation returns an error wrapping ErrDeviceFailed until Repair. The
// daemon in front of the device keeps serving (and reporting the failure),
// which is how a real node reports a dead GPU.
func (d *Device) Fail(cause string) {
	if cause == "" {
		cause = "injected fault"
	}
	d.failure = fmt.Errorf("gpu: %s: %w: %s", d.name, ErrDeviceFailed, cause)
}

// Repair clears a failure injected by Fail. The device contents are NOT
// restored — callers must re-allocate and re-upload, as after a real
// device replacement.
func (d *Device) Repair() {
	d.failure = nil
}

// Failed returns the active failure, or nil for a healthy device.
func (d *Device) Failed() error { return d.failure }

// ResetEngines replaces the DMA and compute semaphores with fresh ones,
// releasing units stranded by processes that died mid-operation. Part of
// restarting a crashed daemon; never call it while live work is in flight.
func (d *Device) ResetEngines() {
	d.dma = sim.NewResource(d.sim, d.name+".dma", 1)
	d.compute = sim.NewResource(d.sim, d.name+".compute", 1)
}

// MemAlloc allocates n bytes of device memory.
func (d *Device) MemAlloc(p *sim.Proc, n int) (Ptr, error) {
	p.Wait(d.model.MallocOverhead)
	if d.failure != nil {
		return 0, d.failure
	}
	return d.alloc.alloc(n)
}

// MemFree releases an allocation.
func (d *Device) MemFree(p *sim.Proc, ptr Ptr) error {
	p.Wait(d.model.MallocOverhead)
	if d.failure != nil {
		return d.failure
	}
	return d.alloc.freePtr(ptr)
}

// MemUsed reports the bytes currently allocated (rounded to allocation
// granularity).
func (d *Device) MemUsed() int64 { return int64(d.alloc.used) }

// Reset frees every live allocation (cuCtxDestroy-style): the middleware
// runs it between exclusive assignments so a new holder always gets a
// clean device.
func (d *Device) Reset(p *sim.Proc) {
	p.Wait(d.model.MallocOverhead)
	d.alloc.reset()
}

// copyModel selects the cost model for a transfer.
func (d *Device) copyModel(toDevice, pinned bool) CopyModel {
	switch {
	case toDevice && pinned:
		return d.model.H2DPinned
	case toDevice:
		return d.model.H2DPageable
	case pinned:
		return d.model.D2HPinned
	default:
		return d.model.D2HPageable
	}
}

// CopyH2D copies len(src) bytes from host memory into device memory at
// dst+off. Pinned transfers occupy the DMA engine; pageable transfers run
// on the calling CPU. In model mode src may be nil with the size given by
// n; if src is non-nil it must be n bytes long.
func (d *Device) CopyH2D(p *sim.Proc, dst Ptr, off int, src []byte, n int, pinned bool) error {
	if src != nil && len(src) != n {
		return fmt.Errorf("gpu: CopyH2D: src has %d bytes, size argument says %d", len(src), n)
	}
	if d.failure != nil {
		return d.failure
	}
	if err := d.alloc.check(dst, off, n); err != nil {
		return err
	}
	t := d.copyModel(true, pinned).Time(n)
	d.occupyEngine(p, t, pinned)
	d.busy += t
	d.bytesIn += int64(n)
	if d.execute && src != nil {
		copy(d.alloc.at(dst, off, n), src)
	}
	return nil
}

// CopyD2H copies n bytes from device memory at src+off into dst (or
// discards them in model mode when dst is nil).
func (d *Device) CopyD2H(p *sim.Proc, dst []byte, src Ptr, off, n int, pinned bool) error {
	if dst != nil && len(dst) != n {
		return fmt.Errorf("gpu: CopyD2H: dst has %d bytes, size argument says %d", len(dst), n)
	}
	if d.failure != nil {
		return d.failure
	}
	if err := d.alloc.check(src, off, n); err != nil {
		return err
	}
	t := d.copyModel(false, pinned).Time(n)
	d.occupyEngine(p, t, pinned)
	d.busy += t
	d.bytesOut += int64(n)
	if d.execute && dst != nil {
		copy(dst, d.alloc.at(src, off, n))
	}
	return nil
}

// Memset fills n bytes of device memory at ptr+off with value
// (cuMemsetD8): a memory-bandwidth-bound device-side operation.
func (d *Device) Memset(p *sim.Proc, ptr Ptr, off, n int, value byte) error {
	if d.failure != nil {
		return d.failure
	}
	if err := d.alloc.check(ptr, off, n); err != nil {
		return err
	}
	p.Wait(sim.Duration(float64(n)/d.model.MemBandwidth*1e9) + d.model.LaunchOverhead)
	if d.execute {
		FillBytes(d.alloc.at(ptr, off, n), value)
	}
	return nil
}

// FillBytes sets every byte of b to v at memmove speed: seeded, then doubled.
func FillBytes(b []byte, v byte) {
	for n := copy(b, []byte{v}); n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// CopyD2D copies n bytes between two device allocations through device
// memory (no PCIe transfer; cost is 2n over the memory bandwidth).
func (d *Device) CopyD2D(p *sim.Proc, dst Ptr, dstOff int, src Ptr, srcOff, n int) error {
	if d.failure != nil {
		return d.failure
	}
	if err := d.alloc.check(dst, dstOff, n); err != nil {
		return err
	}
	if err := d.alloc.check(src, srcOff, n); err != nil {
		return err
	}
	p.Wait(sim.Duration(2 * float64(n) / d.model.MemBandwidth * 1e9))
	if d.execute {
		copy(d.alloc.at(dst, dstOff, n), d.alloc.at(src, srcOff, n))
	}
	return nil
}

// AsyncSetupCost is the host cost of posting one asynchronous copy; the
// middleware's pipeline pays it per block.
func (d *Device) AsyncSetupCost() sim.Duration { return d.model.AsyncSetup }

// CopyEngineTransfer charges the virtual time of an n-byte host↔device
// transfer without moving data: pinned transfers occupy the DMA engine,
// pageable ones the calling CPU. The middleware uses it to time pipeline
// blocks whose bytes are placed separately (ScatterColumns/GatherColumns).
// It reports the device failure, if any (checked again after the engine
// time, so a device dying mid-transfer fails that transfer).
func (d *Device) CopyEngineTransfer(p *sim.Proc, n int, toDevice, pinned bool) error {
	t, err := d.engineBegin(n, toDevice, pinned)
	if err != nil {
		return err
	}
	d.occupyEngine(p, t, pinned)
	return d.engineEnd(n, toDevice, t)
}

// occupyEngine sits out a transfer's time: on the DMA engine, FIFO behind
// earlier transfers, when pinned; on the calling CPU otherwise.
func (d *Device) occupyEngine(p *sim.Proc, t sim.Duration, pinned bool) {
	if !pinned {
		p.Wait(t)
		return
	}
	dma := d.dma // the unit goes back where it came from: see PinnedCopy
	dma.Acquire(p, 1)
	p.Wait(t)
	dma.Release(1)
}

// engineBegin and engineEnd are the two ends of an engine transfer, shared
// by its process form (CopyEngineTransfer) and its callback form
// (StartPinnedCopy): refuse on a failed device and price the transfer;
// then, once the engine time has passed, account it and report a device
// that died underneath.
func (d *Device) engineBegin(n int, toDevice, pinned bool) (sim.Duration, error) {
	if d.failure != nil {
		return 0, d.failure
	}
	return d.copyModel(toDevice, pinned).Time(n), nil
}

func (d *Device) engineEnd(n int, toDevice bool, t sim.Duration) error {
	d.busy += t
	if toDevice {
		d.bytesIn += int64(n)
	} else {
		d.bytesOut += int64(n)
	}
	return d.failure
}

// PinnedCopy is the caller-owned record of one pinned engine transfer
// timed by scheduler callbacks instead of on a process of its own (see
// StartPinnedCopy). It embeds in the caller's per-block state and may be
// reused once its completion has run.
type PinnedCopy struct {
	// Err is the transfer's result, set before the completion runs.
	Err error

	dev   *Device
	owner *sim.Proc
	// dma is the engine the transfer holds a unit of, as acquired:
	// ResetEngines may swap the device's engines under a transfer in
	// flight, and the unit goes back where it came from.
	dma      *sim.Resource
	n        int
	toDevice bool
	t        sim.Duration
	fn       func(any)
	arg      any
}

// StartPinnedCopy is CopyEngineTransfer(owner, n, toDevice, true) for
// scheduler-context code, which cannot block: it queues for the DMA engine
// FIFO among blocked processes, occupies it for the transfer time and then
// runs fn(arg) with x.Err set — each step at the instant and queue position
// at which a process running CopyEngineTransfer would have resumed. On an
// already-failed device fn runs before StartPinnedCopy returns, as the
// process form returns without yielding. The transfer runs on behalf of
// owner: once owner is killed the chain ends at its next step, like the
// process it stands for — the engine stays seized, nothing is counted and
// fn never runs.
func (d *Device) StartPinnedCopy(x *PinnedCopy, owner *sim.Proc, n int, toDevice bool, fn func(any), arg any) {
	*x = PinnedCopy{dev: d, owner: owner, n: n, toDevice: toDevice, fn: fn, arg: arg}
	if x.t, x.Err = d.engineBegin(n, toDevice, true); x.Err != nil {
		fn(arg)
		return
	}
	x.dma = d.dma
	if x.dma.AcquireCall(1, pinnedCopyGranted, x) {
		pinnedCopyGranted(x)
	}
}

func pinnedCopyGranted(v any) {
	x := v.(*PinnedCopy)
	if x.owner.Killed() {
		return
	}
	x.dev.sim.AfterCall(x.t, pinnedCopyDone, x)
}

func pinnedCopyDone(v any) {
	x := v.(*PinnedCopy)
	if x.owner.Killed() {
		return
	}
	x.dma.Release(1)
	x.Err = x.dev.engineEnd(x.n, x.toDevice, x.t)
	x.fn(x.arg)
}

// ValidRange checks that [ptr+off, ptr+off+n) lies inside a live
// allocation, without charging any virtual time.
func (d *Device) ValidRange(ptr Ptr, off, n int) error { return d.alloc.check(ptr, off, n) }

// LaunchKernel resolves name in the registry, charges the launch overhead
// plus the kernel cost on the compute engine, and (in execute mode) runs
// the kernel body. A panicking kernel (bad arguments, out-of-range
// access through the typed accessors) is reported as a launch error, the
// way a CUDA kernel fault surfaces, instead of taking the daemon down.
func (d *Device) LaunchKernel(p *sim.Proc, name string, l Launch) error {
	return d.launchKernel(p, name, l, d.model.LaunchOverhead)
}

// LaunchKernelQueued launches a kernel that arrived inside an already-
// submitted command buffer: the buffer's first command paid the host-side
// submission share of the launch overhead for the whole buffer, so only
// the device-side dispatch cost is charged here. With a zero
// Model.SubmitOverhead this is exactly LaunchKernel.
func (d *Device) LaunchKernelQueued(p *sim.Proc, name string, l Launch) error {
	return d.launchKernel(p, name, l, d.model.LaunchOverhead-d.model.SubmitOverhead)
}

func (d *Device) launchKernel(p *sim.Proc, name string, l Launch, overhead sim.Duration) (err error) {
	k, ok := d.registry.Lookup(name)
	if !ok {
		return fmt.Errorf("gpu: unknown kernel %q", name)
	}
	class := KernelClass(name)
	if !d.model.Capability().Supports(class) {
		return fmt.Errorf("gpu: %s: kernel class %q not supported by model %q", d.name, class, d.model.Name)
	}
	if d.failure != nil {
		return d.failure
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gpu: kernel %q faulted: %v", name, r)
		}
	}()
	cost := overhead + k.Cost(l, d.model)
	if d.model.ReconfigLatency > 0 && class != d.cfgClass {
		// First launch of a new kernel class: load its configuration
		// (FPGA partial-reconfiguration bitstream). Charged once; later
		// launches of the same class find the datapath resident.
		cost += d.model.ReconfigLatency
		d.cfgClass = class
	}
	d.compute.Acquire(p, 1)
	p.Wait(cost)
	d.compute.Release(1)
	d.busy += cost
	d.launches++
	if d.failure != nil {
		// The device died while the kernel was on the silicon.
		return d.failure
	}
	if d.execute {
		d.arenaUsed = 0
		defer d.endLaunch()
		if err := k.Execute(l, d); err != nil {
			return fmt.Errorf("gpu: kernel %q: %w", name, err)
		}
	}
	return nil
}

// Stats reports cumulative device activity.
type Stats struct {
	BytesIn  int64
	BytesOut int64
	Launches int64
	Busy     sim.Duration
}

// Stats returns cumulative activity counters.
func (d *Device) Stats() Stats {
	return Stats{BytesIn: d.bytesIn, BytesOut: d.bytesOut, Launches: d.launches, Busy: d.busy}
}

// ScatterColumns writes a packed buffer of cols columns (colBytes bytes
// each) into device memory as a strided window: column c lands at
// ptr+off+c*pitchBytes. No virtual time is charged — strided copies are
// timed through their block pipeline; this call only places the bytes in
// execute mode (it is a no-op for nil data).
func (d *Device) ScatterColumns(ptr Ptr, off, colBytes, cols, pitchBytes int, data []byte) error {
	if data != nil && d.execute && len(data) != colBytes*cols {
		return fmt.Errorf("gpu: scatter: %d bytes for %d columns of %d", len(data), cols, colBytes)
	}
	return d.ScatterColumnsAt(ptr, off, colBytes, cols, pitchBytes, 0, data)
}

// ScatterColumnsAt places data at the packed-byte offset lo of the strided
// window, where lo indexes the packed layout ScatterColumns takes whole:
// the inverse of GatherColumnsInto. The pipelined H2D path uses it to
// place each transfer block as it arrives instead of reassembling the
// payload first. The geometry and the window's device range are validated
// on every call; bytes are placed in execute mode only.
func (d *Device) ScatterColumnsAt(ptr Ptr, off, colBytes, cols, pitchBytes, lo int, data []byte) error {
	if colBytes < 0 || cols < 0 || pitchBytes < colBytes {
		return fmt.Errorf("gpu: scatter: invalid geometry colBytes=%d cols=%d pitch=%d", colBytes, cols, pitchBytes)
	}
	if cols > 0 {
		if err := d.alloc.check(ptr, off, (cols-1)*pitchBytes+colBytes); err != nil {
			return err
		}
	}
	if !d.execute || len(data) == 0 {
		return nil
	}
	if lo < 0 || lo+len(data) > colBytes*cols {
		return fmt.Errorf("gpu: scatter: range [%d,%d) outside %d packed bytes", lo, lo+len(data), colBytes*cols)
	}
	return d.packedRuns(ptr, off, colBytes, pitchBytes, lo, len(data), func(dev []byte, at int) {
		copy(dev, data[at:])
	})
}

// packedRuns walks the packed-byte range [lo, lo+n) of a strided window
// (colBytes > 0) and hands fn each contiguous run of device memory that
// backs it, with the run's offset within the range.
func (d *Device) packedRuns(ptr Ptr, off, colBytes, pitchBytes, lo, n int, fn func(dev []byte, at int)) error {
	for at := 0; at < n; {
		c, r := (lo+at)/colBytes, (lo+at)%colBytes
		take := colBytes - r
		if rem := n - at; take > rem {
			take = rem
		}
		dev, err := d.alloc.slice(ptr, off+c*pitchBytes+r, take)
		if err != nil {
			return err
		}
		fn(dev, at)
		at += take
	}
	return nil
}

// GatherColumns reads a strided window into a packed buffer, the inverse
// of ScatterColumns. In model mode it returns nil after validating the
// range.
func (d *Device) GatherColumns(ptr Ptr, off, colBytes, cols, pitchBytes int) ([]byte, error) {
	if colBytes < 0 || cols < 0 || pitchBytes < colBytes {
		return nil, fmt.Errorf("gpu: gather: invalid geometry colBytes=%d cols=%d pitch=%d", colBytes, cols, pitchBytes)
	}
	if cols > 0 {
		if err := d.alloc.check(ptr, off, (cols-1)*pitchBytes+colBytes); err != nil {
			return nil, err
		}
	}
	if !d.execute {
		return nil, nil
	}
	out := make([]byte, colBytes*cols)
	for c := 0; c < cols; c++ {
		buf, err := d.alloc.slice(ptr, off+c*pitchBytes, colBytes)
		if err != nil {
			return nil, err
		}
		copy(out[c*colBytes:], buf)
	}
	return out, nil
}

// GatherColumnsInto reads the packed-byte subrange [lo, lo+len(dst)) of
// the strided window into dst, where lo indexes the packed layout
// GatherColumns would produce. The pipelined D2H path uses it to gather
// one transfer block at a time directly into a pooled buffer instead of
// materializing the whole payload. Execute mode only.
func (d *Device) GatherColumnsInto(dst []byte, ptr Ptr, off, colBytes, cols, pitchBytes, lo int) error {
	if colBytes <= 0 || cols < 0 || pitchBytes < colBytes {
		return fmt.Errorf("gpu: gather: invalid geometry colBytes=%d cols=%d pitch=%d", colBytes, cols, pitchBytes)
	}
	if lo < 0 || lo+len(dst) > colBytes*cols {
		return fmt.Errorf("gpu: gather: range [%d,%d) outside %d packed bytes", lo, lo+len(dst), colBytes*cols)
	}
	return d.packedRuns(ptr, off, colBytes, pitchBytes, lo, len(dst), func(dev []byte, at int) {
		copy(dst[at:], dev)
	})
}

// Execute-mode data accessors, used by kernel implementations and tests.

// Bytes returns the backing bytes of [ptr+off, ptr+off+n), valid until the
// device's next allocation (which may move the slab). Execute mode only.
func (d *Device) Bytes(ptr Ptr, off, n int) ([]byte, error) {
	return d.alloc.slice(ptr, off, n)
}

// ReadFloat64s decodes device memory at byte offset off as n float64 values
// into the device's launch arena. The slice is the caller's until the
// device's next launch begins; a kernel follows a read–compute–WriteFloat64s
// pattern and keeps nothing. Execute mode only.
func (d *Device) ReadFloat64s(ptr Ptr, off, n int) ([]float64, error) {
	raw, err := d.alloc.slice(ptr, off, 8*n)
	if err != nil {
		return nil, err
	}
	vals := d.Scratch(n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return vals, nil
}

// Scratch returns n float64s of the launch arena, with unspecified contents,
// for a kernel's workspace: valid, like ReadFloat64s's windows, until the
// device's next launch begins.
func (d *Device) Scratch(n int) []float64 {
	if d.arenaUsed+n > len(d.arena) {
		if poison {
			d.retired = append(d.retired, d.arena)
		}
		d.arena, d.arenaUsed = make([]float64, max(2*len(d.arena), n)), 0
	}
	lo := d.arenaUsed
	d.arenaUsed += n
	return d.arena[lo:d.arenaUsed:d.arenaUsed]
}

// endLaunch ends a launch's hold on the arena: under DYNACC_POISON every
// slice it was handed reads NaN from here on.
func (d *Device) endLaunch() {
	if !poison {
		return
	}
	d.retired = append(d.retired, d.arena)
	for _, a := range d.retired {
		for i := range a {
			a[i] = math.NaN()
		}
	}
	clear(d.retired)
	d.retired = d.retired[:0]
}

// WriteFloat64s stores vals into device memory at byte offset off.
// Execute mode only; charges no virtual time (kernel costs cover it).
func (d *Device) WriteFloat64s(ptr Ptr, off int, vals []float64) error {
	raw, err := d.alloc.slice(ptr, off, 8*len(vals))
	if err != nil {
		return err
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return nil
}

// StoreFloat64s writes vals back over the raw bytes previously obtained
// via Bytes; helper for kernels operating on float64 data.
func StoreFloat64s(raw []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
}
