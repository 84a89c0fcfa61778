package gpu

import (
	"fmt"
	"sort"
	"sync"

	"dynacc/internal/sim"
)

// ValueKind discriminates kernel-argument types.
type ValueKind uint8

// Kernel argument kinds.
const (
	KindPtr ValueKind = iota + 1
	KindInt
	KindFloat
)

// Value is one kernel argument: a device pointer, an integer, or a
// float64. Values are plain data so the middleware can marshal launches
// onto the wire.
type Value struct {
	Kind ValueKind
	Ptr  Ptr
	Int  int64
	F64  float64
}

// PtrArg wraps a device pointer argument.
func PtrArg(p Ptr) Value { return Value{Kind: KindPtr, Ptr: p} }

// IntArg wraps an integer argument.
func IntArg(v int64) Value { return Value{Kind: KindInt, Int: v} }

// FloatArg wraps a float64 argument.
func FloatArg(v float64) Value { return Value{Kind: KindFloat, F64: v} }

// String renders the argument for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindPtr:
		return fmt.Sprintf("ptr:%#x", uint64(v.Ptr))
	case KindInt:
		return fmt.Sprintf("int:%d", v.Int)
	case KindFloat:
		return fmt.Sprintf("f64:%g", v.F64)
	default:
		return fmt.Sprintf("value(kind=%d)", v.Kind)
	}
}

// Dim3 is a CUDA-style grid or block dimension.
type Dim3 struct{ X, Y, Z int }

// Launch is one kernel invocation: configuration plus arguments.
type Launch struct {
	Grid, Block Dim3
	Args        []Value
}

// Arg returns the i-th argument, panicking with a clear message when the
// kernel was launched with a wrong signature (the CUDA analogue is an
// invalid-parameter launch failure).
func (l Launch) Arg(i int) Value {
	if i < 0 || i >= len(l.Args) {
		panic(fmt.Sprintf("gpu: kernel argument %d out of %d", i, len(l.Args)))
	}
	return l.Args[i]
}

// Kernel is a device function: a cost model (always available) plus an
// optional real implementation used in execute mode.
type Kernel interface {
	// Name is the symbol the front-end refers to (acKernelCreate).
	Name() string
	// Cost returns the virtual execution time of one launch on the given
	// device model.
	Cost(l Launch, m Model) sim.Duration
	// Execute runs the kernel against device memory. It is only called in
	// execute mode.
	Execute(l Launch, d *Device) error
}

// Registry maps kernel names to implementations. A Registry is safe for
// concurrent registration at program start; lookups during a simulation
// happen from the single scheduler thread.
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]Kernel
}

// NewRegistry returns an empty kernel registry.
func NewRegistry() *Registry {
	return &Registry{kernels: make(map[string]Kernel)}
}

// Register adds a kernel; re-registering a name replaces the previous
// kernel (useful in tests).
func (r *Registry) Register(k Kernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kernels[k.Name()] = k
}

// Lookup finds a kernel by name.
func (r *Registry) Lookup(name string) (Kernel, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.kernels[name]
	return k, ok
}

// Names lists registered kernels, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.kernels))
	for n := range r.kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FuncKernel adapts plain functions to the Kernel interface.
type FuncKernel struct {
	KernelName string
	CostFn     func(l Launch, m Model) sim.Duration
	ExecFn     func(l Launch, d *Device) error
}

// Name implements Kernel.
func (k FuncKernel) Name() string { return k.KernelName }

// Cost implements Kernel; a nil CostFn costs only the launch overhead.
func (k FuncKernel) Cost(l Launch, m Model) sim.Duration {
	if k.CostFn == nil {
		return 0
	}
	return k.CostFn(l, m)
}

// Execute implements Kernel; a nil ExecFn is a no-op (timing-only kernel).
func (k FuncKernel) Execute(l Launch, d *Device) error {
	if k.ExecFn == nil {
		return nil
	}
	return k.ExecFn(l, d)
}
