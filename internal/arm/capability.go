package arm

// capability.go makes the ARM inventory capability-aware: accelerators
// carry a Capability descriptor (device class plus supported kernel
// classes), acquires carry a Constraint, and placement is
// match-constraint-to-device then least-loaded within the matching set.
// A homogeneous, descriptor-less fleet is the case of one class with the
// empty name: the zero capability hosts anything and the zero constraint
// matches it.

import (
	"fmt"

	"dynacc/internal/wire"
)

// Capability is the placement-relevant summary of one accelerator: its
// device class and the kernel classes it can run. The ARM matches
// acquire constraints against it and migrates resident state only
// between compatible devices; it deliberately carries no performance
// numbers (those live in gpu.Capability, which the cluster keeps on the
// client side).
type Capability struct {
	// Class names the device family ("c1060", "fermi", "fpga"); devices
	// of one class are interchangeable.
	Class string
	// Kernels lists the kernel classes the device supports; empty means
	// it runs everything (a general-purpose GPU).
	Kernels []string
}

// IsZero reports an absent descriptor (an untagged accelerator).
func (c Capability) IsZero() bool { return c.Class == "" && len(c.Kernels) == 0 }

// Supports reports whether the capability covers the given kernel
// class; an empty Kernels list supports everything.
func (c Capability) Supports(kernelClass string) bool {
	if len(c.Kernels) == 0 {
		return true
	}
	for _, k := range c.Kernels {
		if k == kernelClass {
			return true
		}
	}
	return false
}

// CanHost reports whether a device with capability c can host resident
// state produced on a device with capability src: it must support every
// kernel class src supports. A restricted device (non-empty Kernels)
// can therefore never host state from a run-everything GPU — this is
// what keeps a C1060's resident state off the FPGA.
func (c Capability) CanHost(src Capability) bool {
	if len(c.Kernels) == 0 {
		return true
	}
	if len(src.Kernels) == 0 {
		return false
	}
	for _, k := range src.Kernels {
		if !c.Supports(k) {
			return false
		}
	}
	return true
}

// Constraint restricts an acquire to capable devices. Zero means any
// device (the legacy behavior); both fields may be set at once.
type Constraint struct {
	// Class, when non-empty, requires devices of exactly this class.
	Class string
	// Kernel, when non-empty, requires devices supporting this kernel
	// class.
	Kernel string
}

// IsZero reports the unconstrained (legacy) request.
func (c Constraint) IsZero() bool { return c.Class == "" && c.Kernel == "" }

// Matches reports whether a device with the given capability satisfies
// the constraint.
func (c Constraint) Matches(cap Capability) bool {
	if c.Class != "" && c.Class != cap.Class {
		return false
	}
	if c.Kernel != "" && !cap.Supports(c.Kernel) {
		return false
	}
	return true
}

// Wire encoding: Str(Class) Int(len(Kernels)) Str(kernel)... for a
// capability (every granted handle, opRegister, replication records),
// Str(Class) Str(Kernel) for a constraint (every opAcquire).

func encodeCapability(w *wire.Writer, c Capability) {
	w.Str(c.Class)
	w.Int(len(c.Kernels))
	for _, k := range c.Kernels {
		w.Str(k)
	}
}

// decodeCapability fails on a truncated descriptor and on a kernel count
// the remaining bytes cannot hold, checked before anything is allocated.
func decodeCapability(r *wire.Reader) (Capability, error) {
	c := Capability{Class: r.Str()}
	n := r.Int()
	if r.Err() == nil && (n < 0 || n > r.Remaining()/4) { // a kernel name is >= 4 bytes
		return Capability{}, fmt.Errorf("arm: malformed capability: %d kernel classes in %d bytes", n, r.Remaining())
	}
	for i := 0; i < n; i++ {
		c.Kernels = append(c.Kernels, r.Str())
	}
	return c, r.Err()
}

func encodeConstraint(w *wire.Writer, c Constraint) {
	w.Str(c.Class).Str(c.Kernel)
}

func decodeConstraint(r *wire.Reader) Constraint {
	return Constraint{Class: r.Str(), Kernel: r.Str()}
}

// eligible reports whether accelerator a may serve req: it satisfies the
// constraint and, for a replacement, can host the replaced device's
// resident state.
func (s *Server) eligible(a *accel, req *pendingAcquire) bool {
	return req.constraint.Matches(a.cap) && (req.replaces == nil || a.cap.CanHost(req.replaces.cap))
}

// countFor counts the accelerators eligible for req that pass ok.
func (s *Server) countFor(req *pendingAcquire, ok func(a *accel) bool) int {
	n := 0
	for _, a := range s.accels {
		if ok(a) && s.eligible(a, req) {
			n++
		}
	}
	return n
}

// freeCountFor counts free accelerators eligible for req.
func (s *Server) freeCountFor(req *pendingAcquire) int {
	return s.countFor(req, func(a *accel) bool { return a.state.grantable() })
}

// operationalFor counts accelerators eligible for req that can
// (eventually) serve: everything but failed and retired ones. Suspect
// accelerators count — they may recover — so a queued request waiting on
// one blocks rather than being rejected until the detector declares the
// node dead.
func (s *Server) operationalFor(req *pendingAcquire) int {
	return s.countFor(req, func(a *accel) bool { return a.state.operational() })
}

// exhaustedStatus is the status for a request exceeding its ceiling: a
// constrained request that the live inventory can never satisfy gets
// the typed statusNoCapable instead of the generic statusImpossible, so
// clients receive ErrNoCapableDevice rather than blocking forever or
// misreading the refusal as pool exhaustion.
func exhaustedStatus(req *pendingAcquire) uint8 {
	if !req.constraint.IsZero() {
		return statusNoCapable
	}
	return statusImpossible
}

// migrationTarget picks the free spare that should receive old's
// resident state: same-class spares first (a byte-for-byte compatible
// device), then any capability-compatible one (CanHost), pool order
// within each preference group. Nil when no compatible spare is free.
func (s *Server) migrationTarget(old *accel) *accel {
	var compat *accel
	for _, a := range s.accels {
		if a == old || !a.state.grantable() || !a.cap.CanHost(old.cap) {
			continue
		}
		if a.cap.Class == old.cap.Class {
			return a
		}
		if compat == nil {
			compat = a
		}
	}
	return compat
}

// classLoad is one row of the gossiped load table: a device class (the
// empty name on an untagged fleet) with its free and operational counts.
type classLoad struct {
	class      string
	free, oper int
}

// classLoads summarizes the local inventory per class for gossip, sorted
// by class name, into a scratch table reused between calls.
func (s *Server) classLoads() []classLoad {
	loads := s.loads[:0]
	for _, a := range s.accels {
		if !a.state.operational() {
			continue
		}
		i := 0
		for i < len(loads) && loads[i].class < a.cap.Class {
			i++
		}
		if i == len(loads) || loads[i].class != a.cap.Class {
			loads = append(loads, classLoad{})
			copy(loads[i+1:], loads[i:])
			loads[i] = classLoad{class: a.cap.Class}
		}
		loads[i].oper++
		if a.state.grantable() {
			loads[i].free++
		}
	}
	s.loads = loads
	return loads
}

// peerOperationalFor estimates how many operational accelerators the
// peer shards hold for a constraint, from the last gossip. A kernel-only
// constraint cannot be evaluated remotely (gossip carries device classes,
// not kernel tables), so it conservatively counts every peer accelerator
// — the cost is an "unavailable" retry instead of a wrong "no capable
// device".
func (s *Server) peerOperationalFor(c Constraint) int {
	n := 0
	for sh, peer := range s.peers {
		switch {
		case sh == s.shard:
		case c.Class != "":
			n += peer.classOper[c.Class]
		default:
			n += peer.oper
		}
	}
	return n
}
