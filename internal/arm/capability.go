package arm

// capability.go makes the ARM inventory capability-aware (ISSUE 9
// tentpole): accelerators carry a Capability descriptor (device class
// plus supported kernel classes), acquires can carry a Constraint, and
// placement becomes match-constraint-to-device then least-loaded within
// the matching set. Everything here is gated on the server's `classed`
// flag — true only when at least one inventory entry carries a non-zero
// capability — so a homogeneous, descriptor-less fleet (every default
// path) sends and receives exactly the bytes it did before capabilities
// existed.

import (
	"sort"

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

// IsZero reports an absent descriptor (a legacy, untagged accelerator).
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
// capability, Str(Class) Str(Kernel) for a constraint. Both appear only
// in the new opAcquireCapable encoding, as an optional opRegister
// trailer, and in classed-only sections of gossip/replication/statsEx —
// never in legacy traffic.

func encodeCapability(w *wire.Writer, c Capability) {
	w.Str(c.Class)
	w.Int(len(c.Kernels))
	for _, k := range c.Kernels {
		w.Str(k)
	}
}

func decodeCapability(r *wire.Reader) Capability {
	c := Capability{Class: r.Str()}
	n := r.Int()
	if r.Err() != nil || n < 0 || n > r.Remaining()/4 { // a kernel name is >= 4 bytes
		return Capability{}
	}
	for i := 0; i < n; i++ {
		c.Kernels = append(c.Kernels, r.Str())
	}
	return c
}

func encodeConstraint(w *wire.Writer, c Constraint) {
	w.Str(c.Class).Str(c.Kernel)
}

func decodeConstraint(r *wire.Reader) Constraint {
	return Constraint{Class: r.Str(), Kernel: r.Str()}
}

// updateClassed recomputes whether any inventory entry carries a
// capability descriptor. While false, every classed-only wire section
// and placement filter stays dormant and the server is byte-identical
// to the pre-capability ARM.
func (s *Server) updateClassed() {
	s.classed = false
	for _, a := range s.accels {
		if !a.cap.IsZero() {
			s.classed = true
			return
		}
	}
}

// eligible reports whether accelerator a satisfies the request's
// constraint (always true for the unconstrained legacy request).
func (s *Server) eligible(a *accel, c Constraint) bool {
	return c.IsZero() || c.Matches(a.cap)
}

// freeCountFor counts free accelerators satisfying the constraint.
func (s *Server) freeCountFor(c Constraint) int {
	n := 0
	for _, a := range s.accels {
		if a.state == acFree && s.eligible(a, c) {
			n++
		}
	}
	return n
}

// operationalFor counts operational accelerators satisfying the
// constraint (same exclusions as operational: failed and retired).
func (s *Server) operationalFor(c Constraint) int {
	n := 0
	for _, a := range s.accels {
		if a.state != acFailed && a.state != acRetired && s.eligible(a, c) {
			n++
		}
	}
	return n
}

// sharedAvailableFor counts accelerators that could take a new sharer
// for src and satisfy the constraint.
func (s *Server) sharedAvailableFor(src int, c Constraint) int {
	n := 0
	for _, a := range s.accels {
		if s.sharedGrantable(a, src) && s.eligible(a, c) {
			n++
		}
	}
	return n
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
		if a == old || a.state != acFree || !a.cap.CanHost(old.cap) {
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

// classLoads summarizes the local inventory per class for gossip:
// sorted class names with free and operational counts.
func (s *Server) classLoads() (names []string, free, oper map[string]int) {
	free = make(map[string]int)
	oper = make(map[string]int)
	for _, a := range s.accels {
		if a.state == acFailed || a.state == acRetired {
			continue
		}
		cl := a.cap.Class
		oper[cl]++
		if a.state == acFree {
			free[cl]++
		}
	}
	names = make([]string, 0, len(oper))
	for cl := range oper {
		names = append(names, cl)
	}
	sort.Strings(names)
	return names, free, oper
}

// clusterOperationalFor estimates the cluster-wide operational count
// for a constrained request from the local pool plus the per-class
// gossip. A kernel-only constraint cannot be evaluated remotely (gossip
// carries device classes, not kernel tables), so it conservatively
// counts every peer accelerator — the cost is an "unavailable" retry
// instead of a wrong "no capable device".
func (s *Server) clusterOperationalFor(c Constraint) int {
	if c.IsZero() {
		return s.clusterOperational()
	}
	n := s.operationalFor(c)
	for sh := range s.peerOper {
		if sh == s.shard {
			continue
		}
		if c.Class != "" {
			if m := s.peerClassOper[sh]; m != nil {
				n += m[c.Class]
			}
		} else {
			n += s.peerOper[sh]
		}
	}
	return n
}
