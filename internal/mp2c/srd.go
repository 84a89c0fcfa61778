package mp2c

import (
	"encoding/binary"
	"math"

	"dynacc/internal/accel"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// KernelSRD is the collision-step kernel name.
const KernelSRD = "mp2c.srd"

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func getF64At(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// srd runs one collision step: upload positions and velocities (solvent
// plus coupled solutes), launch the kernel, download the rotated
// velocities — the exact offload pattern MP2C uses per SRD invocation.
func (s *Sim) srd(p *sim.Proc, step int) error {
	n := s.srdParticles()
	if n > s.dCap {
		// Migration imbalance outgrew the device buffers; reallocate.
		s.Teardown(p)
		s.dCap = n + n/5 + 64
		var err error
		if s.dPos, err = s.dev.MemAlloc(p, 24*s.dCap); err != nil {
			return err
		}
		if s.dVel, err = s.dev.MemAlloc(p, 24*s.dCap); err != nil {
			return err
		}
	}
	var posB, velB []byte
	if s.cfg.Execute {
		posB = f64sBytes2(s.pos, s.solPos)
		velB = f64sBytes2(s.vel, s.solVel)
	}
	seed := s.cfg.Seed*1000003 + int64(step)*7919 + int64(s.rank)
	launch := gpu.Launch{
		Grid:  gpu.Dim3{X: (n + 255) / 256},
		Block: gpu.Dim3{X: 256},
		Args: []gpu.Value{
			gpu.PtrArg(s.dPos), gpu.PtrArg(s.dVel), gpu.IntArg(int64(n)),
			gpu.IntArg(int64(s.nx)), gpu.IntArg(int64(s.ny)), gpu.IntArg(int64(s.nz)),
			gpu.FloatArg(s.cfg.Angle), gpu.IntArg(seed),
		},
	}
	up1 := s.dev.CopyH2DAsync(s.dPos, 0, posB, 24*n, 0)
	up2 := s.dev.CopyH2DAsync(s.dVel, 0, velB, 24*n, 0)
	if accel.Batched(s.dev) {
		// Stream-ordered prologue: record the kernel launch behind the
		// uploads on stream 0 and flush the buffer once. The daemon
		// executes the stream in order, so issue-all-then-wait is
		// equivalent to the sequential waits below — minus the
		// per-request wire round trips (small uploads even ride inline
		// with the launch in one message).
		kp := s.dev.LaunchAsync(KernelSRD, launch, 0)
		s.dev.Flush(0)
		if err := up1.Wait(p); err != nil {
			return err
		}
		if err := up2.Wait(p); err != nil {
			return err
		}
		s.res.BytesToGPU += int64(48 * n)
		if err := kp.Wait(p); err != nil {
			return err
		}
	} else {
		if err := up1.Wait(p); err != nil {
			return err
		}
		if err := up2.Wait(p); err != nil {
			return err
		}
		s.res.BytesToGPU += int64(48 * n)
		if err := s.dev.LaunchAsync(KernelSRD, launch, 0).Wait(p); err != nil {
			return err
		}
	}

	var velOut []byte
	if s.cfg.Execute {
		velOut = make([]byte, 24*n)
	}
	if err := s.dev.CopyD2HAsync(velOut, s.dVel, 0, 24*n, 0).Wait(p); err != nil {
		return err
	}
	s.res.BytesFromGPU += int64(24 * n)
	if s.cfg.Execute {
		nv := len(s.vel)
		for i := 0; i < nv; i++ {
			s.vel[i] = getF64At(velOut, 8*i)
		}
		for i := 0; i < len(s.solVel); i++ {
			s.solVel[i] = getF64At(velOut, 8*(nv+i))
		}
	}
	return nil
}

// f64sBytes2 packs two float64 slices back to back.
func f64sBytes2(a, b []float64) []byte {
	buf := make([]byte, 8*(len(a)+len(b)))
	off := 0
	for _, vals := range [][]float64{a, b} {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf
}

// RegisterKernels adds the SRD kernel to a registry.
func RegisterKernels(reg *gpu.Registry) {
	reg.Register(gpu.FuncKernel{
		KernelName: KernelSRD,
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			n := int(l.Arg(2).Int)
			// Memory-bound: read pos+vel, accumulate cell sums, rotate,
			// write vel — about four passes over 48 bytes per particle.
			bytes := 4 * 48 * float64(n)
			return sim.Duration(bytes / m.MemBandwidth * 1e9)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			posPtr, velPtr := l.Arg(0).Ptr, l.Arg(1).Ptr
			n := int(l.Arg(2).Int)
			nx, ny, nz := int(l.Arg(3).Int), int(l.Arg(4).Int), int(l.Arg(5).Int)
			angle := l.Arg(6).F64
			seed := l.Arg(7).Int
			if n == 0 {
				return nil
			}
			pos, err := dev.ReadFloat64s(posPtr, 0, 3*n)
			if err != nil {
				return err
			}
			vel, err := dev.ReadFloat64s(velPtr, 0, 3*n)
			if err != nil {
				return err
			}
			SRDCollide(pos, vel, nx, ny, nz, angle, seed)
			return dev.WriteFloat64s(velPtr, 0, vel)
		},
	})
}

// SRDCollide performs the stochastic rotation dynamics collision step on
// the given particles: bin into unit cells under a random grid shift,
// then rotate each particle's velocity relative to its cell's mean by
// angle around a random per-cell axis. Cell momentum and kinetic energy
// are conserved exactly; everything is deterministic in seed.
func SRDCollide(pos, vel []float64, nx, ny, nz int, angle float64, seed int64) {
	n := len(pos) / 3
	if n == 0 {
		return
	}
	rs := splitmix(uint64(seed))
	shift := [3]float64{rs.f64(), rs.f64(), rs.f64()}
	dims := [3]int{nx, ny, nz}

	cellOf := func(i int) int {
		c := 0
		for k := 0; k < 3; k++ {
			v := int(math.Floor(pos[3*i+k] + shift[k]))
			// The shift can push an index one past the grid; wrap
			// periodically.
			v %= dims[k]
			if v < 0 {
				v += dims[k]
			}
			c = c*dims[k] + v
		}
		return c
	}

	// Cell means.
	type cellAcc struct {
		n          int
		vx, vy, vz float64
	}
	cells := make(map[int]*cellAcc)
	cellIdx := make([]int, n)
	for i := 0; i < n; i++ {
		c := cellOf(i)
		cellIdx[i] = c
		acc := cells[c]
		if acc == nil {
			acc = &cellAcc{}
			cells[c] = acc
		}
		acc.n++
		acc.vx += vel[3*i]
		acc.vy += vel[3*i+1]
		acc.vz += vel[3*i+2]
	}

	// Rotate relative velocities. The per-cell axis derives from the cell
	// index and seed so the result is independent of particle order.
	for i := 0; i < n; i++ {
		c := cellIdx[i]
		acc := cells[c]
		if acc.n < 2 {
			continue // a lone particle keeps its velocity
		}
		inv := 1 / float64(acc.n)
		cx, cy, cz := acc.vx*inv, acc.vy*inv, acc.vz*inv
		ux, uy, uz := cellAxis(uint64(seed), uint64(c))
		rx, ry, rz := rotate(vel[3*i]-cx, vel[3*i+1]-cy, vel[3*i+2]-cz, ux, uy, uz, angle)
		vel[3*i] = cx + rx
		vel[3*i+1] = cy + ry
		vel[3*i+2] = cz + rz
	}
}

// rotate applies Rodrigues' rotation of (x,y,z) around unit axis (ux,uy,uz).
func rotate(x, y, z, ux, uy, uz, angle float64) (float64, float64, float64) {
	c, s := math.Cos(angle), math.Sin(angle)
	dot := ux*x + uy*y + uz*z
	crX := uy*z - uz*y
	crY := uz*x - ux*z
	crZ := ux*y - uy*x
	return x*c + crX*s + ux*dot*(1-c),
		y*c + crY*s + uy*dot*(1-c),
		z*c + crZ*s + uz*dot*(1-c)
}

// cellAxis derives a deterministic pseudo-random unit vector for a cell.
func cellAxis(seed, cell uint64) (float64, float64, float64) {
	rs := splitmix(seed ^ (cell+1)*0x9E3779B97F4A7C15)
	// Marsaglia: uniform on the sphere.
	for {
		a := 2*rs.f64() - 1
		b := 2*rs.f64() - 1
		s := a*a + b*b
		if s >= 1 || s == 0 {
			continue
		}
		f := 2 * math.Sqrt(1-s)
		return a * f, b * f, 1 - 2*s
	}
}

// splitmix is a tiny deterministic PRNG (SplitMix64).
type splitmixState uint64

func splitmix(seed uint64) *splitmixState {
	s := splitmixState(seed)
	return &s
}

func (s *splitmixState) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmixState) f64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}
