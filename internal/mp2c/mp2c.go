// Package mp2c implements a multi-particle collision dynamics miniapp
// modelled on MP2C, the production code of the paper's Section V-C: a
// mesoscopic solvent evolved by stochastic rotation dynamics (SRD),
// parallelized by geometric domain decomposition over MPI ranks, with the
// SRD collision step offloaded to a GPU — either node-local (the paper's
// baseline) or network-attached through the dynacc middleware.
//
// Every SRD invocation uploads the particle positions and velocities,
// runs the binning+rotation kernel, and downloads the updated velocities,
// so the experiment exercises exactly the transfer pattern whose
// bandwidth penalty Figure 11 quantifies.
//
// The miniapp runs in execute mode (real particles, testable physics:
// momentum and kinetic energy are conserved by the collision step) or in
// model mode (paper-scale particle counts, virtual time only).
package mp2c

import (
	"fmt"
	"math"
	"math/rand"

	"dynacc/internal/accel"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// Config describes one MP2C run. The defaults (via Defaults) reproduce
// the paper's setup: 10 particles per collision cell, SRD every 5th of
// 300 steps.
type Config struct {
	// TotalParticles across all ranks.
	TotalParticles int
	// ParticlesPerCell sets the collision-cell density (paper: 10).
	ParticlesPerCell int
	// Steps is the number of streaming steps (paper: 300).
	Steps int
	// SRDEvery runs the collision step every this many steps (paper: 5).
	SRDEvery int
	// DT is the streaming time step in cell units.
	DT float64
	// Angle is the SRD rotation angle in radians (130° is customary).
	Angle float64
	// Seed makes runs reproducible.
	Seed int64
	// Execute selects real particle data.
	Execute bool
	// CPUNsPerParticleStep models the host cost of the MD/streaming part
	// per particle and step (calibrated against the paper's absolute
	// runtimes).
	CPUNsPerParticleStep float64
	// MigrationFraction estimates, in model mode, the fraction of local
	// particles exchanged with each neighbour per step.
	MigrationFraction float64

	// Solutes adds a molecular-dynamics phase: this many Lennard-Jones
	// particles (total across ranks) integrated with velocity Verlet on
	// the CPU and coupled to the solvent through the SRD collision step,
	// as in the real MP2C's multi-scale coupling. Zero disables MD.
	Solutes int
	// LJ parameterizes the solute-solute interaction (zero value =
	// DefaultLJ when Solutes > 0).
	LJ LJParams
	// CPUNsPerSoluteStep models the host cost of the MD force loop per
	// solute and step.
	CPUNsPerSoluteStep float64
	// MDSubsteps integrates the stiff Lennard-Jones dynamics with this
	// many velocity-Verlet substeps per solvent step (MP2C runs the MD
	// timestep much finer than the collision interval). Zero means 1.
	MDSubsteps int
}

// Defaults returns the paper's configuration for the given particle
// count.
func Defaults(totalParticles int) Config {
	return Config{
		TotalParticles:       totalParticles,
		ParticlesPerCell:     10,
		Steps:                300,
		SRDEvery:             5,
		DT:                   0.1,
		Angle:                130 * math.Pi / 180,
		Seed:                 1,
		CPUNsPerParticleStep: 850,
		CPUNsPerSoluteStep:   2500,
		MigrationFraction:    0.004,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.TotalParticles <= 0:
		return fmt.Errorf("mp2c: TotalParticles = %d", c.TotalParticles)
	case c.ParticlesPerCell <= 0:
		return fmt.Errorf("mp2c: ParticlesPerCell = %d", c.ParticlesPerCell)
	case c.Steps <= 0 || c.SRDEvery <= 0:
		return fmt.Errorf("mp2c: Steps/SRDEvery = %d/%d", c.Steps, c.SRDEvery)
	case c.DT <= 0:
		return fmt.Errorf("mp2c: DT = %g", c.DT)
	case c.Solutes < 0:
		return fmt.Errorf("mp2c: Solutes = %d", c.Solutes)
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// Particles is the final local particle count.
	Particles int
	// SRDSteps counts collision invocations.
	SRDSteps int
	// BytesToGPU / BytesFromGPU count offload traffic of this rank.
	BytesToGPU   int64
	BytesFromGPU int64
	// Migrated counts particles exchanged with neighbours.
	Migrated int64
	// Solutes is the final local solute count.
	Solutes int
}

// Sim is the per-rank simulation state.
type Sim struct {
	cfg  Config
	comm *minimpi.Comm
	dev  accel.Device
	rank int
	np   int // ranks

	// Global collision-cell grid (cell edge = 1); the box is decomposed
	// into slabs along x.
	nx, ny, nz int
	x0, x1     float64 // local slab bounds

	// Execute-mode solvent state, xyz-interleaved (3 float64 each).
	pos, vel []float64
	// Execute-mode solute (MD) state.
	solPos, solVel, solForce []float64
	// Model-mode particle counts.
	count    int
	solCount int

	rng *rand.Rand

	// Device buffers.
	dPos, dVel gpu.Ptr
	dCap       int // particle capacity of the device buffers

	res Result
}

// NewSim creates the rank-local state. dev is the accelerator running the
// SRD step (local or network-attached).
func NewSim(comm *minimpi.Comm, dev accel.Device, cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, fmt.Errorf("mp2c: nil device")
	}
	if cfg.Solutes > 0 && cfg.LJ == (LJParams{}) {
		cfg.LJ = DefaultLJ()
	}
	s := &Sim{cfg: cfg, comm: comm, dev: dev, rank: comm.Rank(), np: comm.Size()}
	// Cell grid: roughly cubic, x divisible by the rank count.
	cells := cfg.TotalParticles / cfg.ParticlesPerCell
	if cells < s.np {
		cells = s.np
	}
	edge := int(math.Cbrt(float64(cells)))
	if edge < 1 {
		edge = 1
	}
	s.nx = ((edge + s.np - 1) / s.np) * s.np
	s.ny = edge
	s.nz = (cells + s.nx*s.ny - 1) / (s.nx * s.ny)
	if s.nz < 1 {
		s.nz = 1
	}
	slab := float64(s.nx) / float64(s.np)
	s.x0 = float64(s.rank) * slab
	s.x1 = float64(s.rank+1) * slab

	// Local share of particles.
	base := cfg.TotalParticles / s.np
	if s.rank < cfg.TotalParticles%s.np {
		base++
	}
	s.count = base
	solBase := cfg.Solutes / s.np
	if s.rank < cfg.Solutes%s.np {
		solBase++
	}
	s.solCount = solBase
	s.rng = rand.New(rand.NewSource(cfg.Seed + int64(s.rank)*7919))
	if cfg.Execute {
		s.pos = make([]float64, 0, 3*base*12/10)
		s.vel = make([]float64, 0, 3*base*12/10)
		for i := 0; i < base; i++ {
			s.pos = append(s.pos,
				s.x0+s.rng.Float64()*(s.x1-s.x0),
				s.rng.Float64()*float64(s.ny),
				s.rng.Float64()*float64(s.nz))
			s.vel = append(s.vel, s.rng.NormFloat64(), s.rng.NormFloat64(), s.rng.NormFloat64())
		}
		// Solutes start on a jittered lattice inside the slab: random
		// placement can overlap the Lennard-Jones cores and blow the
		// integrator up.
		spacing := 1.25 * cfg.LJ.Sigma
		placed := 0
	lattice:
		for x := s.x0 + spacing/2; x < s.x1; x += spacing {
			for y := spacing / 2; y < float64(s.ny); y += spacing {
				for z := spacing / 2; z < float64(s.nz); z += spacing {
					if placed == solBase {
						break lattice
					}
					jit := func() float64 { return 0.05 * (s.rng.Float64() - 0.5) }
					s.solPos = append(s.solPos, x+jit(), y+jit(), z+jit())
					s.solVel = append(s.solVel,
						0.3*s.rng.NormFloat64(), 0.3*s.rng.NormFloat64(), 0.3*s.rng.NormFloat64())
					placed++
				}
			}
		}
		if placed < solBase {
			return nil, fmt.Errorf("mp2c: %d solutes do not fit rank %d's slab at lattice spacing %g",
				solBase, s.rank, spacing)
		}
		s.solForce = make([]float64, len(s.solPos))
	}
	return s, nil
}

// Particles returns the current local solvent particle count.
func (s *Sim) Particles() int {
	if s.cfg.Execute {
		return len(s.pos) / 3
	}
	return s.count
}

// SoluteCount returns the current local solute count.
func (s *Sim) SoluteCount() int {
	if s.cfg.Execute {
		return len(s.solPos) / 3
	}
	return s.solCount
}

// srdParticles is the total count taking part in the collision step.
func (s *Sim) srdParticles() int { return s.Particles() + s.SoluteCount() }

// Setup allocates the device buffers and computes the initial MD forces.
// Call once before Run.
func (s *Sim) Setup(p *sim.Proc) error {
	if s.cfg.Execute && s.cfg.Solutes > 0 {
		if err := s.computeForces(p); err != nil {
			return err
		}
	}
	s.dCap = s.srdParticles() + s.srdParticles()/5 + 64
	var err error
	if s.dPos, err = s.dev.MemAlloc(p, 24*s.dCap); err != nil {
		return err
	}
	if s.dVel, err = s.dev.MemAlloc(p, 24*s.dCap); err != nil {
		return err
	}
	return nil
}

// Teardown frees the device buffers.
func (s *Sim) Teardown(p *sim.Proc) {
	if !s.dPos.IsNull() {
		_ = s.dev.MemFree(p, s.dPos)
		_ = s.dev.MemFree(p, s.dVel)
		s.dPos, s.dVel = 0, 0
	}
}

// Run executes the configured number of steps and returns the summary.
func (s *Sim) Run(p *sim.Proc) (Result, error) {
	if s.dPos.IsNull() {
		return Result{}, fmt.Errorf("mp2c: Setup not called")
	}
	for step := 1; step <= s.cfg.Steps; step++ {
		if err := s.mdStep(p); err != nil {
			return s.res, err
		}
		s.stream(p)
		if err := s.migrate(p); err != nil {
			return s.res, err
		}
		if step%s.cfg.SRDEvery == 0 {
			if err := s.srd(p, step); err != nil {
				return s.res, err
			}
			s.res.SRDSteps++
		}
	}
	s.res.Particles = s.Particles()
	s.res.Solutes = s.SoluteCount()
	return s.res, nil
}

// stream advances the particles (the MD/streaming part, on the host CPU).
func (s *Sim) stream(p *sim.Proc) {
	n := s.Particles()
	p.Wait(sim.Duration(float64(n) * s.cfg.CPUNsPerParticleStep))
	if !s.cfg.Execute {
		return
	}
	dt := s.cfg.DT
	ly, lz := float64(s.ny), float64(s.nz)
	lx := float64(s.nx)
	for i := 0; i < n; i++ {
		s.pos[3*i] += s.vel[3*i] * dt
		s.pos[3*i+1] = wrap(s.pos[3*i+1]+s.vel[3*i+1]*dt, ly)
		s.pos[3*i+2] = wrap(s.pos[3*i+2]+s.vel[3*i+2]*dt, lz)
		// x wraps around the global box; slab ownership is resolved by
		// migration.
		s.pos[3*i] = wrap(s.pos[3*i], lx)
	}
}

func wrap(x, l float64) float64 {
	if x >= l {
		return x - l
	}
	if x < 0 {
		return x + l
	}
	return x
}

// Migration tags.
const (
	tagLeft  minimpi.Tag = 501
	tagRight minimpi.Tag = 502
)

// migrate exchanges particles that left the local slab with the
// neighbour ranks (slab decomposition along x, periodic).
func (s *Sim) migrate(p *sim.Proc) error {
	if s.np == 1 {
		return nil
	}
	left := (s.rank - 1 + s.np) % s.np
	right := (s.rank + 1) % s.np
	var sendL, sendR []byte
	if s.cfg.Execute {
		var keepPos, keepVel []float64
		keepPos = s.pos[:0]
		keepVel = s.vel[:0]
		n := s.Particles()
		for i := 0; i < n; i++ {
			x := s.pos[3*i]
			switch {
			case x >= s.x0 && x < s.x1:
				keepPos = append(keepPos, s.pos[3*i], s.pos[3*i+1], s.pos[3*i+2])
				keepVel = append(keepVel, s.vel[3*i], s.vel[3*i+1], s.vel[3*i+2])
			case leftOf(x, s.x0, float64(s.nx)):
				sendL = appendParticle(sendL, s.pos[3*i:3*i+3], s.vel[3*i:3*i+3])
			default:
				sendR = appendParticle(sendR, s.pos[3*i:3*i+3], s.vel[3*i:3*i+3])
			}
		}
		s.pos, s.vel = keepPos, keepVel
	}
	var szL, szR int
	if s.cfg.Execute {
		szL, szR = len(sendL), len(sendR)
	} else {
		mig := int(float64(s.count) * s.cfg.MigrationFraction)
		szL, szR = mig*48, mig*48
	}
	s.res.Migrated += int64((szL + szR) / 48)

	// Post receives first, then send; the two neighbours may coincide
	// (np == 2), which the distinct tags keep unambiguous.
	rl := s.comm.Irecv(left, tagRight) // neighbour's rightward traffic
	rr := s.comm.Irecv(right, tagLeft)
	var sl, sr *minimpi.Request
	if s.cfg.Execute {
		sl = s.comm.Isend(left, tagLeft, sendL)
		sr = s.comm.Isend(right, tagRight, sendR)
	} else {
		sl = s.comm.IsendSized(left, tagLeft, szL)
		sr = s.comm.IsendSized(right, tagRight, szR)
	}
	dataL, _ := rl.Wait(p)
	dataR, _ := rr.Wait(p)
	sl.Wait(p)
	sr.Wait(p)
	if s.cfg.Execute {
		s.absorb(dataL)
		s.absorb(dataR)
	}
	return nil
}

// leftOf decides whether x (outside [x0,x1)) is reached faster across the
// left boundary, honoring periodic wrap.
func leftOf(x, x0, lx float64) bool {
	d := x0 - x
	if d < 0 {
		d += lx
	}
	return d < lx/2
}

func appendParticle(buf []byte, pos, vel []float64) []byte {
	for _, v := range pos {
		buf = appendF64(buf, v)
	}
	for _, v := range vel {
		buf = appendF64(buf, v)
	}
	return buf
}

func (s *Sim) absorb(data []byte) {
	for off := 0; off+48 <= len(data); off += 48 {
		for k := 0; k < 3; k++ {
			s.pos = append(s.pos, getF64At(data, off+8*k))
		}
		for k := 0; k < 3; k++ {
			s.vel = append(s.vel, getF64At(data, off+24+8*k))
		}
	}
}
