package mp2c

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dynacc/internal/accel"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

func totals(pos, vel []float64) (px, py, pz, ke float64) {
	n := len(vel) / 3
	for i := 0; i < n; i++ {
		px += vel[3*i]
		py += vel[3*i+1]
		pz += vel[3*i+2]
		ke += vel[3*i]*vel[3*i] + vel[3*i+1]*vel[3*i+1] + vel[3*i+2]*vel[3*i+2]
	}
	_ = pos
	return
}

func randParticles(rng *rand.Rand, n, nx, ny, nz int) (pos, vel []float64) {
	for i := 0; i < n; i++ {
		pos = append(pos, rng.Float64()*float64(nx), rng.Float64()*float64(ny), rng.Float64()*float64(nz))
		vel = append(vel, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	return
}

func TestSRDConservesMomentumAndEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos, vel := randParticles(rng, 5000, 8, 8, 8)
	px0, py0, pz0, ke0 := totals(pos, vel)
	SRDCollide(pos, vel, 8, 8, 8, 130*math.Pi/180, 42)
	px1, py1, pz1, ke1 := totals(pos, vel)
	if math.Abs(px1-px0) > 1e-9 || math.Abs(py1-py0) > 1e-9 || math.Abs(pz1-pz0) > 1e-9 {
		t.Errorf("momentum drift: (%g,%g,%g)", px1-px0, py1-py0, pz1-pz0)
	}
	if math.Abs(ke1-ke0)/ke0 > 1e-12 {
		t.Errorf("kinetic energy drift: %g -> %g", ke0, ke1)
	}
}

func TestSRDActuallyMixesVelocities(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pos, vel := randParticles(rng, 1000, 4, 4, 4)
	before := append([]float64(nil), vel...)
	SRDCollide(pos, vel, 4, 4, 4, 130*math.Pi/180, 7)
	changed := 0
	for i := range vel {
		if vel[i] != before[i] {
			changed++
		}
	}
	if changed < len(vel)/2 {
		t.Errorf("only %d/%d velocity components changed", changed, len(vel))
	}
}

func TestSRDDeterministicInSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos, vel := randParticles(rng, 500, 4, 4, 4)
	v1 := append([]float64(nil), vel...)
	v2 := append([]float64(nil), vel...)
	SRDCollide(pos, v1, 4, 4, 4, 2.0, 99)
	SRDCollide(pos, v2, 4, 4, 4, 2.0, 99)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	SRDCollide(pos, v2, 4, 4, 4, 2.0, 100)
	same := true
	for i := range v1 {
		if v1[i] != v2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical result")
	}
}

func TestSRDEmptyAndSingleParticle(t *testing.T) {
	SRDCollide(nil, nil, 4, 4, 4, 2.0, 1) // must not panic
	pos := []float64{1, 1, 1}
	vel := []float64{3, -2, 0.5}
	SRDCollide(pos, vel, 4, 4, 4, 2.0, 1)
	if vel[0] != 3 || vel[1] != -2 || vel[2] != 0.5 {
		t.Errorf("lone particle velocity changed: %v", vel)
	}
}

func TestRotatePreservesNorm(t *testing.T) {
	f := func(x, y, z float64, seed uint64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) || math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		// Bound the magnitudes to keep the float comparison meaningful.
		x, y, z = math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6)
		ux, uy, uz := cellAxis(seed, 1)
		rx, ry, rz := rotate(x, y, z, ux, uy, uz, 1.3)
		n0 := x*x + y*y + z*z
		n1 := rx*rx + ry*ry + rz*rz
		return math.Abs(n1-n0) <= 1e-9*(n0+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCellAxisIsUnit(t *testing.T) {
	for cell := uint64(0); cell < 100; cell++ {
		x, y, z := cellAxis(12345, cell)
		if d := math.Abs(x*x + y*y + z*z - 1); d > 1e-12 {
			t.Fatalf("cell %d: |axis|² off by %g", cell, d)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := Defaults(1000)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{},
		{TotalParticles: 10},
		{TotalParticles: 10, ParticlesPerCell: 10, Steps: 1, SRDEvery: 0, DT: 0.1},
		{TotalParticles: 10, ParticlesPerCell: 10, Steps: 1, SRDEvery: 1, DT: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

// runMP2C builds a cluster with `ranks` compute nodes; each gets one GPU
// (local or remote per the flag) and runs the miniapp.
func runMP2C(t *testing.T, ranks int, cfg Config, remote bool) (sim.Duration, []Result) {
	t.Helper()
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	nAC := 0
	localGPUs := 1
	if remote {
		nAC = ranks
		localGPUs = 0
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: ranks,
		Accelerators: nAC,
		Registry:     reg,
		Execute:      cfg.Execute,
		LocalGPUs:    localGPUs,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, ranks)
	var elapsed sim.Duration
	cl.SpawnAll(func(p *sim.Proc, n *cluster.Node) {
		var dev accel.Device
		if remote {
			handles, err := n.ARM.Acquire(p, 1, true)
			if err != nil {
				t.Error(err)
				return
			}
			defer n.ARM.Release(p, handles)
			dev = accel.Remote(n.Attach(handles[0]))
		} else {
			ld := accel.Local(p, n.Local[0])
			defer ld.Close()
			dev = ld
		}
		s, err := NewSim(n.App, dev, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Setup(p); err != nil {
			t.Error(err)
			return
		}
		defer s.Teardown(p)
		n.App.Barrier(p)
		start := p.Now()
		res, err := s.Run(p)
		if err != nil {
			t.Error(err)
			return
		}
		n.App.Barrier(p)
		if n.Rank == 0 {
			elapsed = p.Now().Sub(start)
		}
		results[n.Rank] = res
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return elapsed, results
}

func TestMP2CExecuteConservation(t *testing.T) {
	cfg := Defaults(4000)
	cfg.Steps = 20
	cfg.Execute = true
	_, results := runMP2C(t, 2, cfg, true)
	total := 0
	for _, r := range results {
		total += r.Particles
		if r.SRDSteps != 4 {
			t.Errorf("SRD steps = %d, want 4", r.SRDSteps)
		}
		if r.BytesToGPU == 0 || r.BytesFromGPU == 0 {
			t.Error("no GPU traffic recorded")
		}
	}
	if total != 4000 {
		t.Errorf("particles lost or duplicated: %d", total)
	}
}

func TestMP2CParticlesStayInBox(t *testing.T) {
	cfg := Defaults(1500)
	cfg.Steps = 15
	cfg.Execute = true
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 2, Accelerators: 2, Registry: reg, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	cl.SpawnAll(func(p *sim.Proc, n *cluster.Node) {
		handles, err := n.ARM.Acquire(p, 1, true)
		if err != nil {
			t.Error(err)
			return
		}
		defer n.ARM.Release(p, handles)
		s, err := NewSim(n.App, accel.Remote(n.Attach(handles[0])), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Setup(p); err != nil {
			t.Error(err)
			return
		}
		defer s.Teardown(p)
		if _, err := s.Run(p); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < s.Particles(); i++ {
			x, y, z := s.pos[3*i], s.pos[3*i+1], s.pos[3*i+2]
			if x < s.x0 || x >= s.x1 {
				t.Errorf("rank %d: particle %d at x=%g outside slab [%g,%g)", n.Rank, i, x, s.x0, s.x1)
				return
			}
			if y < 0 || y >= float64(s.ny) || z < 0 || z >= float64(s.nz) {
				t.Errorf("rank %d: particle %d outside box: y=%g z=%g", n.Rank, i, y, z)
				return
			}
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMP2CMigrationMovesParticles(t *testing.T) {
	cfg := Defaults(2000)
	cfg.Steps = 25
	cfg.Execute = true
	_, results := runMP2C(t, 2, cfg, false)
	var migrated int64
	for _, r := range results {
		migrated += r.Migrated
	}
	if migrated == 0 {
		t.Error("no migration occurred in 25 steps")
	}
}

// The paper's Figure 11 claim: running MP2C on network-attached GPUs
// costs at most a few percent over node-local GPUs.
func TestMP2CRemoteSlowdownIsSmall(t *testing.T) {
	cfg := Defaults(200000)
	cfg.Steps = 50
	tLocal, _ := runMP2C(t, 2, cfg, false)
	tRemote, _ := runMP2C(t, 2, cfg, true)
	if tRemote <= tLocal {
		t.Errorf("remote (%v) unexpectedly faster than local (%v)", tRemote, tLocal)
	}
	slowdown := float64(tRemote)/float64(tLocal) - 1
	if slowdown > 0.06 {
		t.Errorf("slowdown %.1f%%, paper says at most ~4%%", slowdown*100)
	}
}

func TestMP2CModelModeDeterministic(t *testing.T) {
	cfg := Defaults(100000)
	cfg.Steps = 30
	t1, _ := runMP2C(t, 2, cfg, true)
	t2, _ := runMP2C(t, 2, cfg, true)
	if t1 != t2 {
		t.Errorf("model-mode runs differ: %v vs %v", t1, t2)
	}
}

func TestMP2CSingleRank(t *testing.T) {
	cfg := Defaults(1000)
	cfg.Steps = 10
	cfg.Execute = true
	_, results := runMP2C(t, 1, cfg, true)
	if results[0].Particles != 1000 {
		t.Errorf("particles = %d", results[0].Particles)
	}
	if results[0].Migrated != 0 {
		t.Errorf("single rank migrated %d particles", results[0].Migrated)
	}
}

// Without thermostats or external forces, streaming and SRD conserve
// kinetic energy, so the solvent temperature must stay constant.
func TestTemperatureStableAcrossRun(t *testing.T) {
	cfg := Defaults(4000)
	cfg.Steps = 25
	cfg.Execute = true
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 1, Registry: reg, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *cluster.Node) {
		h, err := n.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Error(err)
			return
		}
		defer n.ARM.Release(p, h)
		s, err := NewSim(n.App, accel.Remote(n.Attach(h[0])), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Setup(p); err != nil {
			t.Error(err)
			return
		}
		defer s.Teardown(p)
		t0 := temperature(s)
		if t0 < 0.9 || t0 > 1.1 {
			t.Errorf("initial temperature %v, want ~1 (unit Maxwell velocities)", t0)
		}
		if _, err := s.Run(p); err != nil {
			t.Error(err)
			return
		}
		t1 := temperature(s)
		if relDiff := (t1 - t0) / t0; relDiff > 1e-9 || relDiff < -1e-9 {
			t.Errorf("temperature drifted: %v -> %v", t0, t1)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// temperature returns the instantaneous kinetic temperature of the local
// particles (unit mass, k_B = 1: T = <v²>/3). Execute mode only; model
// mode returns 0.
func temperature(s *Sim) float64 {
	if !s.cfg.Execute {
		return 0
	}
	n := s.Particles() + s.SoluteCount()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vel {
		sum += v * v
	}
	for _, v := range s.solVel {
		sum += v * v
	}
	return sum / (3 * float64(n))
}
