// Socket-mode deployment: the same cluster the in-sim builder assembles in
// one simulation can be spread over several OS processes (or several
// listeners in one process), each running the ranks a Topology assigns to
// it and exchanging messages over TCP through internal/nettrans. Every
// process drives its own simulation with sim.RunRealtime, so the timeout
// machinery (request timeouts, heartbeats, lease expiry) maps onto real
// wall-clock deadlines unchanged.

package cluster

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynacc/internal/nettrans"
	"dynacc/internal/sim"
)

// Layout is the world-rank layout a Config implies: compute nodes first,
// then accelerator daemons (spares last), then the resource-manager ranks.
type Layout struct {
	Compute []int // world ranks of the compute nodes
	Daemons []int // world ranks of the accelerator daemons, spares included
	ARM     []int // resource-manager ranks: one, or one per shard (x2 with replicas)
	Total   int
}

// RankLayout computes the Layout for a Config.
func RankLayout(cfg Config) Layout {
	armRanks := max(cfg.ARMShards, 1)
	if cfg.ARMReplicas {
		armRanks *= 2
	}
	cn, ac := max(cfg.ComputeNodes, 0), max(cfg.Accelerators+cfg.SpareAccelerators, 0)
	all := make([]int, cn+ac+armRanks)
	for r := range all {
		all[r] = r
	}
	// Capped, so appending to one tier never writes into the next.
	return Layout{Compute: all[:cn:cn], Daemons: all[cn : cn+ac : cn+ac], ARM: all[cn+ac:], Total: len(all)}
}

// Topology assigns every world rank to a process and names where each
// process listens.
type Topology struct {
	// Procs is the shared process table; the rank sets must partition the
	// world. It must be identical in every process.
	Procs []nettrans.ProcSpec
	// Token authenticates connections (see nettrans.Config.Token).
	Token string
	// Listeners optionally carries pre-bound listeners parallel to Procs,
	// for same-OS-process deployments on ":0" addresses. Entries may be
	// nil; a process without one listens on its Procs address.
	Listeners []net.Listener
}

// ThreeTierSplit returns the rank sets of the canonical deployment: one
// process for all compute nodes, one for all accelerator daemons, one for
// the resource manager(s).
func ThreeTierSplit(cfg Config) [][]int {
	l := RankLayout(cfg)
	return [][]int{l.Compute, l.Daemons, l.ARM}
}

// ListenTopology binds one loopback listener per rank set and returns the
// resulting topology with the listeners attached — the multi-listener
// deployment used by tests and the soak driver.
func ListenTopology(token string, rankSets [][]int) (Topology, error) {
	topo := Topology{Token: token}
	for i, ranks := range rankSets {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range topo.Listeners {
				l.Close()
			}
			return Topology{}, fmt.Errorf("cluster: listen for proc %d: %w", i, err)
		}
		topo.Procs = append(topo.Procs, nettrans.ProcSpec{Addr: ln.Addr().String(), Ranks: ranks})
		topo.Listeners = append(topo.Listeners, ln)
	}
	return topo, nil
}

// ParseTopology maps a textual process table onto world ranks. The spec is
// a semicolon-separated list of processes, each "roles@host:port" with
// comma-separated roles:
//
//	cn          all compute nodes        cn2    compute node 2    cn0-3  range
//	ac          all accelerator daemons  ac1    daemon 1          ac0-1  range
//	arm         all resource-manager ranks                        arm0   shard 0
//
// Example: "cn@10.0.0.1:7000;ac0-1@10.0.0.2:7001;ac2-3@10.0.0.3:7001;arm@10.0.0.4:7002".
func ParseTopology(cfg Config, spec string) (Topology, error) {
	l := RankLayout(cfg)
	var topo Topology
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		roles, addr, ok := strings.Cut(part, "@")
		if !ok || addr == "" {
			return Topology{}, fmt.Errorf("cluster: proc spec %q: want roles@host:port", part)
		}
		var ranks []int
		for _, role := range strings.Split(roles, ",") {
			rs, err := resolveRole(l, strings.TrimSpace(role))
			if err != nil {
				return Topology{}, fmt.Errorf("cluster: proc spec %q: %w", part, err)
			}
			ranks = append(ranks, rs...)
		}
		topo.Procs = append(topo.Procs, nettrans.ProcSpec{Addr: addr, Ranks: ranks})
	}
	if len(topo.Procs) == 0 {
		return Topology{}, fmt.Errorf("cluster: empty topology spec")
	}
	return topo, nil
}

// resolveRole maps one role token onto world ranks.
func resolveRole(l Layout, role string) ([]int, error) {
	var pool []int
	var idx string
	switch {
	case strings.HasPrefix(role, "cn"):
		pool, idx = l.Compute, role[2:]
	case strings.HasPrefix(role, "ac"):
		pool, idx = l.Daemons, role[2:]
	case strings.HasPrefix(role, "arm"):
		pool, idx = l.ARM, role[3:]
	default:
		return nil, fmt.Errorf("unknown role %q", role)
	}
	if idx == "" {
		return pool, nil
	}
	lo, hi := idx, idx
	if a, b, ok := strings.Cut(idx, "-"); ok {
		lo, hi = a, b
	}
	from, err := strconv.Atoi(lo)
	if err != nil {
		return nil, fmt.Errorf("bad index in role %q", role)
	}
	to, err := strconv.Atoi(hi)
	if err != nil {
		return nil, fmt.Errorf("bad index in role %q", role)
	}
	if from < 0 || to >= len(pool) || from > to {
		return nil, fmt.Errorf("role %q out of range [0,%d)", role, len(pool))
	}
	return pool[from : to+1], nil
}

// Member is one process of a socket-mode deployment: a Cluster holding
// the ranks its topology entry assigns to it, wired to the rest over TCP
// and driven in real time.
type Member struct {
	*Cluster
	ProcID int

	tr       *nettrans.Transport
	quit     chan struct{}
	quitOnce sync.Once
	// loop is held while Run or Serve drives the simulation, so Stop ends
	// the run only once the loop has stopped; ended says it has.
	loop  sync.Mutex
	ended bool
}

// socketTimeout is the default request/payload timeout in socket mode.
// Blocking forever on a dead TCP peer is never acceptable, so zero
// ("wait forever") configs are promoted to this bound.
const socketTimeout = 2 * sim.Second

// StartProcess builds the process topo.Procs[procID] of a socket-mode
// deployment: the same cluster New builds, reduced to the ranks the
// topology assigns to this process, plus a TCP transport joining the
// other processes. Drive it with Run (processes hosting the application)
// or Serve (infrastructure-only processes), both of which own the
// real-time loop.
//
// Restriction against the in-sim builder: ARMReplicas is not supported —
// a follower's promotion mutates the shard directory, and every process
// holds its own copy. (A directory without followers is never written, so
// each process derives an identical one from cfg.)
func StartProcess(cfg Config, topo Topology, procID int) (*Member, error) {
	if cfg.ARMReplicas {
		return nil, fmt.Errorf("cluster: ARM replicas are not supported over sockets")
	}
	if procID < 0 || procID >= len(topo.Procs) {
		return nil, fmt.Errorf("cluster: proc id %d out of range [0,%d)", procID, len(topo.Procs))
	}
	env, err := resolveBuild(cfg)
	if err != nil {
		return nil, err
	}
	if env.opts.Timeout <= 0 {
		env.opts.Timeout = socketTimeout
	}
	if env.dcfg.PayloadTimeout <= 0 {
		env.dcfg.PayloadTimeout = socketTimeout
	}
	cl, err := build(cfg, env, topo.Procs[procID].Ranks)
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	if topo.Listeners != nil {
		ln = topo.Listeners[procID]
	}
	tr, err := nettrans.New(nettrans.Config{
		World:    cl.World,
		ProcID:   procID,
		Procs:    topo.Procs,
		Token:    topo.Token,
		Listener: ln,
	})
	if err != nil {
		return nil, err
	}
	cl.World.SetTransport(tr)
	return &Member{Cluster: cl, ProcID: procID, tr: tr, quit: make(chan struct{})}, nil
}

// Transport exposes the member's TCP transport (stats, WaitReady).
func (m *Member) Transport() *nettrans.Transport { return m.tr }

// Stop cuts the member off, closing its transport, winds Run or Serve down
// and, once the loop has stopped, ends the run (see minimpi.World.Close):
// the member cannot run again. Call it from outside the member's own loop.
func (m *Member) Stop() {
	m.quitOnce.Do(func() { m.tr.Close(); close(m.quit) })
	m.loop.Lock()
	defer m.loop.Unlock()
	if !m.ended {
		m.ended = true
		m.close()
	}
}

// Run drives a process hosting (part of) the application: the real-time
// loop runs until every spawned node main finishes and this member has
// performed the cluster teardown — auto-release of held accelerators,
// daemon and ARM shutdown — over the wire, tolerating unreachable peers
// (a dead daemon answers nothing; its timeout is the answer). Exactly one
// member of the topology should run the teardown: the one hosting compute
// node 0, by convention.
func (m *Member) Run() error { return m.drive("teardown", m.teardown) }

// Serve drives an infrastructure-only process (accelerator daemons, the
// ARM): the real-time loop runs until every hosted infrastructure process
// exits — daemons and managers leave when the application's teardown sends
// their shutdown over the wire — or Stop is called.
func (m *Member) Serve() error {
	return m.drive("serve-watch", func(p *sim.Proc) {
		for _, pr := range m.infraProcs {
			pr.Done().Await(p)
		}
	})
}

// drive runs the real-time loop until the process until has returned or
// Stop is called, then drains and closes the transport.
func (m *Member) drive(name string, until func(p *sim.Proc)) error {
	m.loop.Lock()
	defer m.loop.Unlock()
	if m.ended { // stopped before it ran: nothing to drive
		return nil
	}
	done := make(chan struct{})
	m.Sim.Spawn(name, func(p *sim.Proc) {
		defer close(done)
		until(p)
	})
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-m.quit:
		}
		close(stop)
	}()
	err := m.Sim.RunRealtime(stop)
	m.tr.Flush(2 * time.Second)
	m.tr.Close()
	return err
}
