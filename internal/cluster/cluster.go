// Package cluster assembles complete dynamic accelerator-cluster systems
// for simulation: compute nodes, accelerator nodes (each an energy-
// efficient CPU + RAM + NIC + GPU, paper Figure 2), the accelerator
// resource manager, and the shared interconnect (paper Figure 1).
//
// World-rank layout: ranks [0, ComputeNodes) are compute nodes, ranks
// [ComputeNodes, ComputeNodes+Accelerators) are accelerator daemons, and
// the last rank is the ARM. Applications get a compute-node-only
// communicator so their collectives never involve infrastructure ranks.
//
// For the paper's baselines the builder can also attach node-local GPUs
// directly to compute nodes ("CUDA local"), bypassing the network
// entirely.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dynacc/internal/arm"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// Config describes a cluster to build.
type Config struct {
	// ComputeNodes and Accelerators size the machine.
	ComputeNodes int
	Accelerators int

	// Net is the interconnect model; defaults to QDR InfiniBand.
	Net *netmodel.Params

	// Fleet assigns a device model per accelerator id, spares included:
	// comma-separated "model:count" groups resolved in order against the
	// gpu model registry (see ParseFleet), e.g.
	// "tesla-c1060:2,tesla-m2050:1,fpga:1". A fleet is heterogeneous: ARM
	// inventory handles are tagged with each device's capability
	// descriptor and placement becomes capability-aware. Empty, every
	// device, compute-node LocalGPUs included, is a Tesla C1060; a model of
	// one's own is registered with gpu.RegisterModel and named here.
	Fleet string

	// Registry resolves kernel names on every device (local and remote).
	Registry *gpu.Registry

	// Execute selects execute mode (real data) on all devices.
	Execute bool

	// Options configures the front-ends' copy protocols; defaults to the
	// paper's tuned protocols.
	Options *core.Options

	// Daemon tunes the back-end daemons.
	Daemon *core.DaemonConfig

	// Policy is the ARM queueing policy.
	Policy arm.Policy

	// ShareCapacity, when positive, lets the ARM grant shared leases
	// (arm.Client.AcquireShared): up to this many tenants per
	// accelerator, each isolated in its own daemon session. Zero keeps
	// the exclusive-only behavior.
	ShareCapacity int

	// LocalGPUs attaches this many node-local GPUs to every compute node
	// (the static-architecture baseline).
	LocalGPUs int

	// Health, when set, turns on the ARM's health subsystem: daemons
	// heartbeat to the ARM, silent daemons are detected, assignments
	// become leases, and reclaimed accelerators are sanitized through a
	// device reset before re-entering the pool. Every compute node runs
	// a watcher that reads the ARM's notices and live-migrates the node's
	// handles off a suspect daemon (device-to-device).
	Health *arm.HealthConfig

	// ARMShards > 1 splits resource management across that many ARM
	// shards: accelerator ownership is partitioned by consistent hashing
	// over accelerator ids, and the nodes' arm.Client routes each request
	// to the owning shard through the shared directory. 0 or 1 keeps the
	// single manager.
	ARMShards int

	// ARMReplicas gives every shard a follower replica that applies the
	// leader's replication stream and takes over (promoting itself in the
	// shared directory) when the leader goes silent. Implies leadership
	// epochs and reply dedup even with one shard.
	ARMReplicas bool

	// ARMPromoteAfter is the replication-stream silence threshold for
	// follower promotion; <= 0 derives it from the health config's
	// DeadAfter (or the default one's).
	ARMPromoteAfter sim.Duration

	// SpareAccelerators provisions this many extra accelerator nodes
	// (device + daemon, ranks just after the regular daemons) that start
	// OUTSIDE every ARM inventory. RegisterSpare admits them into the
	// live cluster — the elastic-growth path.
	SpareAccelerators int
}

// Node is the per-compute-node context handed to node main functions.
type Node struct {
	// Rank is the node's index among compute nodes; App is the
	// compute-node-only communicator (rank == App.Rank()).
	Rank int
	// World is the node's endpoint on the full world communicator
	// (compute nodes + daemons + ARM).
	World *minimpi.Comm
	// App spans only the compute nodes.
	App *minimpi.Comm
	// ARM is the resource-management API client. Handles still held when
	// the node's main returns are reset and released automatically at
	// teardown, the paper's "accelerators are automatically released once
	// the compute job is finished".
	ARM *NodeARM
	// FE is the computation-API front-end; attach acquired handles with
	// FE.Attach(handle.Rank).
	FE *core.Client
	// Local holds the node-local GPUs (empty unless Config.LocalGPUs).
	Local []*gpu.Device

	// sessions records the session-scoped attachments made through
	// AttachSession, so teardown can close them without device-resetting
	// shared accelerators under other tenants. The next AttachSession
	// drops the ones left with nothing on their daemon (closed) meanwhile.
	sessions []*core.Accel
}

// NodeARM wraps the resource-management client with acquisition
// bookkeeping so the cluster can enforce end-of-job release. The
// embedded arm.Client routes through the cluster's directory, whether
// that names a single manager or ARM shards and replicas.
type NodeARM struct {
	*arm.Client
	held map[int]arm.Handle
	fe   *core.Client // detaches the handles of a released grant
}

// hold records an acquire's grants for end-of-job cleanup.
func (na *NodeARM) hold(handles []arm.Handle, err error) ([]arm.Handle, error) {
	for _, h := range handles {
		na.held[h.ID] = h
	}
	return handles, err
}

// Acquire requests n exclusive accelerators (see arm.Client.Acquire) and
// records them for end-of-job cleanup.
func (na *NodeARM) Acquire(p *sim.Proc, n int, blocking bool) ([]arm.Handle, error) {
	return na.hold(na.Client.Acquire(p, n, blocking))
}

// AcquireShared requests shared leases on n accelerators (see
// arm.Client.AcquireShared) and records them for end-of-job cleanup.
func (na *NodeARM) AcquireShared(p *sim.Proc, n int, blocking bool) ([]arm.Handle, error) {
	return na.hold(na.Client.AcquireShared(p, n, blocking))
}

// AcquireCapable requests n exclusive accelerators matching a capability
// constraint (see arm.Client.AcquireCapable) and records them for
// end-of-job cleanup.
func (na *NodeARM) AcquireCapable(p *sim.Proc, n int, blocking bool, c arm.Constraint) ([]arm.Handle, error) {
	return na.hold(na.Client.AcquireCapable(p, n, blocking, c))
}

// Release returns accelerators to the pool (see arm.Client.Release), and
// the front-end's root-session handles on them are done with (a node
// holds one grant per accelerator at most).
func (na *NodeARM) Release(p *sim.Proc, handles []arm.Handle) error {
	err := na.Client.Release(p, handles)
	if err == nil {
		for _, h := range handles {
			delete(na.held, h.ID)
			na.fe.Detach(h.Rank)
		}
	}
	return err
}

// Replace implements core.Replacer: it reports the failed daemon rank to
// the ARM, swaps the bookkeeping entry, and returns the replacement's
// daemon rank. The front-end calls this during Client.Failover.
func (na *NodeARM) Replace(p *sim.Proc, failedRank int) (int, error) {
	h, err := na.Client.Replace(p, failedRank)
	if err != nil {
		return 0, err
	}
	na.swap(failedRank, h)
	return h.Rank, nil
}

// swap replaces the bookkeeping entries on oldRank with h.
func (na *NodeARM) swap(oldRank int, h arm.Handle) {
	for id, held := range na.held {
		if held.Rank == oldRank {
			delete(na.held, id)
		}
	}
	na.held[h.ID] = h
}

// Migrate trades the handle this node holds on oldRank for a spare (see
// arm.Client.Migrate) and swaps the bookkeeping entry.
func (na *NodeARM) Migrate(p *sim.Proc, oldRank int) (arm.Handle, error) {
	h, err := na.Client.Migrate(p, oldRank)
	if err != nil {
		return arm.Handle{}, err
	}
	na.swap(oldRank, h)
	return h, nil
}

// Held lists the handles this node still holds.
func (na *NodeARM) Held() []arm.Handle {
	ids := make([]int, 0, len(na.held))
	for id := range na.held {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]arm.Handle, 0, len(ids))
	for _, id := range ids {
		out = append(out, na.held[id])
	}
	return out
}

// Attach wraps an ARM handle with this node's front-end. The handle's
// grant epoch becomes the attachment's fencing token, so requests minted
// under a lease from a deposed ARM leader are rejected by daemons a
// promoted successor has already fenced (DESIGN.md §12).
func (n *Node) Attach(h arm.Handle) *core.Accel {
	ac := n.FE.Attach(h.Rank)
	ac.SetFence(h.Epoch)
	return ac
}

// AttachSession wraps an ARM handle with a session-scoped attachment:
// the daemon namespaces this node's device pointers, charges its
// allocations against core.Options.SessionQuota, and sanitizes only this
// session's state when it closes. Required for handles acquired with
// AcquireShared; also usable on exclusive ones. The session is closed
// automatically at teardown if still open. The fencing token is stamped
// before the session opens, so the open itself is fence-checked: a stale
// grant cannot admit a new tenant onto a daemon its successor owns.
func (n *Node) AttachSession(p *sim.Proc, h arm.Handle) (*core.Accel, error) {
	ac := n.Attach(h)
	if err := ac.OpenSession(p); err != nil {
		return nil, err
	}
	open := n.sessions[:0]
	for _, s := range n.sessions {
		if s.InUse() {
			open = append(open, s)
		}
	}
	clear(n.sessions[len(open):])
	n.sessions = append(open, ac)
	return ac, nil
}

// MigrateRank live-migrates this node's state off the daemon at oldRank:
// the ARM trades the assignment for a spare, then every attached handle
// on the old rank has its allocations copied device-to-device to the
// replacement and is atomically repointed. Intended for daemons the ARM
// reported *suspect* (arm.NoticeSuspect): a suspect daemon is not
// heartbeating, so the ARM will not sanitize the migration source
// underneath the copy. It returns the replacement handle.
func (n *Node) MigrateRank(p *sim.Proc, oldRank int) (arm.Handle, error) {
	h, err := n.ARM.Migrate(p, oldRank)
	if err != nil {
		return arm.Handle{}, err
	}
	_, err = n.FE.MigrateRank(p, oldRank, h.Rank)
	return h, err
}

// Cluster is a built system, ready to run node main functions: the whole
// machine in one simulation (New), or the ranks one process of a socket
// deployment hosts (StartProcess). Every per-rank table below is sized
// for the whole machine and holds nil where the rank lives elsewhere.
type Cluster struct {
	Sim     *sim.Simulation
	World   *minimpi.World
	Daemons []*core.Daemon
	cfg     Config
	env     buildEnv

	appGroup   *minimpi.Group
	nodes      []*Node
	mains      []*sim.Proc
	nodeMains  [][]*sim.Proc
	watchers   []*sim.Proc
	infraProcs []*sim.Proc

	// The resource-management plane. dir names who serves what and is
	// shared by the servers, the nodes' clients, the daemons' heartbeat
	// sinks and teardown; a single manager is its one-shard case
	// (arm.SingleDirectory).
	dir        *arm.Directory
	shardSrvs  []*arm.Server  // leader per shard
	shardReps  []*arm.Replica // follower per shard (Config.ARMReplicas)
	sanitizers []*core.Client // one per health-enabled server, in build order
}

// Directory returns the shard directory (one shard, no follower, for a
// single manager).
func (cl *Cluster) Directory() *arm.Directory { return cl.dir }

// ARMShardServer returns shard i's leader server (for fault injection
// and inspection in tests).
func (cl *Cluster) ARMShardServer(i int) *arm.Server { return cl.shardSrvs[i] }

// ARMShardReplica returns shard i's follower replica, or nil when the
// cluster was built without ARMReplicas.
func (cl *Cluster) ARMShardReplica(i int) *arm.Replica { return cl.shardReps[i] }

// KillARMShard crash-kills shard i's leader: its serving process stops at
// its next scheduling point and its calls in flight die with it, exactly
// like a manager-node panic. With ARMReplicas the shard's follower notices the
// silent replication stream and promotes itself; clients re-resolve
// through the directory and replay in-flight requests.
func (cl *Cluster) KillARMShard(i int) { cl.shardSrvs[i].Kill() }

// ARMRank returns the world rank the ARM (shard 0's leader) listens on.
func (cl *Cluster) ARMRank() int { return cl.dir.Leader(0) }

// DaemonRank returns the world rank accelerator daemon i listens on.
func (cl *Cluster) DaemonRank(i int) int { return cl.cfg.ComputeNodes + i }

// buildEnv holds the construction defaults a Config resolves to.
type buildEnv struct {
	net    netmodel.Params
	model  gpu.Model   // every device's model on a homogeneous cluster
	models []gpu.Model // per-accelerator models from Fleet (nil = homogeneous)
	reg    *gpu.Registry
	opts   core.Options
	dcfg   core.DaemonConfig
}

// resolveBuild validates a Config and resolves its defaults.
func resolveBuild(cfg Config) (buildEnv, error) {
	var env buildEnv
	if cfg.ComputeNodes <= 0 {
		return env, fmt.Errorf("cluster: need at least one compute node, got %d", cfg.ComputeNodes)
	}
	if cfg.Accelerators < 0 {
		return env, fmt.Errorf("cluster: negative accelerator count")
	}
	env.net = netmodel.QDRInfiniBand()
	if cfg.Net != nil {
		env.net = *cfg.Net
	}
	env.model = gpu.TeslaC1060()
	if cfg.Fleet != "" {
		models, err := ParseFleet(cfg.Fleet, cfg.Accelerators+cfg.SpareAccelerators)
		if err != nil {
			return env, err
		}
		env.models = models
	}
	env.reg = cfg.Registry
	if env.reg == nil {
		env.reg = gpu.NewRegistry()
	}
	env.opts = core.DefaultOptions()
	if cfg.Options != nil {
		env.opts = *cfg.Options
	}
	env.dcfg = core.DefaultDaemonConfig()
	if cfg.Daemon != nil {
		env.dcfg = *cfg.Daemon
	}
	return env, nil
}

// New builds (but does not run) a cluster with every rank in this one
// simulation: the one-process topology.
func New(cfg Config) (*Cluster, error) {
	env, err := resolveBuild(cfg)
	if err != nil {
		return nil, err
	}
	l := RankLayout(cfg)
	return build(cfg, env, slices.Concat(l.Compute, l.Daemons, l.ARM))
}

// build constructs the world and, of its ranks, the ones in local: every
// rank for New, one topology entry's for a process of a socket
// deployment. The order is fixed — accelerator nodes, then per shard the
// leader and its follower, then compute nodes — so what a simulation
// spawns, and in which order, depends only on which ranks it hosts.
func build(cfg Config, env buildEnv, local []int) (*Cluster, error) {
	s := sim.New()
	l := RankLayout(cfg)
	w, err := minimpi.NewWorld(s, l.Total, env.net)
	if err != nil {
		return nil, err
	}
	hosted := make([]bool, l.Total)
	for _, r := range local {
		if r < 0 || r >= l.Total {
			return nil, fmt.Errorf("cluster: rank %d outside world [0,%d)", r, l.Total)
		}
		hosted[r] = true
	}
	// The directory must exist before the daemons: their heartbeat sinks
	// resolve the serving rank through it.
	dir := l.directory(cfg.ARMReplicas)
	cl := &Cluster{Sim: s, World: w, cfg: cfg, env: env, dir: dir,
		nodeMains: make([][]*sim.Proc, cfg.ComputeNodes),
		Daemons:   make([]*core.Daemon, len(l.Daemons)),
		nodes:     make([]*Node, cfg.ComputeNodes),
		shardSrvs: make([]*arm.Server, dir.Shards()),
		shardReps: make([]*arm.Replica, dir.Shards())}
	cl.appGroup, err = w.NewGroup(l.Compute)
	if err != nil {
		return nil, err
	}

	// Accelerator nodes: device + daemon per rank. Spares get the same
	// hardware but start outside every ARM inventory.
	for i, rank := range l.Daemons {
		if hosted[rank] {
			if err := cl.addAccelNode(i); err != nil {
				return nil, err
			}
		}
	}

	// The ARM: ownership of the regular accelerators — listed in full
	// whether or not their daemons live here — partitioned by the
	// directory's consistent-hash ring, one leader (and optionally one
	// follower) per shard. A single manager owns everything.
	inventory := make([][]arm.Handle, dir.Shards())
	for id := 0; id < cfg.Accelerators; id++ {
		sh := dir.OwnerOf(id)
		inventory[sh] = append(inventory[sh], env.inventoryHandle(cfg.ComputeNodes, id))
	}
	for sh, inv := range inventory {
		srvOpts := arm.Options{Policy: cfg.Policy, ShareCapacity: cfg.ShareCapacity, Shard: sh, Directory: dir}
		if hosted[dir.Leader(sh)] {
			srv, err := arm.NewServerOpts(w.Comm(dir.Leader(sh)), inv, srvOpts)
			if err != nil {
				return nil, err
			}
			if err := cl.armHealthSetup(srv, dir.Leader(sh)); err != nil {
				return nil, err
			}
			cl.shardSrvs[sh] = srv
			cl.infraProcs = append(cl.infraProcs, s.Spawn(fmt.Sprintf("arm-s%d", sh), srv.Run))
		}
		if cfg.ARMReplicas && hosted[dir.Follower(sh)] {
			rp, err := arm.ReplicaFor(w.Comm(dir.Follower(sh)), dir, sh, inv, srvOpts, cfg.ARMPromoteAfter)
			if err != nil {
				return nil, err
			}
			// The follower gets its own sanitizer front-end (on its own
			// rank) now, so a promotion needs no extra wiring.
			if err := cl.armHealthSetup(rp.Server(), dir.Follower(sh)); err != nil {
				return nil, err
			}
			cl.shardReps[sh] = rp
			s.Spawn(fmt.Sprintf("arm-s%d-replica", sh), rp.Run)
		}
	}

	for _, i := range l.Compute {
		if hosted[i] {
			if err := cl.addComputeNode(i); err != nil {
				return nil, err
			}
		}
	}
	return cl, nil
}

// addAccelNode builds accelerator node i — device plus daemon on world
// rank ComputeNodes+i — and starts the daemon.
func (cl *Cluster) addAccelNode(i int) error {
	rank := cl.cfg.ComputeNodes + i
	dev, err := gpu.NewDevice(cl.Sim, gpu.Config{
		Name:     fmt.Sprintf("ac%d", i),
		Model:    cl.env.modelFor(i),
		Registry: cl.env.reg,
		Execute:  cl.cfg.Execute,
	})
	if err != nil {
		return err
	}
	d := core.NewDaemon(cl.World.Comm(rank), dev, cl.daemonConfig(rank))
	cl.Daemons[i] = d
	cl.infraProcs = append(cl.infraProcs, cl.Sim.Spawn(fmt.Sprintf("daemon-ac%d", i), d.Run))
	return nil
}

// directory builds the resource-management directory the layout
// implies: the single manager for one ARM rank, otherwise a sharded
// plane over the ARM ranks — the leaders first, then (with replicas) one
// follower per shard. Without followers it is a pure function of the
// Config, so every process of a socket-mode deployment derives its own.
func (l Layout) directory(replicas bool) *arm.Directory {
	if len(l.ARM) == 1 {
		return arm.SingleDirectory(l.ARM[0])
	}
	shards, followers := len(l.ARM), []int(nil)
	if replicas {
		shards /= 2
		followers = l.ARM[shards:]
	}
	return arm.NewDirectory(arm.NewRing(shards), l.ARM[:shards], followers)
}

// addComputeNode builds compute node i: its computation-API front-end,
// resource-management client, optional health watcher and local GPUs.
func (cl *Cluster) addComputeNode(i int) error {
	cfg := cl.cfg
	worldComm := cl.World.Comm(i)
	fe, err := core.NewClient(worldComm, cl.env.opts)
	if err != nil {
		return err
	}
	api := arm.NewDirectoryClient(worldComm, cl.dir)
	if cfg.ARMReplicas {
		// Give calls twice the promotion threshold of silence before
		// replaying, so a live-but-slow leader is never raced by its own
		// client.
		api.SetFailover(2*cl.promoteThreshold(), 64)
	}
	node := &Node{
		Rank:  i,
		World: worldComm,
		App:   cl.appGroup.Comm(i),
		ARM:   &NodeARM{Client: api, held: make(map[int]arm.Handle), fe: fe},
		FE:    fe,
	}
	fe.SetReplacer(node.ARM)
	if cfg.Health != nil {
		// The watcher reacts to the ARM's suspect notices by migrating
		// this node's handles off the silent daemon — the application
		// never has to notice, let alone call Failover.
		wp := cl.Sim.Spawn(fmt.Sprintf("cn%d-health-watch", i), func(p *sim.Proc) {
			for {
				nt, err := node.ARM.RecvNotice(p)
				if err != nil {
					return
				}
				if nt.Kind != arm.NoticeSuspect {
					continue
				}
				// Best effort: with no spare free (or the handle already
				// gone) the node limps on and Failover remains the net.
				_, _ = node.MigrateRank(p, nt.Rank)
			}
		})
		cl.watchers = append(cl.watchers, wp)
	}
	for g := 0; g < cfg.LocalGPUs; g++ {
		dev, err := gpu.NewDevice(cl.Sim, gpu.Config{
			Name:     fmt.Sprintf("cn%d-gpu%d", i, g),
			Model:    cl.env.model,
			Registry: cl.env.reg,
			Execute:  cfg.Execute,
		})
		if err != nil {
			return err
		}
		node.Local = append(node.Local, dev)
	}
	cl.nodes[i] = node
	return nil
}

// armHealthSetup configures the health subsystem on an ARM server (a
// single manager, a shard leader, or a shard follower) with a sanitizer
// front-end living on the server's own rank.
func (cl *Cluster) armHealthSetup(srv *arm.Server, serverRank int) error {
	cfg := cl.cfg
	if cfg.Health == nil {
		return nil
	}
	if err := srv.ConfigureHealth(*cfg.Health); err != nil {
		return err
	}
	// The sanitizer: a computation-API client on the ARM's own rank
	// that device-resets a reclaimed accelerator before it re-enters
	// the pool. Bounded timeout — the daemon being sanitized may be
	// the one that just went silent.
	sanOpts := cl.env.opts
	if sanOpts.Timeout <= 0 {
		switch {
		case cfg.Health.SuspectAfter > 0:
			sanOpts.Timeout = cfg.Health.SuspectAfter
		case cfg.Health.HeartbeatInterval > 0:
			sanOpts.Timeout = 4 * cfg.Health.HeartbeatInterval
		default:
			sanOpts.Timeout = 10 * sim.Millisecond
		}
	}
	sanFE, err := core.NewClient(cl.World.Comm(serverRank), sanOpts)
	if err != nil {
		return err
	}
	cl.sanitizers = append(cl.sanitizers, sanFE)
	// One handle per daemon rank serves every call of the ARM's daemon hook,
	// for the life of the server: a reap or a fence leaves the handle listed
	// on sanFE, so a fresh Attach per call would grow that list without
	// bound. Each call carries the server's epoch as its fencing token, and
	// a daemon's fenced rejection is translated into arm.ErrFenced so the
	// server recognizes its own deposition. A reset sanitizes; a reap closes
	// one client's sessions, and a fence is the reap of the server's own
	// rank — a no-op on the device (the ARM never opens tenant sessions),
	// but fence-checked, so the daemon both records the new high-water mark
	// and tells a server whose epoch is already stale that it, too, has been
	// deposed.
	handles := make(map[int]*core.Accel)
	srv.SetDaemonCaller(func(op arm.DaemonOp, rank, client int, epoch uint64, done func(error)) *minimpi.Call {
		ac := handles[rank]
		if ac == nil {
			ac = sanFE.Attach(rank)
			handles[rank] = ac
		}
		ac.SetFence(epoch)
		then := func(err error) {
			if errors.Is(err, core.ErrFenced) {
				err = fmt.Errorf("cluster: daemon op %d on rank %d: %w", op, rank, arm.ErrFenced)
			}
			done(err)
		}
		if op == arm.DaemonReset {
			return ac.ResetAsync(then)
		}
		return ac.ReapSessionsAsync(client, then)
	})
	return nil
}

// daemonConfig returns the daemon configuration for the given world
// rank, wiring the heartbeat sink to the ARM when health is on. The sink
// re-resolves the owning shard's serving rank on every beat, so
// heartbeats follow a failover to the promoted follower.
func (cl *Cluster) daemonConfig(rank int) core.DaemonConfig {
	dc := cl.env.dcfg
	if cl.cfg.Health != nil && cl.cfg.Health.HeartbeatInterval > 0 {
		comm, dir, id, w := cl.World.Comm(rank), cl.dir, rank-cl.cfg.ComputeNodes, wire.NewWriter(64)
		dc.HeartbeatInterval = cl.cfg.Health.HeartbeatInterval
		dc.Heartbeat = func(active []int) {
			comm.SendCopy(dir.RankFor(id), arm.TagRequest, arm.EncodeHeartbeat(w, active))
		}
	}
	return dc
}

// Spawn registers main as compute node i's process; the node must be
// hosted by this cluster. Call before Run.
func (cl *Cluster) Spawn(i int, main func(p *sim.Proc, n *Node)) error {
	if i < 0 || i >= len(cl.nodes) || cl.nodes[i] == nil {
		return fmt.Errorf("cluster: compute node %d is not hosted here", i)
	}
	node := cl.nodes[i]
	proc := cl.Sim.Spawn(fmt.Sprintf("cn%d", i), func(p *sim.Proc) { main(p, node) })
	cl.mains = append(cl.mains, proc)
	cl.nodeMains[i] = append(cl.nodeMains[i], proc)
	return nil
}

// SpawnAll registers the same main on every compute node hosted here
// (SPMD style).
func (cl *Cluster) SpawnAll(main func(p *sim.Proc, n *Node)) {
	for i, n := range cl.nodes {
		if n != nil {
			cl.Spawn(i, main)
		}
	}
}

// Run executes the simulation: node mains run to completion, then the
// infrastructure (daemons, ARM) is shut down, and the run ends (see
// minimpi.World.Close). It returns the first simulation error, or else
// Close's report of what is still out, and the final virtual time.
func (cl *Cluster) Run() (sim.Time, error) {
	cl.Sim.Spawn("teardown", cl.teardown)
	err := cl.Sim.Run()
	if report := cl.close(); err == nil {
		err = report
	}
	return cl.Sim.Now(), err
}

// close ends the run: the daemons, front-ends and ARM servers hosted here
// hand their free records and reply caches to the OS process's depots, then
// the World does. It reports the front-ends with calls out and the records
// still out. Nothing here may run again.
func (cl *Cluster) close() error {
	for _, d := range cl.Daemons {
		if d != nil {
			d.EndRun()
		}
	}
	var calls string
	endFE := func(fe *core.Client) {
		fe.EndRun()
		if n := fe.CallsOut(); n != 0 {
			calls += fmt.Sprintf("; rank %d's front-end: %d", fe.Comm().Rank(), n)
		}
	}
	for _, n := range cl.nodes {
		if n != nil {
			endFE(n.FE)
		}
	}
	for _, c := range cl.sanitizers {
		endFE(c)
	}
	for sh, srv := range cl.shardSrvs {
		if srv != nil {
			srv.EndRun()
		}
		if rp := cl.shardReps[sh]; rp != nil {
			rp.Server().EndRun()
		}
	}
	report := cl.World.Close()
	if calls == "" {
		return report
	}
	if report != nil {
		calls += "; " + report.Error()
	}
	return errors.New("cluster: calls still out at Close" + calls)
}

// teardown waits for the node mains, auto-releases what they still hold
// and shuts the infrastructure down. Every request's target is judged by
// what this process can observe of it. A daemon or ARM server hosted here
// is inspected first — one that is dead gets no request — and an error
// from one that is alive is a bug, so it panics. One hosted elsewhere can
// only be tried: an error (its timeout, typically) means unreachable and
// teardown moves on. Either way an accelerator that could not be wiped is
// reported failed, never released as clean.
func (cl *Cluster) teardown(p *sim.Proc) {
	for _, m := range cl.mains {
		m.Done().Await(p)
	}
	// The health watchers would otherwise block in RecvNotice forever
	// (and could race teardown's use of the same ARM clients).
	for _, wp := range cl.watchers {
		wp.Kill()
	}
	var lead *Node // the first node hosted here runs the shutdowns
	for _, n := range cl.nodes {
		if n == nil {
			continue
		}
		if lead == nil {
			lead = n
		}
		// Close leftover sessions first: a session close sanitizes only
		// that session's allocations, so shared accelerators are never
		// device-reset under surviving tenants.
		var unwiped []int // daemon ranks a session close did not get through to
		for _, ac := range n.sessions {
			d := cl.daemonAt(ac.Rank())
			closed := !broken(d)
			if closed {
				err := ac.CloseSession(p)
				closed = errors.Is(err, core.ErrNoSession) || settle(d != nil, "auto-release session close", err)
			}
			if !closed {
				unwiped = append(unwiped, ac.Rank())
			}
		}
		leftovers := n.ARM.Held()
		if len(leftovers) == 0 {
			continue
		}
		for _, h := range leftovers {
			d := cl.daemonAt(h.Rank)
			clean := !broken(d) && !slices.Contains(unwiped, h.Rank)
			if clean && !h.Shared {
				// (The node's state on a shared accelerator lives in its
				// sessions, wiped above; a device-wide reset would take
				// the other tenants' memory with it.)
				clean = settle(d != nil, "auto-release reset", n.FE.Attach(h.Rank).Reset(p))
			}
			if !clean {
				err := n.ARM.Fail(p, h.ID)
				settle(cl.armHosted(h.ID) && err != arm.ErrBadRequest, "auto-release fail report", err)
			}
		}
		if err := n.ARM.Release(p, leftovers); err != nil {
			// The batch can be stale when the health subsystem revoked
			// a lease behind the node's back (expiry, forced drain):
			// release what is still ours, one by one.
			for _, h := range leftovers {
				err := n.ARM.Release(p, []arm.Handle{h})
				settle(cl.armHosted(h.ID) && err != arm.ErrBadRequest, "auto-release", err)
			}
		}
	}
	if lead == nil {
		return // nothing hosted here runs the application; no teardown to lead
	}
	var dead []int // ranks crash-killed and not restarted
	for i, d := range cl.Daemons {
		if d != nil && !d.Alive() {
			dead = append(dead, cl.DaemonRank(i))
			continue // killed by fault injection; nothing to stop
		}
		// Shutdown through the regular protocol, from the lead's front-end.
		settle(d != nil, "daemon shutdown", lead.FE.Attach(cl.DaemonRank(i)).Shutdown(p))
	}
	// Standby followers first: once the leaders stop beating, a
	// surviving follower would promote itself into an empty cluster
	// and tick forever.
	for _, rp := range cl.shardReps {
		if rp != nil {
			rp.Stop() // no-op on promoted replicas
		}
	}
	for sh, srv := range cl.shardSrvs {
		// A deposed leader that was never crash-killed (a partition, not
		// a crash) receives no shutdown — nothing routes to it — so it
		// is stopped like the stale process it is.
		if srv != nil && cl.dir.Serving(sh) != cl.dir.Leader(sh) && !srv.Closed() {
			srv.Kill()
		}
		if srv != nil && srv.Closed() {
			dead = append(dead, cl.dir.Leader(sh))
		}
	}
	for sh, srv := range cl.shardSrvs {
		if rp := cl.shardReps[sh]; rp != nil && rp.Promoted() {
			srv = rp.Server()
		}
		if srv != nil && srv.Closed() {
			continue // crash-killed by the test; nothing to stop
		}
		settle(srv != nil, fmt.Sprintf("arm shard %d shutdown", sh), lead.ARM.ShutdownShard(p, sh))
	}
	// Envelopes sent to a dead rank would stay out of the record pools for
	// good: drop them, as RestartDaemon does.
	for _, r := range dead {
		cl.World.ResetEndpoint(r)
	}
}

// settle takes the outcome of one teardown request: an error from a peer
// hosted in this simulation is fatal, one from a remote peer means the
// peer is unreachable. It reports whether the request succeeded.
func settle(fatal bool, what string, err error) bool {
	if err != nil && fatal {
		panic(fmt.Sprintf("cluster: %s: %v", what, err))
	}
	return err == nil
}

// broken reports whether a daemon hosted here (non-nil) is observably
// unable to wipe its device: crash-killed, or its device failed.
func broken(d *core.Daemon) bool {
	return d != nil && (!d.Alive() || d.Device().Failed() != nil)
}

// armHosted reports whether the shard owning accelerator id serves here.
func (cl *Cluster) armHosted(id int) bool { return cl.shardSrvs[cl.dir.OwnerOf(id)] != nil }

// daemonAt returns the daemon hosted here on a world rank, or nil.
func (cl *Cluster) daemonAt(rank int) *core.Daemon {
	i := rank - cl.cfg.ComputeNodes
	if i < 0 || i >= len(cl.Daemons) {
		return nil
	}
	return cl.Daemons[i]
}

// KillDaemon crash-kills accelerator daemon i: every process it is
// running stops at its next scheduling point and in-flight requests are
// abandoned, exactly like a daemon segfault. Clients discover the death
// through request timeouts. Service on the rank can be restored with
// RestartDaemon.
func (cl *Cluster) KillDaemon(i int) { cl.Daemons[i].Kill() }

// KillClient crash-kills compute node i's main process(es) mid-job, the
// way a node panic would: in-flight work is abandoned and — crucially —
// the accelerators the node held are NOT released (a dead process
// releases nothing). With the health subsystem on, the ARM reclaims them
// when their leases expire; without it they leak, which is exactly the
// robustness gap the leases close.
func (cl *Cluster) KillClient(i int) {
	for _, m := range cl.nodeMains[i] {
		m.Kill()
	}
	// The crashed process's bookkeeping dies with it: teardown must not
	// try to release handles (or close sessions) on the dead node's
	// behalf — with the health subsystem on, lease expiry reaps them.
	cl.nodes[i].ARM.held = make(map[int]arm.Handle)
	cl.nodes[i].sessions = nil
}

// DrainDaemon gracefully retires accelerator daemon i via node n's ARM
// client: the ARM stops granting the accelerator, waits (bounded by
// deadline, when positive) for the current holder to release it, then
// retires it — and once the ARM no longer hands it out, the daemon
// itself is shut down through the regular protocol.
func (cl *Cluster) DrainDaemon(p *sim.Proc, n *Node, i int, deadline sim.Duration) error {
	if err := n.ARM.Drain(p, i, deadline); err != nil {
		return err
	}
	return cl.stopDaemon(p, n, i)
}

// stopDaemon shuts accelerator daemon i down through the regular
// protocol, unless it is hosted here and already dead.
func (cl *Cluster) stopDaemon(p *sim.Proc, n *Node, i int) error {
	if d := cl.Daemons[i]; d != nil && !d.Alive() {
		return nil
	}
	return n.FE.Attach(cl.DaemonRank(i)).Shutdown(p)
}

// promoteThreshold resolves the follower-promotion silence threshold the
// replicas were built with (mirrors arm.Replica's own resolution).
func (cl *Cluster) promoteThreshold() sim.Duration {
	if cl.cfg.ARMPromoteAfter > 0 {
		return cl.cfg.ARMPromoteAfter
	}
	if cl.cfg.Health != nil && cl.cfg.Health.DeadAfter > 0 {
		return cl.cfg.Health.DeadAfter
	}
	return arm.DefaultHealthConfig().DeadAfter
}

// RegisterSpare admits spare accelerator node i (provisioned via
// Config.SpareAccelerators, already running its daemon) into the live
// cluster through node n's ARM client, and returns its handle. The
// accelerator id continues the regular numbering, so id == Daemons index
// still holds everywhere.
func (cl *Cluster) RegisterSpare(p *sim.Proc, n *Node, i int) (arm.Handle, error) {
	if i < 0 || i >= cl.cfg.SpareAccelerators {
		return arm.Handle{}, fmt.Errorf("cluster: no spare accelerator %d", i)
	}
	id := cl.cfg.Accelerators + i
	h := cl.env.inventoryHandle(cl.cfg.ComputeNodes, id)
	// A zero capability (homogeneous fleet) makes this the plain Register.
	if err := n.ARM.RegisterCapable(p, h.ID, h.Rank, h.Cap); err != nil {
		return arm.Handle{}, err
	}
	return h, nil
}

// RetireDaemon elastically shrinks the cluster: the ARM drains
// accelerator i (bounded by deadline, when positive), removes it from
// the inventory for good, and the daemon itself is then shut down
// through the regular protocol. The inverse of RegisterSpare.
func (cl *Cluster) RetireDaemon(p *sim.Proc, n *Node, i int, deadline sim.Duration) error {
	if err := n.ARM.Retire(p, i, deadline); err != nil {
		return err
	}
	return cl.stopDaemon(p, n, i)
}

// RestartDaemon replaces a killed daemon i with a fresh one on the same
// rank and device, modeling an accelerator-node reboot: the NIC endpoint
// state is discarded, engines stranded by the crash are released, device
// memory is wiped, and the fencing mark is kept. No-op while it is alive.
func (cl *Cluster) RestartDaemon(p *sim.Proc, i int) {
	old := cl.Daemons[i]
	if old.Alive() {
		return
	}
	rank := old.Rank()
	cl.World.ResetEndpoint(rank)
	dev := old.Device()
	dev.ResetEngines()
	dev.Reset(p)
	d := old.Restart(cl.World.Comm(rank), cl.daemonConfig(rank))
	cl.Daemons[rank-cl.cfg.ComputeNodes] = d
	cl.Sim.Spawn(fmt.Sprintf("daemon-ac%d", rank-cl.cfg.ComputeNodes), d.Run)
}
