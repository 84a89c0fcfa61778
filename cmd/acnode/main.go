// Command acnode serves the infrastructure ranks of a socket-mode
// accelerator cluster: the accelerator daemons and/or the resource
// manager that one process of the topology hosts. Start one acnode per
// infrastructure process, then run the application (e.g. cmd/acsoak with
// -topo/-proc) against the same topology; acnode exits when the
// application's teardown shuts its ranks down over the wire.
//
// Usage:
//
//	acnode -cn 1 -ac 2 \
//	    -topo "cn@127.0.0.1:7000;ac@127.0.0.1:7001;arm@127.0.0.1:7002" \
//	    -proc 1
//
// The cluster-shape flags (-cn, -ac, -share, -execute) and the
// topology string must be identical across every process of the cluster:
// they define the world-rank layout each peer claims during the
// connection handshake.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
)

func main() {
	var (
		topoSpec = flag.String("topo", "", `process table: "roles@host:port;..." (roles: cn, cn0, ac, ac0-1, arm)`)
		proc     = flag.Int("proc", -1, "index of this process in the topology")
		cn       = flag.Int("cn", 1, "compute nodes in the cluster")
		ac       = flag.Int("ac", 2, "accelerator nodes")
		share    = flag.Int("share", 0, "shared-lease capacity per accelerator (0 = exclusive only)")
		execute  = flag.Bool("execute", true, "run devices in execute mode (real data)")
		token    = flag.String("token", "", "connection token; must match on every process")
	)
	flag.Parse()
	if *topoSpec == "" || *proc < 0 {
		fmt.Fprintln(os.Stderr, "acnode: -topo and -proc are required")
		flag.Usage()
		os.Exit(2)
	}

	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cfg := cluster.Config{
		ComputeNodes:  *cn,
		Accelerators:  *ac,
		ShareCapacity: *share,
		Execute:       *execute,
		Registry:      reg,
	}
	topo, err := cluster.ParseTopology(cfg, *topoSpec)
	if err != nil {
		fatal(err)
	}
	topo.Token = *token

	m, err := cluster.StartProcess(cfg, topo, *proc)
	if err != nil {
		fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "acnode: interrupted, stopping")
		m.Stop()
	}()

	fmt.Fprintf(os.Stderr, "acnode: proc %d serving ranks %v on %s\n",
		*proc, topo.Procs[*proc].Ranks, m.Transport().Addr())
	if err := m.Serve(); err != nil {
		fatal(err)
	}
	st := m.Transport().Stats()
	fmt.Fprintf(os.Stderr, "acnode: done; frames sent %d recv %d, reconnects %d, handshake failures %d\n",
		st.FramesSent, st.FramesReceived, st.Reconnects, st.HandshakeFailures)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acnode: %v\n", err)
	os.Exit(1)
}
