// Package conformance runs the same scenarios against both ways of hosting
// the ranks and compares what comes out. At the transport level, one
// minimpi test battery — point-to-point, wildcards and probes, collectives,
// extras, owned-buffer handoff — runs on the in-sim backend (one world, one
// simulation) and on the socket backend (one single-rank world per process,
// wired over real loopback TCP). At the cluster level, one application —
// exclusive QR, a tenant session, leftovers for teardown — runs through
// cluster.New and through cluster.StartProcess × 3. A behavior difference
// between the backends is a bug by definition; the sim path is the oracle.
package conformance
