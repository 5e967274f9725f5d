// gateway runs one NTCS gateway as its own OS process, joining two or
// more TCP networks — "the same Gateway module ... used for all networks
// and machines" (paper §4.1). It boots the named entry of a topology
// file, the site configuration of §3.4 that every process of the
// deployment shares:
//
//	gateway -topo site.topo -proc gw1 [-http 127.0.0.1:7003] [-drain-timeout 5s]
//
// The entry carries the gateway's bindings and whether it is a prime
// gateway (prime=true claims a well-known UAdd every process preloads);
// the gateway registers with the Name Server so other modules discover
// the topology through the naming service. `ntcstopo -emit` writes a
// reference topology.
//
// SIGTERM drains gracefully (deregister, quiesce, flush); SIGINT exits
// directly.
package main

import "ntcs/internal/cli"

func main() { cli.Main("gateway") }
