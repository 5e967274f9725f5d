// nameserver runs one NTCS Name Server replica (paper §3) as its own OS
// process over real TCP. It boots the named entry of a topology file,
// the site configuration of §3.4 that every process of the deployment
// shares:
//
//	nameserver -topo site.topo -proc ns0 [-http 127.0.0.1:7001] [-drain-timeout 5s]
//
// The entry carries the server's well-known slot (its UAdd is
// NameServer+slot, and its generated UAdds carry slot+1 as the server
// identifier, which routes UAdd-keyed requests back to it in a sharded
// deployment), its shard group, its bindings, and its anti-entropy and
// tombstone-ttl settings. The server seeds a record for every other name
// server in the file and replicates its writes to the servers of its own
// shard group. `ntcstopo -emit` writes a reference topology.
//
// SIGTERM drains gracefully (the record's tombstone keeps §3.5 forwarding
// intact); SIGINT detaches directly.
package main

import "ntcs/internal/cli"

func main() { cli.Main("nameserver") }
