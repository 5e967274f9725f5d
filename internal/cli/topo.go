package cli

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/machine"
)

// Topology is a declarative multi-process deployment: the site
// configuration file of §3.4 grown into the unit of deployment. One file
// describes every process of the system — name servers with their
// well-known slots and shard groups, gateways with their network
// bindings, application workers — and each cmd binary boots its own
// entry (-topo file -proc name) while deriving the shared well-known
// preload from the rest of the file. The 1986 testbed's hand-edited
// per-machine configuration, as one artifact.
type Topology struct {
	Procs []TopoProc
}

// Process kinds of a topology entry.
const (
	ProcNameServer = "nameserver"
	ProcGateway    = "gateway"
	ProcWorker     = "worker"
)

// TopoProc is one process of the deployment.
type TopoProc struct {
	// Kind is nameserver, gateway, or worker.
	Kind string
	// Name is the process (and module) name, unique in the topology.
	Name string
	// Machine is the simulated machine type of the process's host.
	Machine machine.Type
	// Bindings are the process's network attachments. Name servers and
	// prime gateways need explicit addresses (they are preloaded into
	// every other process); workers may bind ephemerally.
	Bindings []Binding
	// Slot is the well-known Name Server slot (name servers only):
	// UAdd = addr.NameServer + Slot, generated UAdds carry Slot+1.
	Slot int
	// Shard is the namespace partition the Name Server serves (name
	// servers only). Same-shard servers form a replica group.
	Shard int
	// Prime marks a gateway preloaded into the well-known tables (§3.4).
	Prime bool
	// PrimeUAdd is the assigned prime gateway UAdd (derived at parse
	// time from file order: first prime gets addr.PrimeGatewayBase).
	PrimeUAdd addr.UAdd
	// Role is the worker's application role attribute ("echo" workers
	// serve the echo protocol the harness drives).
	Role string
	// AntiEntropy is the Name Server's digest reconciliation interval
	// (0 = off); TombstoneTTL bounds dead-record retention (0 = forever).
	AntiEntropy  time.Duration
	TombstoneTTL time.Duration
}

// NetworkIDs returns the process's attached network IDs, in binding order.
func (p *TopoProc) NetworkIDs() []string {
	out := make([]string, 0, len(p.Bindings))
	for _, b := range p.Bindings {
		out = append(out, b.Network)
	}
	return out
}

// UAdd returns the process's preassigned well-known UAdd, or addr.Nil
// for workers and ordinary gateways.
func (p *TopoProc) UAdd() addr.UAdd {
	switch {
	case p.Kind == ProcNameServer:
		return addr.NameServer + addr.UAdd(p.Slot)
	case p.Kind == ProcGateway && p.Prime:
		return p.PrimeUAdd
	default:
		return addr.Nil
	}
}

// ParseTopology reads a topology file: one process per line,
//
//	<kind> <name> key=value ...
//
// with '#' comments and blank lines ignored. Keys: machine=, bind=
// (network=host:port, comma separated), networks= (ephemeral bindings by
// network ID), slot=, shard=, prime=, role=, anti-entropy= and
// tombstone-ttl= (non-negative durations; 0, the default, is off). The
// parsed topology is validated (unique names, unique slots, at most three
// replicas per shard group, contiguous shards, gateway network counts).
func ParseTopology(r io.Reader) (*Topology, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	t := &Topology{}
	primes := 0
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("cli: topology line %d: want <kind> <name> key=value..., got %q", i+1, line)
		}
		p := TopoProc{Kind: fields[0], Name: fields[1], Machine: machine.Apollo}
		switch p.Kind {
		case ProcNameServer, ProcGateway, ProcWorker:
		default:
			return nil, fmt.Errorf("cli: topology line %d: unknown kind %q", i+1, p.Kind)
		}
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("cli: topology line %d: %q is not key=value", i+1, kv)
			}
			switch key {
			case "machine":
				m, err := machine.ParseType(val)
				if err != nil {
					return nil, fmt.Errorf("cli: topology line %d: %v", i+1, err)
				}
				p.Machine = m
			case "bind":
				bs, err := ParseBindings(val)
				if err != nil {
					return nil, fmt.Errorf("cli: topology line %d: %v", i+1, err)
				}
				p.Bindings = append(p.Bindings, bs...)
			case "networks":
				for _, id := range strings.Split(val, ",") {
					if id = strings.TrimSpace(id); id != "" {
						p.Bindings = append(p.Bindings, Binding{Network: id})
					}
				}
			case "slot":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("cli: topology line %d: bad slot %q", i+1, val)
				}
				p.Slot = n
			case "shard":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("cli: topology line %d: bad shard %q", i+1, val)
				}
				p.Shard = n
			case "prime":
				b, err := strconv.ParseBool(val)
				if err != nil {
					return nil, fmt.Errorf("cli: topology line %d: bad prime %q", i+1, val)
				}
				p.Prime = b
			case "role":
				p.Role = val
			case "anti-entropy":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("cli: topology line %d: bad anti-entropy %q", i+1, val)
				}
				p.AntiEntropy = d
			case "tombstone-ttl":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("cli: topology line %d: bad tombstone-ttl %q", i+1, val)
				}
				p.TombstoneTTL = d
			default:
				return nil, fmt.Errorf("cli: topology line %d: unknown key %q", i+1, key)
			}
		}
		if p.Kind == ProcGateway && p.Prime {
			p.PrimeUAdd = addr.PrimeGatewayBase + addr.UAdd(primes)
			primes++
		}
		t.Procs = append(t.Procs, p)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseTopologyFile is ParseTopology over a file path.
func ParseTopologyFile(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTopology(f)
}

// Validate checks the deployment invariants. ParseTopology already ran
// it; call it again after programmatic edits (port assignment).
func (t *Topology) Validate() error {
	names := make(map[string]bool, len(t.Procs))
	slots := make(map[int]string)
	shardSizes := make(map[int]int)
	maxShard := -1
	primes := 0
	for i := range t.Procs {
		p := &t.Procs[i]
		if p.Name == "" {
			return fmt.Errorf("cli: topology: %s entry with empty name", p.Kind)
		}
		if names[p.Name] {
			return fmt.Errorf("cli: topology: duplicate process name %q", p.Name)
		}
		names[p.Name] = true
		if len(p.Bindings) == 0 {
			return fmt.Errorf("cli: topology: %q attaches to no network", p.Name)
		}
		seen := make(map[string]bool, len(p.Bindings))
		for _, b := range p.Bindings {
			if seen[b.Network] {
				return fmt.Errorf("cli: topology: %q binds network %q twice", p.Name, b.Network)
			}
			seen[b.Network] = true
		}
		switch p.Kind {
		case ProcNameServer:
			if p.Slot < 0 || p.Slot > int(addr.NameServerLimit-addr.NameServer) {
				return fmt.Errorf("cli: topology: %q slot %d outside the well-known range 0-%d",
					p.Name, p.Slot, int(addr.NameServerLimit-addr.NameServer))
			}
			if prev, dup := slots[p.Slot]; dup {
				return fmt.Errorf("cli: topology: %q and %q both claim name-server slot %d", prev, p.Name, p.Slot)
			}
			slots[p.Slot] = p.Name
			if p.Shard < 0 {
				return fmt.Errorf("cli: topology: %q has negative shard %d", p.Name, p.Shard)
			}
			shardSizes[p.Shard]++
			if shardSizes[p.Shard] > 3 {
				return fmt.Errorf("cli: topology: shard %d has more than three replicas (primary + two)", p.Shard)
			}
			if p.Shard > maxShard {
				maxShard = p.Shard
			}
		case ProcGateway:
			if len(p.Bindings) < 2 {
				return fmt.Errorf("cli: topology: gateway %q must join at least two networks", p.Name)
			}
			if p.Prime {
				primes++
			}
		}
	}
	// The namespace hash-partitions over max(Shard)+1 groups: a gap in
	// the shard numbering is an empty group every name hashing there
	// would fail against, so reject it at the file.
	for s := 0; s <= maxShard; s++ {
		if shardSizes[s] == 0 {
			return fmt.Errorf("cli: topology: shard %d has no name server (shards must be contiguous from 0)", s)
		}
	}
	if primes > int(addr.PrimeGatewayLimit-addr.PrimeGatewayBase)+1 {
		return fmt.Errorf("cli: topology: %d prime gateways exceed the well-known range", primes)
	}
	return nil
}

// Proc returns the named process entry.
func (t *Topology) Proc(name string) (*TopoProc, bool) {
	for i := range t.Procs {
		if t.Procs[i].Name == name {
			return &t.Procs[i], true
		}
	}
	return nil, false
}

// WellKnown derives the preload (§3.4) every process of this topology is
// born with: each Name Server entry with its slot, shard and serverID,
// and each prime gateway. It fails if a preloaded process still has an
// ephemeral binding — a preload with no address is unreachable by
// definition.
func (t *Topology) WellKnown() (addr.WellKnown, error) {
	var wk addr.WellKnown
	for i := range t.Procs {
		p := &t.Procs[i]
		preloaded := p.Kind == ProcNameServer || (p.Kind == ProcGateway && p.Prime)
		if !preloaded {
			continue
		}
		entry := addr.WellKnownEntry{Name: p.Name, UAdd: p.UAdd()}
		for _, b := range p.Bindings {
			if b.Addr == "" || strings.HasSuffix(b.Addr, ":0") {
				return wk, fmt.Errorf("cli: topology: preloaded %q needs an explicit address on %q", p.Name, b.Network)
			}
			entry.Endpoints = append(entry.Endpoints, addr.Endpoint{Network: b.Network, Addr: b.Addr, Machine: p.Machine})
		}
		if p.Kind == ProcNameServer {
			entry.Shard = p.Shard
			entry.ServerID = uint16(p.Slot + 1)
			wk.NameServers = append(wk.NameServers, entry)
		} else {
			wk.Gateways = append(wk.Gateways, entry)
		}
	}
	// Stable slot order: ShardForName et al. iterate the preload, and
	// every process must derive the identical shard map from one file.
	sort.SliceStable(wk.NameServers, func(i, j int) bool {
		return wk.NameServers[i].UAdd < wk.NameServers[j].UAdd
	})
	return wk, nil
}

// NSPeers returns the replica peers of the named Name Server: every
// other server in its shard group, the servers core.Module.JoinNameServers
// propagates its writes to. ntcstopo renders them; the boot itself reads
// the group from the preload.
func (t *Topology) NSPeers(name string) []*TopoProc {
	self, ok := t.Proc(name)
	if !ok || self.Kind != ProcNameServer {
		return nil
	}
	var out []*TopoProc
	for i := range t.Procs {
		p := &t.Procs[i]
		if p.Kind == ProcNameServer && p.Name != name && p.Shard == self.Shard {
			out = append(out, p)
		}
	}
	return out
}

// Format renders the topology back into the file form ParseTopology
// reads: emit and consume round-trip.
func (t *Topology) Format() string {
	var b strings.Builder
	b.WriteString("# NTCS topology — one process per line: <kind> <name> key=value ...\n")
	for i := range t.Procs {
		p := &t.Procs[i]
		fmt.Fprintf(&b, "%-10s %s machine=%s", p.Kind, p.Name, strings.ToLower(p.Machine.String()))
		switch p.Kind {
		case ProcNameServer:
			fmt.Fprintf(&b, " slot=%d shard=%d", p.Slot, p.Shard)
			if p.AntiEntropy > 0 {
				fmt.Fprintf(&b, " anti-entropy=%s", p.AntiEntropy)
			}
			if p.TombstoneTTL > 0 {
				fmt.Fprintf(&b, " tombstone-ttl=%s", p.TombstoneTTL)
			}
		case ProcGateway:
			if p.Prime {
				b.WriteString(" prime=true")
			}
		case ProcWorker:
			if p.Role != "" {
				fmt.Fprintf(&b, " role=%s", p.Role)
			}
		}
		explicit := make([]string, 0, len(p.Bindings))
		ephemeral := make([]string, 0, len(p.Bindings))
		for _, bind := range p.Bindings {
			if bind.Addr == "" {
				ephemeral = append(ephemeral, bind.Network)
			} else {
				explicit = append(explicit, bind.Network+"="+bind.Addr)
			}
		}
		if len(explicit) > 0 {
			fmt.Fprintf(&b, " bind=%s", strings.Join(explicit, ","))
		}
		if len(ephemeral) > 0 {
			fmt.Fprintf(&b, " networks=%s", strings.Join(ephemeral, ","))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
