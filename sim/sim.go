// Package sim builds simulated URSA testbeds: machines of different
// types, disjoint networks (in-memory, TCP, or MBX), name servers, prime
// gateways, and application modules — the deployment side of the NTCS
// that the 1986 project did by hand across Apollo, VAX and Sun systems.
//
// A World owns the networks and the well-known address configuration
// (§3.4) that every module is born with. The intended order mirrors the
// real bootstrap: create networks and hosts, start the Name Server, start
// the prime gateways, then attach application modules.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/mbx"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/ipcs/tcpnet"
	"ntcs/internal/machine"
	"ntcs/internal/nameserver"
	"ntcs/internal/stats"
)

// Host is a simulated machine: a machine type plus network attachments.
type Host struct {
	Name     string
	Machine  machine.Type
	Networks []ipcs.Network
}

// NetworkIDs returns the IDs of the host's attached networks.
func (h *Host) NetworkIDs() []string {
	out := make([]string, len(h.Networks))
	for i, n := range h.Networks {
		out[i] = n.ID()
	}
	return out
}

// World is one simulated testbed.
type World struct {
	mu          sync.Mutex
	networks    map[string]ipcs.Network
	hosts       map[string]*Host
	wellKnown   addr.WellKnown
	modules     []*core.Module
	nameServers []*core.Module
	nsShards    []int // shard group per nameServers entry
	nextGW      addr.UAdd
	nextNS      int
	hintSeq     int

	// Name-server tuning applied to servers started afterwards.
	nsAntiEntropy  time.Duration
	nsTombstoneTTL time.Duration
}

// NewWorld creates an empty testbed.
func NewWorld() *World {
	return &World{
		networks: make(map[string]ipcs.Network),
		hosts:    make(map[string]*Host),
		nextGW:   addr.PrimeGatewayBase,
	}
}

// AddNetwork creates an in-memory simulated network.
func (w *World) AddNetwork(id string, opts memnet.Options) *memnet.Net {
	n := memnet.New(id, opts)
	w.putNetwork(n)
	return n
}

// AddTCPNetwork creates a loopback-TCP network.
func (w *World) AddTCPNetwork(id string) *tcpnet.Net {
	n := tcpnet.New(id)
	w.putNetwork(n)
	return n
}

// AddMBXNetwork creates an Apollo-MBX-style mailbox network.
func (w *World) AddMBXNetwork(id string, opts mbx.Options) *mbx.Registry {
	n := mbx.New(id, opts)
	w.putNetwork(n)
	return n
}

func (w *World) putNetwork(n ipcs.Network) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.networks[n.ID()] = n
}

// Network returns a previously added network.
func (w *World) Network(id string) (ipcs.Network, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, ok := w.networks[id]
	return n, ok
}

// AddHost creates a simulated machine attached to the named networks.
func (w *World) AddHost(name string, m machine.Type, networkIDs ...string) (*Host, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.hosts[name]; dup {
		return nil, fmt.Errorf("sim: host %q already exists", name)
	}
	h := &Host{Name: name, Machine: m}
	for _, id := range networkIDs {
		n, ok := w.networks[id]
		if !ok {
			return nil, fmt.Errorf("sim: no network %q", id)
		}
		h.Networks = append(h.Networks, n)
	}
	if len(h.Networks) == 0 {
		return nil, errors.New("sim: host needs at least one network")
	}
	w.hosts[name] = h
	return h, nil
}

// MustHost is AddHost for test and example setup code.
func (w *World) MustHost(name string, m machine.Type, networkIDs ...string) *Host {
	h, err := w.AddHost(name, m, networkIDs...)
	if err != nil {
		panic(err)
	}
	return h
}

// WellKnown returns the current well-known preload every subsequently
// attached module receives.
func (w *World) WellKnown() addr.WellKnown {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wellKnown
}

// hints builds unique endpoint hints appropriate to each network type.
func (w *World) hints(h *Host, moduleName string) map[string]string {
	w.mu.Lock()
	w.hintSeq++
	seq := w.hintSeq
	w.mu.Unlock()
	hints := make(map[string]string, len(h.Networks))
	for _, n := range h.Networks {
		switch n.(type) {
		case *mbx.Registry:
			hints[n.ID()] = fmt.Sprintf("/nodes/%s/%s.%d", h.Name, moduleName, seq)
		case *tcpnet.Net:
			hints[n.ID()] = "" // ephemeral port
		default:
			hints[n.ID()] = fmt.Sprintf("%s.%s.%d", h.Name, moduleName, seq)
		}
	}
	return hints
}

func (w *World) track(m *core.Module) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.modules = append(w.modules, m)
}

// Modules returns every module the world has started, in start order.
func (w *World) Modules() []*core.Module {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*core.Module(nil), w.modules...)
}

// Snapshots returns a point-in-time metrics snapshot per tracked module.
func (w *World) Snapshots() []stats.Snapshot {
	mods := w.Modules()
	out := make([]stats.Snapshot, 0, len(mods))
	for _, m := range mods {
		out = append(out, m.Stats().Snapshot())
	}
	return out
}

// StatsTotals merges every tracked module's counters and gauges into one
// world-wide snapshot: the aggregate the chaos reports diff per episode.
func (w *World) StatsTotals() stats.Snapshot {
	total := stats.Snapshot{
		Module:   "world",
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
	}
	for _, s := range w.Snapshots() {
		for name, v := range s.Counters {
			total.Counters[name] += v
		}
		for name, v := range s.Gauges {
			total.Gauges[name] += v
		}
	}
	return total
}

// SetNameServerTuning configures anti-entropy and tombstone GC for name
// servers started afterwards (zero leaves each loop off).
func (w *World) SetNameServerTuning(antiEntropy, tombstoneTTL time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nsAntiEntropy = antiEntropy
	w.nsTombstoneTTL = tombstoneTTL
}

// StartNameServer boots a Name Server replica in shard group 0: the
// unsharded configuration every pre-shard test uses.
func (w *World) StartNameServer(h *Host, name string) (*core.Module, error) {
	return w.StartNameServerShard(h, name, 0)
}

// StartNameServerShard boots a Name Server replica in the given shard
// group and adds it to the well-known preload. The namespace is
// hash-partitioned across shard groups; each group is internally
// replicated (at most three replicas: primary + two). Modules attached
// after all servers are up see the full shard map.
func (w *World) StartNameServerShard(h *Host, name string, shard int) (*core.Module, error) {
	w.mu.Lock()
	if shard < 0 {
		w.mu.Unlock()
		return nil, fmt.Errorf("sim: negative shard %d", shard)
	}
	if w.nextNS > int(addr.NameServerLimit-addr.NameServer) {
		w.mu.Unlock()
		return nil, errors.New("sim: well-known name server addresses exhausted")
	}
	inGroup := 0
	for _, e := range w.wellKnown.NameServers {
		if e.Shard == shard {
			inGroup++
		}
	}
	if inGroup >= 3 {
		w.mu.Unlock()
		return nil, fmt.Errorf("sim: shard %d already has three replicas (primary + two)", shard)
	}
	uadd := addr.NameServer + addr.UAdd(w.nextNS)
	serverID := uint16(w.nextNS + 1)
	w.nextNS++
	wk := w.wellKnown
	antiEntropy, tombTTL := w.nsAntiEntropy, w.nsTombstoneTTL
	w.mu.Unlock()

	m, err := core.Attach(core.Config{
		Name:           name,
		Machine:        h.Machine,
		Networks:       h.Networks,
		EndpointHints:  w.hints(h, name),
		WellKnown:      wk,
		Kind:           core.KindNameServer,
		FixedUAdd:      uadd,
		ServerID:       serverID,
		NSAntiEntropy:  antiEntropy,
		NSTombstoneTTL: tombTTL,
	})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.wellKnown.NameServers = append(w.wellKnown.NameServers, addr.WellKnownEntry{
		Name: name, UAdd: uadd, Endpoints: m.Endpoints(), Shard: shard, ServerID: serverID,
	})
	w.nameServers = append(w.nameServers, m)
	w.nsShards = append(w.nsShards, shard)
	servers := append([]*core.Module(nil), w.nameServers...)
	shards := append([]int(nil), w.nsShards...)
	w.mu.Unlock()
	w.track(m)

	// Wire the replicated configuration (§7: "the latter will be
	// replicated for failure resiliency"): every server knows every
	// other server's record (so its Nucleus can reach any peer), but
	// writes propagate only within the shard group — the namespace
	// partition is the point, and cross-shard replication would undo it.
	// A client rotating to a replica after its group's primary dies sees
	// the records registered through the primary.
	for i, s := range servers {
		var peers []addr.UAdd
		for j, o := range servers {
			if o == s {
				continue
			}
			s.DB().Insert(nameserver.Record{
				Name: o.Name(), UAdd: o.UAdd(), Endpoints: o.Endpoints(),
				Attrs: map[string]string{"type": "nameserver"}, Alive: true,
			})
			if shards[i] == shards[j] {
				peers = append(peers, o.UAdd())
			}
		}
		s.SetNameServerReplicas(peers)
	}
	return m, nil
}

// StartGateway boots a prime gateway joining the host's networks and adds
// it to the well-known preload (§3.4: prime gateways are preloaded; other
// gateways are located through the naming service).
func (w *World) StartGateway(h *Host, name string) (*core.Module, error) {
	if len(h.Networks) < 2 {
		return nil, fmt.Errorf("sim: gateway host %q must join at least two networks", h.Name)
	}
	w.mu.Lock()
	if w.nextGW > addr.PrimeGatewayLimit {
		w.mu.Unlock()
		return nil, errors.New("sim: prime gateway addresses exhausted")
	}
	uadd := w.nextGW
	w.nextGW++
	wk := w.wellKnown
	w.mu.Unlock()

	m, err := core.Attach(core.Config{
		Name:          name,
		Machine:       h.Machine,
		Networks:      h.Networks,
		EndpointHints: w.hints(h, name),
		WellKnown:     wk,
		Kind:          core.KindGateway,
		FixedUAdd:     uadd,
	})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.wellKnown.Gateways = append(w.wellKnown.Gateways, addr.WellKnownEntry{
		Name: name, UAdd: uadd, Endpoints: m.Endpoints(),
	})
	w.mu.Unlock()
	w.track(m)
	return m, nil
}

// StartOrdinaryGateway boots a non-prime gateway: reachable only through
// naming-service topology, never preloaded.
func (w *World) StartOrdinaryGateway(h *Host, name string) (*core.Module, error) {
	if len(h.Networks) < 2 {
		return nil, fmt.Errorf("sim: gateway host %q must join at least two networks", h.Name)
	}
	m, err := core.Attach(core.Config{
		Name:          name,
		Machine:       h.Machine,
		Networks:      h.Networks,
		EndpointHints: w.hints(h, name),
		WellKnown:     w.WellKnown(),
		Kind:          core.KindGateway,
	})
	if err != nil {
		return nil, err
	}
	w.track(m)
	return m, nil
}

// Attach binds an application module to the NTCS on the given host.
func (w *World) Attach(h *Host, name string, attrs map[string]string) (*core.Module, error) {
	m, err := core.Attach(core.Config{
		Name:          name,
		Attrs:         attrs,
		Machine:       h.Machine,
		Networks:      h.Networks,
		EndpointHints: w.hints(h, name),
		WellKnown:     w.WellKnown(),
	})
	if err != nil {
		return nil, err
	}
	w.track(m)
	return m, nil
}

// AttachConfig attaches with full control over the module configuration;
// networks, hints and well-known preload are filled from the host unless
// already set.
func (w *World) AttachConfig(h *Host, cfg core.Config) (*core.Module, error) {
	if len(cfg.Networks) == 0 {
		cfg.Networks = h.Networks
	}
	if cfg.EndpointHints == nil {
		cfg.EndpointHints = w.hints(h, cfg.Name)
	}
	if len(cfg.WellKnown.NameServers) == 0 && len(cfg.WellKnown.Gateways) == 0 {
		cfg.WellKnown = w.WellKnown()
	}
	if cfg.Machine == machine.Unknown {
		cfg.Machine = h.Machine
	}
	m, err := core.Attach(cfg)
	if err != nil {
		return nil, err
	}
	w.track(m)
	return m, nil
}

// Close detaches every module, newest first.
func (w *World) Close() {
	w.mu.Lock()
	mods := w.modules
	w.modules = nil
	w.mu.Unlock()
	for i := len(mods) - 1; i >= 0; i-- {
		_ = mods[i].Detach()
	}
}
