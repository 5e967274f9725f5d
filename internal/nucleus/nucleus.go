// Package nucleus assembles the single communication Nucleus of paper
// §2.1: "the NTCS is designed around a single communication Nucleus, which
// provides a fundamental set of protocols and access points supporting all
// NTCS functions. The Nucleus is bound with every NTCS module."
//
// A Nucleus is passive — it owns no serving process of its own, only the
// reader goroutines of its circuits — and stacks the three layers of
// Figure 2-2: ND (one binding per attached network), IP, and LCM.
// Everything above the ND-Layer is portable; the Nucleus takes whatever
// ipcs.Network implementations it is given.
package nucleus

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs"
	"ntcs/internal/iplayer"
	"ntcs/internal/lcm"
	"ntcs/internal/ndlayer"
	"ntcs/internal/stats"
	"ntcs/internal/trace"
)

// NamingService is everything the Nucleus layers ask of the naming
// service, each through its own narrow view (§3): the ND-Layer resolves
// endpoints, the IP-Layer reads topology, the LCM-Layer obtains
// forwarding addresses. The NSP-Layer implements all three.
type NamingService interface {
	ndlayer.Resolver
	iplayer.Directory
	lcm.Resolver
}

// Config assembles a Nucleus.
type Config struct {
	// Networks are the IPCSs this module is attached to.
	Networks []ipcs.Network
	// EndpointHints optionally fixes the physical address per network
	// (keyed by network ID) — the Name Server's well-known endpoints, a
	// mailbox pathname, a TCP port.
	EndpointHints map[string]string
	// Identity presents the module.
	Identity ndlayer.Identity
	// WellKnown preloads the address tables (§3.4).
	WellKnown addr.WellKnown
	// RelayEnabled makes this Nucleus a gateway.
	RelayEnabled bool
	// Tracer and Errors receive diagnostics; both may be nil.
	Tracer *trace.Tracer
	Errors *errlog.Table
	// Stats receives every layer's instruments; nil disables metering.
	Stats *stats.Registry
	// Timeouts; zero values select layer defaults.
	CallTimeout time.Duration
	OpenTimeout time.Duration
	// InboxSize bounds the LCM inbox.
	InboxSize int
	// CreditWindow is the per-circuit receive window every binding
	// advertises (see ndlayer.Config.CreditWindow): zero or less selects
	// the default.
	CreditWindow int
	// CreditWaitMax bounds how long a blocking send waits for circuit
	// credit before failing with backpressure (see
	// ndlayer.Config.CreditWaitMax).
	CreditWaitMax time.Duration
}

// Nucleus is one module's assembled communication core.
type Nucleus struct {
	Cache    *addr.EndpointCache
	Bindings []*ndlayer.Binding
	IP       *iplayer.Layer
	LCM      *lcm.Layer

	ready chan struct{}
}

// New builds and wires the layer stack.
func New(cfg Config) (*Nucleus, error) {
	if len(cfg.Networks) == 0 {
		return nil, errors.New("nucleus: at least one network is required")
	}
	if cfg.Identity == nil {
		return nil, errors.New("nucleus: identity is required")
	}

	n := &Nucleus{
		Cache: addr.NewEndpointCache(),
		ready: make(chan struct{}),
	}
	cfg.WellKnown.Preload(n.Cache)

	// Deliveries may arrive the instant a binding starts accepting —
	// before the upper layers exist. Hold them until assembly completes.
	deliver := func(in ndlayer.Inbound) {
		<-n.ready
		n.IP.HandleInbound(in)
	}
	circuitDown := func(peer addr.UAdd, v *ndlayer.LVC, err error) {
		<-n.ready
		n.IP.HandleCircuitDown(peer, v, err)
	}
	taddReplaced := func(old, real addr.UAdd) {
		<-n.ready
		n.LCM.ReplaceAddr(old, real)
	}

	for _, net := range cfg.Networks {
		b, err := ndlayer.New(ndlayer.Config{
			Network:        net,
			EndpointHint:   cfg.EndpointHints[net.ID()],
			Identity:       cfg.Identity,
			Cache:          n.Cache,
			Deliver:        deliver,
			OnCircuitDown:  circuitDown,
			OnTAddReplaced: taddReplaced,
			Tracer:         cfg.Tracer,
			Errors:         cfg.Errors,
			Stats:          cfg.Stats,
			OpenTimeout:    cfg.OpenTimeout,
			CreditWindow:   cfg.CreditWindow,
			CreditWaitMax:  cfg.CreditWaitMax,
		})
		if err != nil {
			n.closeBindings()
			return nil, fmt.Errorf("nucleus: bind %s: %w", net.ID(), err)
		}
		n.Bindings = append(n.Bindings, b)
	}

	ip, err := iplayer.New(iplayer.Config{
		Bindings:          n.Bindings,
		Identity:          cfg.Identity,
		Cache:             n.Cache,
		WellKnownGateways: wellKnownGateways(cfg.WellKnown),
		Deliver: func(in ndlayer.Inbound) {
			n.LCM.HandleInbound(in)
		},
		RelayEnabled: cfg.RelayEnabled,
		Tracer:       cfg.Tracer,
		Errors:       cfg.Errors,
		Stats:        cfg.Stats,
		OpenTimeout:  cfg.OpenTimeout,
	})
	if err != nil {
		n.closeBindings()
		return nil, err
	}
	n.IP = ip

	lcmLayer, err := lcm.New(lcm.Config{
		IP:          ip,
		Identity:    cfg.Identity,
		WellKnown:   cfg.WellKnown,
		Tracer:      cfg.Tracer,
		Errors:      cfg.Errors,
		Stats:       cfg.Stats,
		CallTimeout: cfg.CallTimeout,
		InboxSize:   cfg.InboxSize,
	})
	if err != nil {
		n.closeBindings()
		return nil, err
	}
	n.LCM = lcmLayer

	close(n.ready)
	return n, nil
}

// wellKnownGateways converts the preload entries to IP-Layer topology.
func wellKnownGateways(w addr.WellKnown) []iplayer.GatewayInfo {
	out := make([]iplayer.GatewayInfo, 0, len(w.Gateways))
	for _, e := range w.Gateways {
		gi := iplayer.GatewayInfo{UAdd: e.UAdd, Name: e.Name}
		for _, ep := range e.Endpoints {
			gi.Networks = append(gi.Networks, ep.Network)
		}
		out = append(out, gi)
	}
	return out
}

// SetNaming attaches the naming service to every layer that consults it —
// the recursion of §3.1 becomes live at this moment.
func (n *Nucleus) SetNaming(ns NamingService) {
	for _, b := range n.Bindings {
		b.SetResolver(ns)
	}
	n.IP.SetDirectory(ns)
	n.LCM.SetResolver(ns)
}

// Endpoints returns this module's physical address records, one per
// attached network.
func (n *Nucleus) Endpoints() []addr.Endpoint {
	out := make([]addr.Endpoint, 0, len(n.Bindings))
	for _, b := range n.Bindings {
		out = append(out, b.Endpoint())
	}
	return out
}

// TAddResidue counts TAdd keys remaining across every Nucleus table — the
// §3.4 purge assertion ("purged from all layers").
func (n *Nucleus) TAddResidue() int {
	total := n.Cache.TAddCount() + n.LCM.ForwardTable().TAddCount()
	for _, b := range n.Bindings {
		total += b.TAddAliasCount()
	}
	return total
}

func (n *Nucleus) closeBindings() {
	for _, b := range n.Bindings {
		_ = b.Close()
	}
}

// Flush drains the write queues of every binding (bounded by ctx). Part
// of every graceful shutdown: frames already accepted by SendMsg reach
// the wire before Close tears the circuits down.
func (n *Nucleus) Flush(ctx context.Context) error {
	for _, b := range n.Bindings {
		if err := b.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the Nucleus down: LCM first (unblocking receivers), then IP,
// then the bindings.
func (n *Nucleus) Close() {
	if n.LCM != nil {
		n.LCM.Close()
	}
	if n.IP != nil {
		n.IP.Close()
	}
	n.closeBindings()
}
