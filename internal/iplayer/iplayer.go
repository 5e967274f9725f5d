// Package iplayer implements the Internet Protocol Layer of paper §2.2 and
// §4: internet virtual circuits (IVCs) across disjoint networks, "either as
// a single LVC on the local network, or as a chained set of LVCs linked
// through one or more Gateways".
//
// The internet scheme follows §4.2 exactly: circuit routing and
// establishment are decentralized — every module computes its own route and
// opens the chain hop by hop — while the topological information (which
// gateways join which networks) is centralized in the naming service. "No
// inter-gateway communication ever takes place": a gateway only ever
// reacts to circuit-open requests arriving over ordinary LVCs.
//
// Like the ND-Layer, the IP-Layer performs no relocation or recovery;
// failures tear the circuit down link by link (§4.3) and notification
// passes upward to the LCM-Layer.
package iplayer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ndlayer"
	"ntcs/internal/pack"
	"ntcs/internal/retry"
	"ntcs/internal/stats"
	"ntcs/internal/trace"
	"ntcs/internal/wire"
	"ntcs/internal/wordmap"
)

// GatewayInfo describes one gateway: its UAdd and the networks it joins.
// Prime gateways arrive via the well-known preload (§3.4); the rest are
// located through the naming service (§4.1).
type GatewayInfo struct {
	UAdd     addr.UAdd
	Name     string
	Networks []string
}

// Directory supplies the centralized topology: where a module lives and
// which gateways exist. In the assembled system this is the NSP-Layer.
type Directory interface {
	// NetworkOf returns the logical network a module is attached to.
	NetworkOf(u addr.UAdd) (string, error)
	// Gateways lists the registered gateway modules.
	Gateways() ([]GatewayInfo, error)
}

// Errors returned by the IP-Layer.
var (
	ErrNoRoute     = errors.New("iplayer: no gateway route to destination network")
	ErrNoDirectory = errors.New("iplayer: destination network unknown and no naming service available")
	ErrClosed      = errors.New("iplayer: layer closed")
	ErrOpenFailed  = errors.New("iplayer: internet circuit establishment failed")

	// ErrDestinationDown marks a chained-open failure at the FINAL hop:
	// the last gateway reached the destination's network but the endpoint
	// itself would not answer. This is conclusive evidence the module is
	// gone, unlike a mid-chain or no-route failure — the distinction the
	// naming service's §3.5 liveness intelligence depends on ("first
	// determining whether the old UAdd is really inactive").
	ErrDestinationDown = errors.New("iplayer: destination endpoint unreachable at final hop")
)

// Config assembles a Layer.
type Config struct {
	// Bindings are the ND-Layer attachments, one per local network.
	Bindings []*ndlayer.Binding
	// Identity presents the local module on control messages.
	Identity ndlayer.Identity
	// Cache is the module-wide endpoint cache (consulted for destination
	// networks before asking the directory).
	Cache *addr.EndpointCache
	// WellKnownGateways seeds the topology before the naming service is
	// reachable.
	WellKnownGateways []GatewayInfo
	// Deliver receives frames addressed to the local module.
	Deliver func(ndlayer.Inbound)
	// RelayEnabled makes this layer a gateway: TIVCOpen requests are
	// extended and data frames with relay entries are forwarded.
	RelayEnabled bool
	// Tracer and Errors receive diagnostics; both may be nil.
	Tracer *trace.Tracer
	Errors *errlog.Table
	// Stats receives the layer's counters; nil disables metering.
	Stats *stats.Registry
	// OpenTimeout bounds IVC establishment and its failover; default 5s.
	OpenTimeout time.Duration
}

// failoverPolicy is the route-recompute retry after a chained open fails
// (§4.3 recovery): each round excludes the gateways observed dead and
// re-reads the topology. New budgets it by OpenTimeout.
var failoverPolicy = retry.Policy{
	Attempts:   3,
	BaseDelay:  10 * time.Millisecond,
	MaxDelay:   500 * time.Millisecond,
	Multiplier: 2,
	Jitter:     0.25,
}

// hop is one step of a computed route: dial Gateway over Via.
type hop struct {
	Gateway addr.UAdd
	Via     string
}

// IVC is an established internet virtual circuit to a destination.
type IVC struct {
	id     uint32 // circuit id on the first LVC (0 = direct)
	first  *ndlayer.LVC
	dest   addr.UAdd
	direct bool
}

// Direct reports whether the circuit is a single LVC (no gateways).
func (c *IVC) Direct() bool { return c.direct }

// relayDest is the other side of a gateway relay entry.
type relayDest struct {
	lvc *ndlayer.LVC
	cid uint32
}

// relayWord packs one direction of a relay entry — the LVC a frame
// arrived on and the circuit id it carried — into a single uint64 key.
// LVC ids are process-unique 32-bit words, so the pair is collision-free
// and the mirror table needs no boxed key struct.
func relayWord(via *ndlayer.LVC, cid uint32) uint64 {
	return via.ID()<<32 | uint64(cid)
}

// pendingOpen tracks an unacknowledged TIVCOpen this node forwarded.
type pendingOpen struct {
	// For the originator: ack delivers the result here.
	done chan error
	// For a gateway: the upstream side to propagate the ack to.
	upLVC *ndlayer.LVC
	upCID uint32
}

// Layer is one module's IP-Layer.
type Layer struct {
	cfg           Config
	failoverRetry retry.Policy // failoverPolicy, budgeted and metered
	bindings      map[string]*ndlayer.Binding

	// ivcs maps destination UAdd word → established circuit. It is
	// consulted on every send, so it is a compact sharded wordmap: the
	// warm path pays one short read-locked probe instead of the layer
	// mutex, and an entry costs ~17 B instead of sync.Map's ~100 B.
	// nextCID and closed are atomic for the same reason.
	ivcs    wordmap.Map[*IVC]
	nextCID atomic.Uint32
	closed  atomic.Bool

	// relayTab is the relay table: relayWord → relayDest, one entry per
	// direction. The data path reads it on every relayed frame without
	// touching (or holding) the layer mutex; installs and removals of a
	// direction pair serialize on mu so both halves change together.
	relayTab wordmap.Map[relayDest]

	mu         sync.Mutex
	dir        Directory
	pending    map[uint32]*pendingOpen // by local (outbound) circuit id
	routeCache map[string][]hop

	// Instruments, resolved once at construction; nil pointers no-op.
	relays      *stats.Counter
	hops        *stats.Counter
	cutthrough  *stats.Counter
	failovers   *stats.Counter
	routeMisses *stats.Counter
	bpDrops     *stats.Counter
	ivcsOpen    *stats.Gauge
}

// New assembles the layer. The caller wires each binding's Deliver to
// (*Layer).HandleInbound and OnCircuitDown to (*Layer).HandleCircuitDown.
func New(cfg Config) (*Layer, error) {
	if len(cfg.Bindings) == 0 || cfg.Identity == nil || cfg.Cache == nil || cfg.Deliver == nil {
		return nil, errors.New("iplayer: Bindings, Identity, Cache and Deliver are required")
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = 5 * time.Second
	}
	failover := failoverPolicy
	failover.Budget = cfg.OpenTimeout
	failover.Retries = cfg.Stats.Counter(stats.RetryAttempts + ".ip_failover")
	failover.GiveUps = cfg.Stats.Counter(stats.RetryGiveUps + ".ip_failover")
	l := &Layer{
		cfg:           cfg,
		failoverRetry: failover,
		bindings:      make(map[string]*ndlayer.Binding, len(cfg.Bindings)),
		pending:       make(map[uint32]*pendingOpen),
		routeCache:    make(map[string][]hop),

		relays:      cfg.Stats.Counter(stats.IPRelays),
		hops:        cfg.Stats.Counter(stats.IPHops),
		cutthrough:  cfg.Stats.Counter(stats.IPCutThrough),
		failovers:   cfg.Stats.Counter(stats.IPFailovers),
		routeMisses: cfg.Stats.Counter(stats.IPRouteMisses),
		bpDrops:     cfg.Stats.Counter(stats.NDBackpressureDrops),
		ivcsOpen:    cfg.Stats.Gauge(stats.IPCircuitsOpen),
	}
	for _, b := range cfg.Bindings {
		if _, dup := l.bindings[b.Network()]; dup {
			return nil, fmt.Errorf("iplayer: duplicate binding for network %s", b.Network())
		}
		l.bindings[b.Network()] = b
	}
	return l, nil
}

// SetDirectory installs the naming-service-backed topology source.
func (l *Layer) SetDirectory(d Directory) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dir = d
}

// Networks lists the locally attached networks, sorted.
func (l *Layer) Networks() []string {
	out := make([]string, 0, len(l.bindings))
	for n := range l.bindings {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ivcOpenInfo is the packed control payload of TIVCOpen.
type ivcOpenInfo struct {
	FinalDst uint64
	GwUAdds  []uint64
	GwNets   []string
}

// ivcAckInfo is the packed control payload of TIVCOpenAck.
type ivcAckInfo struct {
	Err        string
	AtFinalHop bool // the failure was the final LVC to the destination
}

// Send transmits one frame to dst over an IVC, establishing it as needed.
func (l *Layer) Send(dst addr.UAdd, h wire.Header, payload []byte) error {
	return l.SendContext(context.Background(), dst, h, payload)
}

// SendContext is Send honoring ctx: establishment retries and open waits
// end early on cancellation or deadline expiry.
func (l *Layer) SendContext(ctx context.Context, dst addr.UAdd, h wire.Header, payload []byte) (err error) {
	exit := l.cfg.Tracer.Enter(trace.LayerIP, "send", "IVC send", "lcm")
	defer func() { exit(err) }() // deferred so a panicking layer below still closes the span
	err = l.send(ctx, dst, h, payload)
	return err
}

func (l *Layer) send(ctx context.Context, dst addr.UAdd, h wire.Header, payload []byte) error {
	ivc, err := l.OpenContext(ctx, dst)
	if err != nil {
		return err
	}
	h.Circuit = ivc.id
	if err := ivc.first.Send(h, payload); err != nil {
		// Backpressure is congestion, not failure: the circuit is healthy
		// and must be reused, or every stalled send would pay a fresh
		// (chained) establishment just to hit the same full window.
		if !errors.Is(err, ndlayer.ErrBackpressure) {
			l.forgetIVC(uint64(dst), ivc) // the next send re-establishes
		}
		return err
	}
	return nil
}

// SendVia replies over an existing circuit — the reverse path of a chained
// IVC, used by the LCM reply primitives so that even TAdd sources behind
// gateways can be answered.
func (l *Layer) SendVia(via *ndlayer.LVC, circuit uint32, h wire.Header, payload []byte) error {
	h.Circuit = circuit
	return via.Send(h, payload)
}

// Open returns the IVC to dst, establishing one if necessary.
func (l *Layer) Open(dst addr.UAdd) (*IVC, error) {
	return l.OpenContext(context.Background(), dst)
}

// OpenContext is Open honoring ctx.
func (l *Layer) OpenContext(ctx context.Context, dst addr.UAdd) (*IVC, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	if v, ok := l.ivcs.Load(uint64(dst)); ok {
		return v, nil
	}

	ivc, err := func() (ivc *IVC, err error) {
		exit := l.cfg.Tracer.Enter(trace.LayerIP, "open", "establish IVC", "lcm")
		defer func() { exit(err) }() // deferred so a panicking hop still closes the span
		return l.establish(ctx, dst)
	}()
	if err != nil {
		return nil, err
	}
	if existing, loaded := l.ivcs.LoadOrStore(uint64(dst), ivc); loaded {
		return existing, nil
	}
	l.ivcsOpen.Add(1)
	return ivc, nil
}

// establish determines the destination network and builds the circuit.
func (l *Layer) establish(ctx context.Context, dst addr.UAdd) (*IVC, error) {
	// Directly attached? A cached endpoint on a local network wins.
	for net, b := range l.bindings {
		if _, ok := l.cfg.Cache.Find(dst, net); ok {
			v, err := b.OpenContext(ctx, dst)
			if err != nil {
				return nil, err
			}
			return &IVC{first: v, dest: dst, direct: true}, nil
		}
	}

	destNet, err := l.networkOf(dst)
	if err != nil {
		return nil, err
	}
	if b, ok := l.bindings[destNet]; ok {
		v, err := b.OpenContext(ctx, dst)
		if err != nil {
			return nil, err
		}
		return &IVC{first: v, dest: dst, direct: true}, nil
	}

	// Routing toward a Name Server must not consult the naming service:
	// that is the §6.2 recursion ("how does the initial datacom with the
	// Name Server take place?"). The prime gateways preloaded per §3.4
	// exist precisely so this route computes from static configuration.
	wellKnownOnly := dst.IsNameServer()

	route, err := l.route(destNet, wellKnownOnly)
	if err != nil {
		return nil, err
	}
	ivc, err := l.openChain(ctx, dst, route)
	if err == nil {
		return ivc, nil
	}
	return l.failover(ctx, dst, destNet, wellKnownOnly, err)
}

// failover is the §4.3 recovery loop: after a chained open fails, the
// route is recomputed through alternate registered gateways — excluding
// every hop observed dead so far, re-reading the centralized topology
// each round — under the failover retry policy. The fault propagates
// upward only when no alternate route works within the policy's budget.
func (l *Layer) failover(ctx context.Context, dst addr.UAdd, destNet string, wellKnownOnly bool, firstErr error) (*IVC, error) {
	l.failovers.Inc()
	l.cfg.Errors.Report(errlog.CodeRouteStale, "ip", "route to %s failed (%v); recomputing", destNet, firstErr)

	// Gateways observed dead accumulate across rounds: a dead hop must
	// not be re-selected just because it is still registered.
	excluded := make(map[addr.UAdd]bool)
	noteFault := func(err error) {
		var fault *ndlayer.FaultError
		if errors.As(err, &fault) && fault.Peer != dst {
			excluded[fault.Peer] = true
		}
	}
	noteFault(firstErr)

	b := l.failoverRetry.Start()
	for b.Next(ctx, nil) {
		if l.closed.Load() {
			return nil, ErrClosed
		}
		l.mu.Lock()
		delete(l.routeCache, destNet)
		l.mu.Unlock()

		// Never consult the naming service when routing toward it.
		var gws []GatewayInfo
		if wellKnownOnly {
			gws = l.cfg.WellKnownGateways
		} else {
			// The cached topology may be as stale as the route; refresh.
			l.mu.Lock()
			dir := l.dir
			l.mu.Unlock()
			if inv, ok := dir.(interface{ InvalidateGatewayCache() }); ok {
				inv.InvalidateGatewayCache()
			}
			gws = l.gateways()
		}
		if len(excluded) > 0 {
			kept := make([]GatewayInfo, 0, len(gws))
			for _, g := range gws {
				if !excluded[g.UAdd] {
					kept = append(kept, g)
				}
			}
			gws = kept
		}
		route, rerr := ComputeRoute(l.Networks(), destNet, gws)
		if rerr != nil {
			// No alternate topology this round; a later round may see a
			// freshly registered standby gateway.
			continue
		}
		ivc, rerr := l.openChain(ctx, dst, route)
		if rerr != nil {
			noteFault(rerr)
			continue
		}
		l.mu.Lock()
		l.routeCache[destNet] = route
		l.mu.Unlock()
		l.cfg.Errors.Report(errlog.CodeRouteStale, "ip", "route to %s recovered via alternate gateway (attempt %d)", destNet, b.Attempt())
		return ivc, nil
	}
	return nil, firstErr
}

// networkOf finds dst's network from the cache, then the directory.
func (l *Layer) networkOf(dst addr.UAdd) (string, error) {
	if eps := l.cfg.Cache.All(dst); len(eps) > 0 {
		return eps[0].Network, nil
	}
	l.mu.Lock()
	dir := l.dir
	l.mu.Unlock()
	if dir == nil {
		return "", &ndlayer.FaultError{Peer: dst, Err: ErrNoDirectory}
	}
	net, err := dir.NetworkOf(dst)
	if err != nil {
		return "", &ndlayer.FaultError{Peer: dst, Err: err}
	}
	return net, nil
}

// gateways merges the well-known prime gateways with the directory's
// registered ones, deduplicated by UAdd, sorted for determinism.
func (l *Layer) gateways() []GatewayInfo {
	seen := make(map[addr.UAdd]bool)
	var all []GatewayInfo
	for _, g := range l.cfg.WellKnownGateways {
		if !seen[g.UAdd] {
			seen[g.UAdd] = true
			all = append(all, g)
		}
	}
	l.mu.Lock()
	dir := l.dir
	l.mu.Unlock()
	if dir != nil {
		if more, err := dir.Gateways(); err == nil {
			for _, g := range more {
				if !seen[g.UAdd] {
					seen[g.UAdd] = true
					all = append(all, g)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].UAdd < all[j].UAdd })
	return all
}

// route computes (or recalls) the gateway chain to destNet: breadth-first
// search over the network graph whose edges are gateways. Establishment is
// autonomous (§4.2): no gateway is consulted, only the topology. The
// preloaded prime gateways are tried first — if they suffice, the naming
// service is never consulted (and for Name Server destinations it must
// not be).
func (l *Layer) route(destNet string, wellKnownOnly bool) ([]hop, error) {
	l.mu.Lock()
	if r, ok := l.routeCache[destNet]; ok {
		l.mu.Unlock()
		return r, nil
	}
	l.mu.Unlock()
	l.routeMisses.Inc()

	r, err := ComputeRoute(l.Networks(), destNet, l.cfg.WellKnownGateways)
	if err != nil {
		if wellKnownOnly {
			return nil, err
		}
		r, err = ComputeRoute(l.Networks(), destNet, l.gateways())
		if err != nil {
			return nil, err
		}
	}
	l.mu.Lock()
	l.routeCache[destNet] = r
	l.mu.Unlock()
	return r, nil
}

// ComputeRoute performs the BFS over networks. Exposed for the routing
// ablation benchmarks.
func ComputeRoute(localNets []string, destNet string, gws []GatewayInfo) ([]hop, error) {
	type arrival struct {
		fromNet string
		gw      addr.UAdd
	}
	visited := make(map[string]arrival)
	queue := make([]string, 0, len(localNets))
	for _, n := range localNets {
		visited[n] = arrival{}
		queue = append(queue, n)
	}
	for len(queue) > 0 && visited[destNet] == (arrival{}) {
		cur := queue[0]
		queue = queue[1:]
		if cur == destNet {
			break
		}
		for _, g := range gws {
			attached := false
			for _, n := range g.Networks {
				if n == cur {
					attached = true
					break
				}
			}
			if !attached {
				continue
			}
			for _, n := range g.Networks {
				if n == cur {
					continue
				}
				if _, seen := visited[n]; seen {
					continue
				}
				visited[n] = arrival{fromNet: cur, gw: g.UAdd}
				queue = append(queue, n)
			}
		}
	}
	arr, ok := visited[destNet]
	if !ok || arr.gw == addr.Nil {
		// destNet may be a local network (zero arrival) — no hops needed.
		for _, n := range localNets {
			if n == destNet {
				return nil, nil
			}
		}
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, destNet)
	}
	// Walk back from destNet to a local network.
	var rev []hop
	for cur := destNet; ; {
		a := visited[cur]
		if a.gw == addr.Nil {
			break
		}
		rev = append(rev, hop{Gateway: a.gw, Via: a.fromNet})
		cur = a.fromNet
	}
	route := make([]hop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		route = append(route, rev[i])
	}
	return route, nil
}

// openChain opens the first LVC and sends the chained establishment
// request down the route.
func (l *Layer) openChain(ctx context.Context, dst addr.UAdd, route []hop) (*IVC, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("%w: empty route", ErrNoRoute)
	}
	first := route[0]
	b, ok := l.bindings[first.Via]
	if !ok {
		return nil, fmt.Errorf("%w: not attached to %s", ErrNoRoute, first.Via)
	}
	v, err := b.OpenContext(ctx, first.Gateway)
	if err != nil {
		return nil, err
	}

	info := ivcOpenInfo{FinalDst: uint64(dst)}
	for _, h := range route[1:] {
		info.GwUAdds = append(info.GwUAdds, uint64(h.Gateway))
		info.GwNets = append(info.GwNets, h.Via)
	}
	payload, err := pack.Marshal(info)
	if err != nil {
		return nil, err
	}

	cid := l.nextCID.Add(1)
	p := &pendingOpen{done: make(chan error, 1)}
	l.mu.Lock()
	l.pending[cid] = p
	l.mu.Unlock()

	h := wire.Header{
		Type:       wire.TIVCOpen,
		Src:        l.cfg.Identity.UAdd(),
		Dst:        dst,
		SrcMachine: l.cfg.Identity.Machine(),
		Mode:       wire.ModePacked,
		Circuit:    cid,
	}
	if h.Src.IsTemp() {
		h.Flags |= wire.FlagSrcTAdd
	}
	if err := v.Send(h, payload); err != nil {
		l.forgetPending(cid)
		return nil, err
	}

	t := retry.GetTimer(l.cfg.OpenTimeout)
	defer retry.PutTimer(t)
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case err := <-p.done:
		if err != nil {
			return nil, err
		}
		return &IVC{id: cid, first: v, dest: dst}, nil
	case <-ctxDone:
		l.forgetPending(cid)
		return nil, ctx.Err()
	case <-t.C:
		l.forgetPending(cid)
		return nil, fmt.Errorf("%w: timed out", ErrOpenFailed)
	}
}

func (l *Layer) forgetPending(cid uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pending, cid)
}

// forgetIVC deletes ivc under key k only if it is still the circuit
// stored there: a sweep working from a Range snapshot must not delete the
// fresh circuit that a failed send's drop plus OpenContext put in its place.
// The open-circuit gauge moves only when this call deleted.
func (l *Layer) forgetIVC(k uint64, ivc *IVC) bool {
	if !l.ivcs.CompareAndDelete(k, ivc) {
		return false
	}
	l.ivcsOpen.Add(-1)
	return true
}

// DropCircuits forgets every IVC whose destination is dst (after an
// address fault the stale circuit must not be reused).
func (l *Layer) DropCircuits(dst addr.UAdd) {
	var ivc *IVC
	if v, ok := l.ivcs.LoadAndDelete(uint64(dst)); ok {
		ivc = v
		l.ivcsOpen.Add(-1)
	}
	if ivc != nil && ivc.direct {
		// Also drop the underlying LVC so reopening re-resolves.
		if b, ok := l.bindings[ivc.first.Network()]; ok {
			b.Drop(dst)
		}
	}
}

// HandleInbound is the demultiplexer every ND binding delivers into.
func (l *Layer) HandleInbound(in ndlayer.Inbound) {
	switch in.Header.Type {
	case wire.TIVCOpen:
		// Chain extension blocks on opens and naming-service lookups —
		// lookups whose replies may arrive on the very LVC this frame came
		// in on (the gateway's circuit to the Name Server serves both
		// directions). Processing it on the reader goroutine deadlocks the
		// reply against the request: the §6.2 problem, "a given layer can
		// be called from above or below, often while it is in the middle
		// of some other action." Extend off the reader.
		go l.handleIVCOpen(in)
	case wire.TIVCOpenAck:
		l.handleIVCAck(in)
	case wire.TIVCClose:
		l.handleIVCClose(in)
	default:
		if in.Header.Circuit != 0 && l.relayFrame(in) {
			return
		}
		l.cfg.Deliver(in)
	}
}

// relayFrame forwards a data frame across a gateway, if a relay entry
// exists. Returns false when the frame is for the local module.
//
// The lookup is a single short wordmap probe, and the forward is
// cut-through: the circuit and hop words are patched in place in the
// frame exactly as it arrived and the raw bytes go out with no header
// re-marshal and no payload copy. §4.2's "no inter-gateway communication"
// is what makes this legal — nothing at a hop needs to understand the
// frame beyond the words it rewrites. The layer mutex is never taken
// here, so a slow downstream Send cannot stall opens, closes, or other
// relays.
func (l *Layer) relayFrame(in ndlayer.Inbound) bool {
	dest, ok := l.relayTab.Load(relayWord(in.Via, in.Header.Circuit))
	if !ok {
		// At a gateway, a frame for someone else on a circuit with no
		// relay is for one already torn down, whose close has not yet
		// reached the sender. Nothing here can answer a call but this.
		return l.cfg.RelayEnabled && in.Header.Dst != l.cfg.Identity.UAdd() && l.refuseCall(in)
	}
	err := func() (err error) {
		exit := l.cfg.Tracer.Enter(trace.LayerGateway, "relay", "forward data frame", "ip")
		defer func() { exit(err) }() // deferred so a panicking LVC still closes the span
		l.relays.Inc()
		l.hops.Add(uint64(in.Header.Hops) + 1)
		if l.cfg.Tracer.On() {
			l.cfg.Tracer.Span(in.Header.Span, trace.LayerGateway, "relay", in.Header.Dst.String())
		}
		if wire.PatchRelay(in.Raw, dest.cid) == nil {
			l.cutthrough.Inc()
			return dest.lvc.SendRaw(in.Raw, in.Header.Span)
		}
		// No raw frame (synthetic Inbound): re-marshal the slow way.
		h := in.Header
		h.Circuit = dest.cid
		h.Hops++
		return dest.lvc.Send(h, in.Payload)
	}()
	if err != nil {
		if errors.Is(err, ndlayer.ErrBackpressure) {
			// The downstream circuit is out of credit, not dead: drop this
			// frame and NACK the upstream sender so it backs off. Tearing
			// the circuit down here would convert transient congestion into
			// a fault storm of re-establishments.
			l.bpDrops.Inc()
			in.Via.NackBackpressure()
			return true
		}
		// §4.3: the far link is gone; close the near side of the circuit,
		// answering a call that dies here first.
		l.refuseCall(in)
		l.tearDownRelay(in.Via, in.Header.Circuit, "relay send failed")
	}
	return true
}

// refuseCall answers a call frame a gateway cannot forward, and reports
// whether in was one. The error reply carries ErrDestinationDown's text
// on the same circuit, Seq and span, so the caller fails at once with a
// RemoteError matching ErrDestinationDown instead of sitting out its
// CallTimeout. Like the LCM's inbox-overflow refusal it never waits for
// credit; a refusal that cannot be sent leaves the caller to its timeout.
func (l *Layer) refuseCall(in ndlayer.Inbound) bool {
	if in.Header.Type != wire.TData || in.Header.Flags&wire.FlagCall == 0 {
		return false
	}
	h := wire.Header{
		Type:       wire.TData,
		Src:        in.Header.Dst,
		Dst:        in.Header.Src,
		SrcMachine: l.cfg.Identity.Machine(),
		Mode:       wire.ModePacked,
		Flags:      wire.FlagReply | wire.FlagError | wire.FlagService | wire.FlagNoBlock,
		Seq:        in.Header.Seq,
		Span:       in.Header.Span,
	}
	_ = l.SendVia(in.Via, in.Header.Circuit, h, []byte(ErrDestinationDown.Error()))
	return true
}

// handleIVCOpen extends (gateway) or rejects a chained circuit request.
func (l *Layer) handleIVCOpen(in ndlayer.Inbound) {
	if !l.cfg.RelayEnabled {
		// An ordinary module received a chained open: it is the final
		// destination only if the chain ends here, which the final gateway
		// handles with a direct LVC; a stray open is refused.
		l.ack(in.Via, in.Header.Circuit, fmt.Errorf("%w: not a gateway", ErrOpenFailed))
		return
	}
	exit := l.cfg.Tracer.Enter(trace.LayerGateway, "ivc-open", "extend chained circuit", in.Header.Src.String())
	var herr error
	defer func() { exit(herr) }() // deferred so a panicking codec or hop still closes the span

	var info ivcOpenInfo
	if err := pack.Unmarshal(in.Payload, &info); err != nil {
		l.ack(in.Via, in.Header.Circuit, fmt.Errorf("%w: bad open payload", ErrOpenFailed))
		herr = err
		return
	}
	finalDst := addr.UAdd(info.FinalDst)

	var (
		out    *ndlayer.LVC
		outCID uint32
		err    error
	)
	if len(info.GwUAdds) == 0 {
		// Last hop: open a direct LVC to the destination module. A
		// failure here is conclusive: the endpoint itself is gone.
		out, err = l.openFinalHop(finalDst)
		if err != nil {
			var fault *ndlayer.FaultError
			if errors.As(err, &fault) && fault.Peer == finalDst {
				err = fmt.Errorf("%w: %v", ErrDestinationDown, err)
			}
		}
	} else {
		next := addr.UAdd(info.GwUAdds[0])
		via := info.GwNets[0]
		b, ok := l.bindings[via]
		if !ok {
			err = fmt.Errorf("%w: gateway not attached to %s", ErrNoRoute, via)
		} else {
			out, err = b.Open(next)
		}
	}
	if err != nil {
		l.cfg.Errors.Report(errlog.CodeIVCTorn, "ip", "extend to %v: %v", finalDst, err)
		l.ack(in.Via, in.Header.Circuit, err)
		herr = err
		return
	}

	outCID = l.nextCID.Add(1)
	l.mu.Lock()
	l.installRelayLocked(in.Via, in.Header.Circuit, out, outCID)
	l.mu.Unlock()

	if len(info.GwUAdds) == 0 {
		// Chain complete; acknowledge upstream.
		l.ack(in.Via, in.Header.Circuit, nil)
		return
	}

	// Forward the open downstream and remember whom to tell.
	fwd := ivcOpenInfo{FinalDst: info.FinalDst, GwUAdds: info.GwUAdds[1:], GwNets: info.GwNets[1:]}
	payload, err := pack.Marshal(fwd)
	if err != nil {
		l.removeRelay(in.Via, in.Header.Circuit)
		l.ack(in.Via, in.Header.Circuit, err)
		herr = err
		return
	}
	h := in.Header
	h.Circuit = outCID
	h.Hops++
	h.Mode = wire.ModePacked

	l.mu.Lock()
	l.pending[outCID] = &pendingOpen{upLVC: in.Via, upCID: in.Header.Circuit}
	l.mu.Unlock()

	if err := out.Send(h, payload); err != nil {
		l.forgetPending(outCID)
		l.removeRelay(in.Via, in.Header.Circuit)
		l.ack(in.Via, in.Header.Circuit, err)
		herr = err
		return
	}
}

// openFinalHop opens the terminal LVC of a chain: the destination module's
// network is found through cache or directory, and must be local.
func (l *Layer) openFinalHop(dst addr.UAdd) (*ndlayer.LVC, error) {
	for net, b := range l.bindings {
		if _, ok := l.cfg.Cache.Find(dst, net); ok {
			return b.Open(dst)
		}
	}
	destNet, err := l.networkOf(dst)
	if err != nil {
		return nil, err
	}
	b, ok := l.bindings[destNet]
	if !ok {
		return nil, fmt.Errorf("%w: final destination on %s, gateway not attached", ErrNoRoute, destNet)
	}
	return b.Open(dst)
}

// ack sends a TIVCOpenAck upstream, preserving the final-hop marker.
func (l *Layer) ack(via *ndlayer.LVC, cid uint32, result error) {
	info := ivcAckInfo{}
	h := wire.Header{
		Type:       wire.TIVCOpenAck,
		Src:        l.cfg.Identity.UAdd(),
		SrcMachine: l.cfg.Identity.Machine(),
		Mode:       wire.ModePacked,
		Circuit:    cid,
	}
	if result != nil {
		info.Err = result.Error()
		info.AtFinalHop = errors.Is(result, ErrDestinationDown)
		h.Flags |= wire.FlagError
	}
	payload, err := pack.Marshal(info)
	if err != nil {
		return
	}
	_ = via.Send(h, payload)
}

// handleIVCAck resolves a pending open, locally or by propagation.
func (l *Layer) handleIVCAck(in ndlayer.Inbound) {
	l.mu.Lock()
	p, ok := l.pending[in.Header.Circuit]
	delete(l.pending, in.Header.Circuit)
	l.mu.Unlock()
	if !ok {
		return
	}
	var result error
	if in.Header.Flags&wire.FlagError != 0 {
		var info ivcAckInfo
		switch err := pack.Unmarshal(in.Payload, &info); {
		case err == nil && info.AtFinalHop:
			result = fmt.Errorf("%w: %w: %s", ErrOpenFailed, ErrDestinationDown, info.Err)
		case err == nil && info.Err != "":
			result = fmt.Errorf("%w: %s", ErrOpenFailed, info.Err)
		default:
			result = ErrOpenFailed
		}
	}
	if p.done != nil {
		p.done <- result
		return
	}
	// Gateway: propagate up the chain; on failure also dismantle the
	// relay entries installed optimistically.
	if result != nil {
		l.removeRelay(p.upLVC, p.upCID)
	}
	l.ack(p.upLVC, p.upCID, result)
}

// handleIVCClose implements the §4.3 teardown: "The Gateway will instruct
// the IP-layer on the other side of the link to close the associated IVC
// ... This process continues until the originating module is eventually
// reached."
func (l *Layer) handleIVCClose(in ndlayer.Inbound) {
	cid := in.Header.Circuit
	// Originator: the circuit is gone; the next send re-establishes (or
	// faults up to the LCM-Layer).
	closedAsOriginator := false
	l.ivcs.Range(func(k uint64, ivc *IVC) bool {
		if ivc.id == cid && ivc.first == in.Via {
			if l.forgetIVC(k, ivc) {
				l.cfg.Errors.Report(errlog.CodeIVCTorn, "ip", "circuit %d to %v closed by network", cid, addr.UAdd(k))
			}
			closedAsOriginator = true
			return false
		}
		return true
	})
	if closedAsOriginator {
		// The teardown means some hop of the cached route died (§4.3);
		// the next establish must recompute, not replay the stale chain.
		l.InvalidateRoutes()
		return
	}
	if dest, ok := l.removeRelay(in.Via, cid); ok {
		l.sendClose(dest.lvc, dest.cid)
	}
}

// HandleCircuitDown reacts to an LVC death (wired to every binding's
// OnCircuitDown): all circuits chained over the dead LVC are closed toward
// their other side (§4.3).
func (l *Layer) HandleCircuitDown(peer addr.UAdd, v *ndlayer.LVC, cause error) {
	// Any IVC using this LVC as first hop is gone.
	chained := false
	l.ivcs.Range(func(k uint64, ivc *IVC) bool {
		if ivc.first == v {
			l.forgetIVC(k, ivc)
			chained = chained || !ivc.direct
		}
		return true
	})
	if chained {
		// A chained circuit died with its first LVC: the gateway that the
		// cached route leads through is unreachable; recompute next time.
		l.InvalidateRoutes()
	}
	// Every relay entry whose frames arrive on v (the high word of its
	// key) loses its pair and closes toward the other side.
	l.relayTab.Range(func(k uint64, _ relayDest) bool {
		if k>>32 != v.ID() {
			return true
		}
		if dest, ok := l.removeRelay(v, uint32(k)); ok {
			l.cfg.Errors.Report(errlog.CodeIVCTorn, "ip", "LVC to %v died (%v); closing circuit %d", peer, cause, uint32(k))
			l.sendClose(dest.lvc, dest.cid)
		}
		return true
	})
}

func (l *Layer) sendClose(via *ndlayer.LVC, cid uint32) {
	h := wire.Header{
		Type:       wire.TIVCClose,
		Src:        l.cfg.Identity.UAdd(),
		SrcMachine: l.cfg.Identity.Machine(),
		Circuit:    cid,
	}
	_ = via.Send(h, nil)
}

// installRelayLocked wires both directions of a relay entry. Caller holds mu.
func (l *Layer) installRelayLocked(inLVC *ndlayer.LVC, inCID uint32, outLVC *ndlayer.LVC, outCID uint32) {
	l.relayTab.Store(relayWord(inLVC, inCID), relayDest{lvc: outLVC, cid: outCID})
	l.relayTab.Store(relayWord(outLVC, outCID), relayDest{lvc: inLVC, cid: inCID})
}

// removeRelay deletes the relay entry for frames arriving on via with
// cid, and its reverse direction. It returns the other side, if the entry
// was still installed.
func (l *Layer) removeRelay(via *ndlayer.LVC, cid uint32) (relayDest, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	dest, ok := l.relayTab.LoadAndDelete(relayWord(via, cid))
	if ok {
		l.relayTab.Delete(relayWord(dest.lvc, dest.cid))
	}
	return dest, ok
}

// tearDownRelay closes a broken relayed circuit back toward its source.
func (l *Layer) tearDownRelay(via *ndlayer.LVC, cid uint32, reason string) {
	l.cfg.Errors.Report(errlog.CodeIVCTorn, "ip", "circuit %d: %s", cid, reason)
	l.removeRelay(via, cid)
	l.sendClose(via, cid)
}

// RelayCount reports live relay entries (both directions), for tests.
func (l *Layer) RelayCount() int { return l.relayTab.Len() }

// OpenCircuits reports the destinations with established IVCs.
func (l *Layer) OpenCircuits() []addr.UAdd {
	var out []addr.UAdd
	l.ivcs.Range(func(k uint64, _ *IVC) bool {
		out = append(out, addr.UAdd(k))
		return true
	})
	return out
}

// InvalidateRoutes clears the route cache (used when topology changes).
func (l *Layer) InvalidateRoutes() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.routeCache = make(map[string][]hop)
}

// Close shuts the layer down. The ND bindings are owned by the caller and
// closed separately.
func (l *Layer) Close() {
	l.closed.Store(true)
	l.ivcs.Range(func(k uint64, ivc *IVC) bool {
		l.forgetIVC(k, ivc)
		return true
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	l.relayTab.Range(func(k uint64, _ relayDest) bool {
		l.relayTab.Delete(k)
		return true
	})
	for _, p := range l.pending {
		if p.done != nil {
			p.done <- ErrClosed
		}
	}
	l.pending = make(map[uint32]*pendingOpen)
}
