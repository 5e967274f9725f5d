// Package ndlayer implements the Network Dependent Layer of paper §2.2:
// the lowest Nucleus layer, localizing all machine and network
// communication dependencies behind a uniform virtual-circuit interface
// (the STD-IF) so that everything above it is portable.
//
// The ND-Layer provides local virtual circuits (LVCs) to destinations
// reachable through the local IPCS only. It maps UAdds to physical
// addresses "either through the NSP-layer services, or by information
// exchanged between modules during the channel open protocol", caching
// the results locally (§3.3). There is no automatic relocation or
// recovery from failed channels — except for retry on open — and failure
// notification is simply passed upward as a FaultError.
//
// Incoming connections from a TAdd source receive a locally assigned TAdd
// alias (§3.4), replaced throughout the tables as soon as a message from
// the peer's real UAdd arrives.
package ndlayer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs"
	"ntcs/internal/machine"
	"ntcs/internal/pack"
	"ntcs/internal/retry"
	"ntcs/internal/stats"
	"ntcs/internal/trace"
	"ntcs/internal/wire"
	"ntcs/internal/wordmap"
)

// Resolver resolves a UAdd to its physical endpoint on a given network —
// in the assembled system, the NSP-Layer (the recursion of §3.1).
type Resolver interface {
	LookupEndpoint(u addr.UAdd, network string) (addr.Endpoint, error)
}

// Identity presents the local module during channel opens. UAdd may change
// from a TAdd to the real UAdd after registration.
type Identity interface {
	UAdd() addr.UAdd
	Machine() machine.Type
	Name() string
}

// Inbound is one frame passed upward from an LVC.
type Inbound struct {
	Header  wire.Header
	Payload []byte
	// Raw is the complete frame as it arrived, header words included;
	// Payload aliases its tail. The buffer is owned by the receiver once
	// delivered (the reader allocates afresh for every Recv), which is
	// what lets a gateway patch it in place and forward it without a
	// re-marshal. Header.Src may differ from the Src words in Raw after a
	// §3.4 alias rewrite; Src is an opaque reply-to above the ND-Layer,
	// so a relayed frame legitimately carries the peer's original TAdd.
	Raw []byte
	Via *LVC
}

// FaultError is the address fault of §3.5: an attempt to communicate with
// a previously resolved address failed. The ND-Layer closes the channel
// and passes this upward; recovery is the LCM-Layer's business.
type FaultError struct {
	Peer addr.UAdd
	Err  error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("ndlayer: address fault on %v: %v", e.Peer, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// Errors returned by the ND-Layer.
var (
	ErrNoEndpoint   = errors.New("ndlayer: no endpoint known for destination on this network")
	ErrClosed       = errors.New("ndlayer: binding closed")
	ErrWrongModule  = errors.New("ndlayer: endpoint answered with an unexpected UAdd")
	ErrOpenRejected = errors.New("ndlayer: open rejected by peer")

	// ErrBackpressure is the sentinel every BackpressureError matches via
	// errors.Is: the circuit is out of send credit and the caller chose (or
	// timed out) not to wait.
	ErrBackpressure = errors.New("ndlayer: circuit backpressure (no send credit)")
)

// BackpressureError reports a send refused for want of circuit credit.
// It is deliberately NOT a FaultError: the circuit is healthy, only
// momentarily full, so the LCM never treats it as an address fault and
// the IP-Layer never tears the circuit down over it.
//
// errors.Is(err, ErrBackpressure) matches; errors.As recovers the
// inspectable fields.
type BackpressureError struct {
	// Peer is the circuit's peer UAdd.
	Peer addr.UAdd
	// Circuit is the process-unique LVC id (LVC.ID).
	Circuit uint64
	// QueueDepth is the number of frames in flight beyond the last credit
	// grant at the moment the send gave up.
	QueueDepth int
	// SuggestedWait hints how long a retrying sender should back off.
	SuggestedWait time.Duration
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("ndlayer: backpressure on circuit %d to %v: %d frames beyond last credit", e.Circuit, e.Peer, e.QueueDepth)
}

func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// Config assembles a Binding.
type Config struct {
	// Network is the IPCS this binding drives.
	Network ipcs.Network
	// EndpointHint suggests the listener address (mailbox pathname, port).
	EndpointHint string
	// Identity presents the local module.
	Identity Identity
	// Cache is the module-wide UAdd→endpoint cache (shared across
	// bindings; preloaded with the well-known addresses).
	Cache *addr.EndpointCache
	// Deliver receives every inbound frame. It runs on the connection's
	// receive goroutine, serially per circuit; blocking it delays that
	// circuit's grants, which backpressures the sender.
	Deliver func(Inbound)
	// OnCircuitDown, if non-nil, is told when an LVC dies (gateways use
	// this for the §4.3 teardown propagation).
	OnCircuitDown func(peer addr.UAdd, v *LVC, err error)
	// OnTAddReplaced, if non-nil, is told when a TAdd alias is replaced by
	// a real UAdd so higher-layer tables can rewrite too.
	OnTAddReplaced func(old, real addr.UAdd)
	// Tracer and Errors receive diagnostics; both may be nil.
	Tracer *trace.Tracer
	Errors *errlog.Table
	// Stats receives the layer's counters; nil disables metering.
	Stats *stats.Registry
	// OpenTimeout bounds the open handshake; default 5s. It also caps the
	// total dial-retry budget (dialPolicy), so a caller is never held
	// longer than one handshake timeout by a dead endpoint.
	OpenTimeout time.Duration
	// CreditWindow is the receive window this binding advertises during
	// the open handshake: how many unconsumed data frames a peer may have
	// in flight toward us. Zero or less selects DefaultCreditWindow.
	CreditWindow int
	// CreditWaitMax bounds how long a blocking send waits for circuit
	// credit before failing with a BackpressureError; default 2s.
	CreditWaitMax time.Duration
}

// Binding is one module's ND-Layer attachment to one network.
type Binding struct {
	cfg      Config
	network  string
	listener ipcs.Listener
	resolver Resolver // settable post-construction (bootstrap order)

	// circuits maps peer UAdd (as its uint64 word) → *LVC. It is read on
	// every send, so it is a sharded open-addressing wordmap: the warm
	// path does one short read-locked probe instead of taking the binding
	// mutex, and an entry costs ~17 B instead of sync.Map's ~100 B — at a
	// million circuits the table itself is part of the memory budget
	// (DESIGN.md §14). Mutations still happen under mu so the closed flag
	// and the open/close sweeps stay coherent.
	circuits wordmap.Map[*LVC]

	mu      sync.Mutex
	opening map[addr.UAdd]chan struct{}
	aliases addr.TAddSource
	closed  bool

	// closedFlag mirrors closed for the lock-free inbound path: frames
	// dispatched after Close are dropped instead of delivered upward.
	closedFlag atomic.Bool

	// done closes when the binding shuts down, interrupting every
	// in-flight dial retry wait — a closing Nucleus must never block
	// behind a retry budget.
	done chan struct{}

	wg sync.WaitGroup

	// dialRetry is dialPolicy, budgeted by OpenTimeout and metered.
	dialRetry retry.Policy

	// Instruments, resolved once at construction; nil pointers no-op.
	framesIn    *stats.Counter
	framesOut   *stats.Counter
	bytesIn     *stats.Counter
	bytesOut    *stats.Counter
	redials     *stats.Counter
	circuitDead *stats.Counter
	circuitsUp  *stats.Gauge
	batches     *stats.Counter
	batchFrames *stats.Counter
	bpWaits     *stats.Counter
	bpErrors    *stats.Counter
	bpDrops     *stats.Counter
	bpNacksIn   *stats.Counter
	nacksOut    *stats.Counter
}

// New creates a binding: it opens the endpoint and starts accepting LVCs.
func New(cfg Config) (*Binding, error) {
	if cfg.Network == nil || cfg.Identity == nil || cfg.Cache == nil || cfg.Deliver == nil {
		return nil, errors.New("ndlayer: Network, Identity, Cache and Deliver are required")
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = 5 * time.Second
	}
	if cfg.CreditWaitMax <= 0 {
		cfg.CreditWaitMax = DefaultCreditWaitMax
	}
	dialRetry := dialPolicy
	dialRetry.Budget = cfg.OpenTimeout
	dialRetry.Retries = cfg.Stats.Counter(stats.RetryAttempts + ".nd_dial")
	dialRetry.GiveUps = cfg.Stats.Counter(stats.RetryGiveUps + ".nd_dial")
	l, err := cfg.Network.Listen(cfg.EndpointHint)
	if err != nil {
		return nil, fmt.Errorf("ndlayer: listen: %w", err)
	}
	b := &Binding{
		cfg:      cfg,
		network:  cfg.Network.ID(),
		listener: l,
		opening:  make(map[addr.UAdd]chan struct{}),
		done:     make(chan struct{}),

		dialRetry: dialRetry,

		framesIn:    cfg.Stats.Counter(stats.NDFramesIn),
		framesOut:   cfg.Stats.Counter(stats.NDFramesOut),
		bytesIn:     cfg.Stats.Counter(stats.NDBytesIn),
		bytesOut:    cfg.Stats.Counter(stats.NDBytesOut),
		redials:     cfg.Stats.Counter(stats.NDRedials),
		circuitDead: cfg.Stats.Counter(stats.NDCircuitDown),
		circuitsUp:  cfg.Stats.Gauge(stats.NDCircuitsUp),
		batches:     cfg.Stats.Counter(stats.NDBatches),
		batchFrames: cfg.Stats.Counter(stats.NDFramesPerBatch),
		bpWaits:     cfg.Stats.Counter(stats.NDBackpressureWaits),
		bpErrors:    cfg.Stats.Counter(stats.NDBackpressureErrors),
		bpDrops:     cfg.Stats.Counter(stats.NDBackpressureDrops),
		bpNacksIn:   cfg.Stats.Counter(stats.NDBackpressureNacksIn),
		nacksOut:    cfg.Stats.Counter(stats.NDNacks),
	}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// SetResolver installs the NSP-backed resolver. Before this (during
// bootstrap) only cached well-known addresses resolve.
func (b *Binding) SetResolver(r Resolver) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resolver = r
}

// Network returns the logical network identifier.
func (b *Binding) Network() string { return b.network }

// Endpoint returns this binding's own physical address record.
func (b *Binding) Endpoint() addr.Endpoint {
	return addr.Endpoint{
		Network: b.network,
		Addr:    b.listener.Addr(),
		Machine: b.cfg.Identity.Machine(),
	}
}

// Credit flow-control defaults: the receive window advertised at open
// (frames a peer may have in flight unconsumed), the bound on a blocking
// send's wait for credit, and the back-off advised to a refused sender
// (BackpressureError.SuggestedWait), which also spaces no-block probes.
const (
	DefaultCreditWindow  = 1024
	DefaultCreditWaitMax = 2 * time.Second
	backpressureWait     = 100 * time.Millisecond
)

// dialPolicy is "retry on open" (§2.2): three attempts on a jittered
// exponential backoff from 2ms rather than the fixed sleep of the 1986
// system, the whole sequence budgeted by the binding's OpenTimeout. A
// variable only so a test can stretch it; New copies it.
var dialPolicy = retry.Policy{
	Attempts:   3,
	BaseDelay:  2 * time.Millisecond,
	MaxDelay:   200 * time.Millisecond,
	Multiplier: 2,
	Jitter:     0.25,
}

// openInfo is the packed control payload of TOpen/TOpenAck: the identity
// exchange that fills endpoint caches without consulting the Name Server.
// Window is the sender's advertised receive window; a peer that advertises
// 0 is sent to uncredited.
type openInfo struct {
	Name     string
	Endpoint string
	Window   uint32
}

// advertisedWindow maps Config.CreditWindow onto the wire value.
func (b *Binding) advertisedWindow() uint32 {
	if b.cfg.CreditWindow <= 0 {
		return DefaultCreditWindow
	}
	return uint32(b.cfg.CreditWindow)
}

// Open returns the LVC to dst, establishing one if necessary.
func (b *Binding) Open(dst addr.UAdd) (*LVC, error) {
	return b.OpenContext(context.Background(), dst)
}

// OpenContext is Open honoring ctx: cancellation or an expiring deadline
// interrupts the dial retries and the single-flight wait.
func (b *Binding) OpenContext(ctx context.Context, dst addr.UAdd) (v *LVC, err error) {
	exit := b.cfg.Tracer.Enter(trace.LayerND, "open", "establish LVC", "above")
	defer func() { exit(err) }() // deferred so a panicking IPCS still closes the span
	v, err = b.open(ctx, dst)
	return v, err
}

func (b *Binding) open(ctx context.Context, dst addr.UAdd) (*LVC, error) {
	// Warm path: the circuit already exists — one short map probe.
	if v, ok := b.circuits.Load(uint64(dst)); ok {
		return v, nil
	}
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return nil, ErrClosed
		}
		if v, ok := b.circuits.Load(uint64(dst)); ok {
			b.mu.Unlock()
			return v, nil
		}
		if wait, inFlight := b.opening[dst]; inFlight {
			b.mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-b.done:
				return nil, ErrClosed
			}
			continue // re-check the table
		}
		done := make(chan struct{})
		b.opening[dst] = done
		b.mu.Unlock()

		v, hs, err := b.dial(ctx, dst)

		b.mu.Lock()
		delete(b.opening, dst)
		close(done)
		var evicted *LVC
		if err == nil {
			// A crossing inbound open may have landed a circuit for dst
			// while we were dialing. Swap, never Store: an LVC silently
			// overwritten in the table would keep its conn alive with
			// nothing left to close it.
			if prev, loaded := b.circuits.Swap(uint64(dst), v); loaded {
				evicted = prev
			} else {
				b.circuitsUp.Add(1)
			}
		}
		b.mu.Unlock()
		if err == nil {
			// Frames that raced the handshake replay in order before any
			// new delivery.
			hs.promote(v)
		}
		if evicted != nil && evicted != v {
			_ = evicted.Close()
		}
		return v, err
	}
}

// Lookup returns an existing LVC without opening one.
func (b *Binding) Lookup(dst addr.UAdd) (*LVC, bool) {
	return b.circuits.Load(uint64(dst))
}

// dial resolves, connects (with retry on open), and runs the open
// handshake. The retry waits select on ctx and the binding's close
// signal, so neither a caller deadline nor Binding.Close ever blocks
// behind the retry budget. On success it returns the un-promoted
// handshake conn; the caller promotes it once the LVC is in the table.
func (b *Binding) dial(ctx context.Context, dst addr.UAdd) (*LVC, *hsConn, error) {
	ep, ok := b.cfg.Cache.Find(dst, b.network)
	if !ok {
		b.mu.Lock()
		r := b.resolver
		b.mu.Unlock()
		if r == nil {
			return nil, nil, &FaultError{Peer: dst, Err: ErrNoEndpoint}
		}
		resolved, err := r.LookupEndpoint(dst, b.network)
		if err != nil {
			return nil, nil, &FaultError{Peer: dst, Err: fmt.Errorf("resolve: %w", err)}
		}
		ep = resolved
		b.cfg.Cache.Put(dst, ep)
	}

	var conn ipcs.Conn
	attempt := 0
	err := b.dialRetry.Do(ctx, b.done, func() error {
		attempt++
		if attempt > 1 {
			b.redials.Inc()
		}
		c, derr := b.cfg.Network.Dial(ep.Addr)
		if derr != nil {
			b.cfg.Errors.Report(errlog.CodeOpenRetry, "nd", "dial %v via %s attempt %d: %v", dst, ep.Addr, attempt, derr)
			return derr
		}
		conn = c
		return nil
	})
	if err != nil {
		// The cached endpoint is wrong or the module is gone: drop it so a
		// relocation can supply fresh information. Well-known addresses
		// (§3.4) are static configuration and are kept — the LCM-Layer's
		// Name-Server fault patch depends on being able to redial them.
		if !dst.IsWellKnown() {
			b.cfg.Cache.Delete(dst)
		}
		return nil, nil, &FaultError{Peer: dst, Err: err}
	}

	hs := startHS(conn)
	self := b.cfg.Identity
	info, err := pack.Marshal(openInfo{Name: self.Name(), Endpoint: b.listener.Addr(), Window: b.advertisedWindow()})
	if err != nil {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("ndlayer: marshal open info: %w", err)
	}
	h := wire.Header{
		Type:       wire.TOpen,
		Src:        self.UAdd(),
		Dst:        dst,
		SrcMachine: self.Machine(),
		Mode:       wire.ModePacked,
	}
	if h.Src.IsTemp() {
		h.Flags |= wire.FlagSrcTAdd
	}
	frame, err := wire.Marshal(h, info)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	if err := conn.Send(frame); err != nil {
		_ = conn.Close()
		return nil, nil, &FaultError{Peer: dst, Err: err}
	}

	ackH, ackPayload, err := hs.waitFirst(b.cfg.OpenTimeout)
	if err != nil {
		_ = conn.Close()
		return nil, nil, &FaultError{Peer: dst, Err: fmt.Errorf("open handshake: %w", err)}
	}
	if ackH.Type != wire.TOpenAck {
		_ = conn.Close()
		return nil, nil, &FaultError{Peer: dst, Err: fmt.Errorf("%w: got %v", ErrOpenRejected, ackH.Type)}
	}
	if ackH.Src != dst {
		// The endpoint is occupied by a different module (the address was
		// reused after a relocation): an address fault.
		_ = conn.Close()
		b.cfg.Cache.Delete(dst)
		return nil, nil, &FaultError{Peer: dst, Err: fmt.Errorf("%w: %v", ErrWrongModule, ackH.Src)}
	}
	var ackInfo openInfo
	if err := pack.Unmarshal(ackPayload, &ackInfo); err != nil {
		_ = conn.Close()
		return nil, nil, &FaultError{Peer: dst, Err: fmt.Errorf("%w: open info: %v", ErrOpenRejected, err)}
	}
	if ackInfo.Endpoint != "" {
		b.cfg.Cache.Put(dst, addr.Endpoint{
			Network: b.network,
			Addr:    ackInfo.Endpoint,
			Machine: ackH.SrcMachine,
		})
	}

	return newLVC(b, conn, dst, ackH.SrcMachine, ackInfo.Name, addr.Nil, ackInfo.Window), hs, nil
}

// hsMsg is one callback delivery buffered during the open handshake.
type hsMsg struct {
	data []byte
	err  error
}

// hsConn owns a conn's receive callback from the moment the conn exists:
// the substrate contract wants Start called exactly once, but the frames
// arriving first belong to the open handshake while everything after
// belongs to the circuit. hsConn routes the first delivery to the
// handshake, buffers any that race ahead of promotion, and replays them
// in order once promote installs the circuit.
//
// hsConn lives as long as the conn (the substrate holds its callback), so
// all state the handshake alone needs sits behind one pointer dropped at
// promotion: the steady state keeps only the mutex and the circuit
// pointer resident per circuit (24 B, against ~72 with the handshake
// fields inline — per-conn residue is on the C1M budget, DESIGN.md §14).
type hsConn struct {
	mu sync.Mutex
	v  *LVC       // non-nil once promoted; deliveries route to v.b.onRaw
	p  *hsPending // handshake state; nil once promoted
}

// hsPending is the handshake-lifetime half of hsConn. conn and first are
// written once before the callback is registered and never mutated;
// gotOne and early are guarded by hsConn.mu.
type hsPending struct {
	conn   ipcs.Conn
	first  chan hsMsg // capacity 1: the handshake frame (or error)
	gotOne bool
	early  []hsMsg
}

func startHS(conn ipcs.Conn) *hsConn {
	h := &hsConn{p: &hsPending{conn: conn, first: make(chan hsMsg, 1)}}
	conn.Start(h.cb)
	return h
}

func (h *hsConn) cb(data []byte, err error) {
	h.mu.Lock()
	if v := h.v; v != nil {
		h.mu.Unlock()
		v.b.onRaw(v, data, err)
		return
	}
	p := h.p // non-nil: promote installs v before clearing p, under mu
	if !p.gotOne {
		p.gotOne = true
		h.mu.Unlock()
		p.first <- hsMsg{data: data, err: err}
		return
	}
	p.early = append(p.early, hsMsg{data: data, err: err})
	h.mu.Unlock()
}

// waitFirst returns the handshake frame, closing the conn on timeout.
// Only the handshake goroutine calls it, strictly before promote, so
// reading h.p without the lock is safe (and it touches only the
// write-once fields).
func (h *hsConn) waitFirst(timeout time.Duration) (wire.Header, []byte, error) {
	t := retry.GetTimer(timeout)
	defer retry.PutTimer(t)
	select {
	case m := <-h.p.first:
		if m.err != nil {
			return wire.Header{}, nil, m.err
		}
		return wire.Unmarshal(m.data)
	case <-t.C:
		_ = h.p.conn.Close()
		return wire.Header{}, nil, errors.New("ndlayer: open handshake timed out")
	}
}

// promote installs the circuit. Early arrivals are replayed under the
// lock: a concurrent substrate callback blocks on mu until the replay
// finishes, which preserves serial FIFO delivery. promote is called only
// after waitFirst has returned, so dropping the pending state here cannot
// race the handshake reader.
func (h *hsConn) promote(v *LVC) {
	h.mu.Lock()
	for _, m := range h.p.early {
		v.b.onRaw(v, m.data, m.err)
	}
	h.v = v
	h.p = nil
	h.mu.Unlock()
}

// acceptLoop services inbound LVC opens.
func (b *Binding) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.listener.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.handleInbound(conn)
	}
}

// handleInbound runs the responder side of the open protocol.
func (b *Binding) handleInbound(conn ipcs.Conn) {
	defer b.wg.Done()
	hs := startHS(conn)
	h, payload, err := hs.waitFirst(b.cfg.OpenTimeout)
	if err != nil || h.Type != wire.TOpen {
		_ = conn.Close()
		return
	}
	exit := b.cfg.Tracer.Enter(trace.LayerND, "accept", "inbound LVC", "peer "+h.Src.String())
	var aerr error
	defer func() { exit(aerr) }() // deferred so a panicking codec still closes the span

	var info openInfo
	if err := pack.Unmarshal(payload, &info); err != nil {
		// A zero Window would mean "uncredited": a frame that does not parse
		// must not get to switch flow control off. Refuse the open.
		_ = conn.Close()
		aerr = fmt.Errorf("open info: %w", err)
		return
	}

	peer := h.Src
	var remoteTAdd addr.UAdd
	if h.Flags&wire.FlagSrcTAdd != 0 {
		// §3.4: the source TAdd is not unique to us; assign our own.
		remoteTAdd = h.Src
		peer = b.aliases.Next()
		if info.Endpoint != "" {
			// Cache under the alias so routed sends to it work until the
			// real UAdd replaces it.
			b.cfg.Cache.Put(peer, addr.Endpoint{
				Network: b.network,
				Addr:    info.Endpoint,
				Machine: h.SrcMachine,
			})
		}
	} else if info.Endpoint != "" {
		b.cfg.Cache.Put(peer, addr.Endpoint{
			Network: b.network,
			Addr:    info.Endpoint,
			Machine: h.SrcMachine,
		})
	}

	v := newLVC(b, conn, peer, h.SrcMachine, info.Name, remoteTAdd, info.Window)

	self := b.cfg.Identity
	ackInfo, err := pack.Marshal(openInfo{Name: self.Name(), Endpoint: b.listener.Addr(), Window: b.advertisedWindow()})
	if err != nil {
		_ = conn.Close()
		aerr = err
		return
	}
	ack := wire.Header{
		Type:       wire.TOpenAck,
		Src:        self.UAdd(),
		Dst:        h.Src,
		SrcMachine: self.Machine(),
		Mode:       wire.ModePacked,
	}
	frame, err := wire.Marshal(ack, ackInfo)
	if err != nil {
		_ = conn.Close()
		aerr = err
		return
	}
	if err := conn.Send(frame); err != nil {
		_ = conn.Close()
		aerr = err
		return
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = conn.Close()
		aerr = ErrClosed
		return
	}
	// Swap, never Store: a dialed circuit to the same peer may already be
	// in the table, and overwriting it would leak its conn past
	// Binding.Close (see open).
	var evicted *LVC
	if prev, loaded := b.circuits.Swap(uint64(peer), v); loaded {
		evicted = prev
	} else {
		b.circuitsUp.Add(1)
	}
	b.mu.Unlock()
	if evicted != nil && evicted != v {
		_ = evicted.Close()
	}
	hs.promote(v)
}

// onRaw is the circuit's receive callback: it runs on the connection's
// receive goroutine (a memnet pipe's drain, a tcpnet conn's reader),
// serially per connection, and only while the connection has traffic.
func (b *Binding) onRaw(v *LVC, data []byte, err error) {
	if err != nil {
		b.circuitDown(v, err)
		return
	}
	h, payload, uerr := wire.Unmarshal(data)
	if uerr != nil {
		b.cfg.Errors.Report(errlog.CodeUnknowncontrol, "nd", "bad frame from %v: %v", v.Peer(), uerr)
		return
	}
	b.framesIn.Inc()
	b.bytesIn.Add(uint64(len(data)))
	if b.cfg.Tracer.On() {
		b.cfg.Tracer.Span(h.Span, trace.LayerND, "frame-in", b.network)
	}
	b.noteFrame(v, &h)
	switch h.Type {
	case wire.TCredit:
		v.onCredit(h)
		return
	case wire.TNack:
		v.onNack(h)
		return
	}
	if b.closedFlag.Load() {
		return
	}
	if h.Type == wire.TData && !v.noteData() {
		return // overrun: dropped and NACKed, never delivered
	}
	b.cfg.Deliver(Inbound{Header: h, Payload: payload, Raw: data, Via: v})
	if h.Type == wire.TData {
		v.maybeGrant(false)
	}
}

// noteFrame applies the §3.4 replacement rule and the alias rewrite for
// TAdd peers. The common case — a peer opened with its real UAdd, so
// remoteTAdd is Nil — is a single atomic load.
func (b *Binding) noteFrame(v *LVC, h *wire.Header) {
	remote := addr.UAdd(v.remoteTAdd.Load())
	if remote == addr.Nil {
		return
	}
	alias := v.Peer()
	if !alias.IsTemp() {
		return
	}
	if h.Flags&wire.FlagSrcTAdd != 0 {
		if h.Src == remote {
			// Present the peer under our local alias.
			h.Src = alias
		}
		return
	}
	// First message from the peer's real UAdd: purge the alias everywhere.
	real := h.Src
	if real == addr.Nil || real.IsTemp() {
		return
	}
	// The CAS elects exactly one replacer; frames racing past it see
	// remoteTAdd already Nil and take the fast path above.
	if !v.remoteTAdd.CompareAndSwap(uint64(remote), uint64(addr.Nil)) {
		return
	}
	v.peer.Store(uint64(real))

	if b.circuits.CompareAndDelete(uint64(alias), v) {
		// Rekey, not a new circuit: the gauge is unchanged unless the real
		// UAdd already had a circuit, which the swap supersedes.
		if prev, loaded := b.circuits.Swap(uint64(real), v); loaded {
			b.circuitsUp.Add(-1)
			if prev != v {
				_ = prev.Close()
			}
		}
	}
	b.cfg.Cache.Replace(alias, real)
	b.cfg.Errors.Report(errlog.CodeTAddReplaced, "nd", "%v replaced by %v", alias, real)
	if b.cfg.OnTAddReplaced != nil {
		b.cfg.OnTAddReplaced(alias, real)
	}
}

// circuitDown removes a dead LVC and notifies upward.
func (b *Binding) circuitDown(v *LVC, err error) {
	v.markClosed()
	peer := v.Peer()
	if b.circuits.CompareAndDelete(uint64(peer), v) {
		b.circuitsUp.Add(-1)
	}
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	b.circuitDead.Inc()
	b.cfg.Errors.Report(errlog.CodeCircuitDead, "nd", "circuit to %v: %v", peer, err)
	if b.cfg.OnCircuitDown != nil {
		b.cfg.OnCircuitDown(peer, v, err)
	}
}

// Send opens (if needed) the LVC to dst and transmits one frame.
func (b *Binding) Send(dst addr.UAdd, h wire.Header, payload []byte) error {
	v, err := b.Open(dst)
	if err != nil {
		return err
	}
	return v.Send(h, payload)
}

// Drop closes and forgets the LVC to dst, if any (used when upper layers
// decide an address is stale).
func (b *Binding) Drop(dst addr.UAdd) {
	if v, ok := b.circuits.LoadAndDelete(uint64(dst)); ok {
		b.circuitsUp.Add(-1)
		_ = v.Close()
	}
}

// Circuits returns the peers with live LVCs.
func (b *Binding) Circuits() []addr.UAdd {
	var out []addr.UAdd
	b.circuits.Range(func(k uint64, _ *LVC) bool {
		out = append(out, addr.UAdd(k))
		return true
	})
	return out
}

// TAddAliasCount reports how many circuit-table keys are still TAdd
// aliases — the §3.4 purge assertion.
func (b *Binding) TAddAliasCount() int {
	n := 0
	b.circuits.Range(func(k uint64, _ *LVC) bool {
		if addr.UAdd(k).IsTemp() {
			n++
		}
		return true
	})
	return n
}

// Flush waits until every circuit's send queue has drained to the
// substrate (or ctx expires). Close drops queued frames; a graceful
// shutdown (Detach, Drain) calls Flush first so every send that already
// returned success reaches the wire before the binding comes down.
func (b *Binding) Flush(ctx context.Context) error {
	for {
		pending := false
		b.circuits.Range(func(_ uint64, v *LVC) bool {
			if v.queuePending() {
				pending = true
				return false
			}
			return true
		})
		if !pending || b.closedFlag.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close shuts the binding down: the endpoint closes and every LVC breaks.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.closedFlag.Store(true)
	close(b.done)
	var circuits []*LVC
	b.circuits.Range(func(k uint64, v *LVC) bool {
		circuits = append(circuits, v)
		b.circuits.Delete(k)
		b.circuitsUp.Add(-1)
		return true
	})
	b.mu.Unlock()

	err := b.listener.Close()
	for _, v := range circuits {
		_ = v.Close()
	}
	b.wg.Wait()
	return err
}

// LVC is one local virtual circuit.
//
// The send path holds no mutex: peer identity, the closed flag and the
// sender-side credit words are atomics, and everything else is immutable
// after open. The only writer of peer after construction is the single
// §3.4 TAdd replacement in noteFrame, elected by CAS.
//
// The struct is deliberately small (~96 B): a million idle circuits must
// fit in one process (DESIGN.md §14). Everything an idle circuit never
// touches — the credit gate, receiver-side grant accounting and the
// group-commit queue with its parked relay frames — lives in the lazily
// allocated cold block, installed by coldState on first use.
type LVC struct {
	b    *Binding
	conn ipcs.Conn

	// peer (and remoteTAdd while the peer is still on a TAdd) hold
	// addr.UAdd bits. Rewritten at most once, read on every frame.
	peer       atomic.Uint64
	remoteTAdd atomic.Uint64

	// Sender-side credit words. The scheme is cumulative and
	// loss-tolerant: the receiver grants its total consumed-frame count
	// (TCredit, Seq = count), so a lost grant is subsumed by the next
	// one; the sender bounds tx − grant by the peer's advertised window.
	// A sender stuck waiting probes with TCredit+FlagCall carrying its
	// own tx count; because the substrate is FIFO per connection,
	// everything sent before the probe has either arrived or is
	// definitively lost by the time the receiver processes it, so the
	// receiver can resynchronize its consumed count to the probe's tx —
	// leaked credits from lost frames heal instead of accumulating.
	tx    atomic.Uint32
	grant atomic.Uint32

	// Immutable after open. txWindow is the peer's advertised receive
	// window (0 = uncredited); rxWindow is ours. id is process-unique,
	// used by upper layers to shard work and key relay tables by source
	// circuit without holding any LVC state. peerName is interned: every
	// circuit to the same module shares one string backing.
	txWindow    uint32
	rxWindow    uint32
	id          uint32
	peerMachine machine.Type
	closed      atomic.Bool
	peerName    string

	// cold holds the rarely touched state, nil until first use.
	cold atomic.Pointer[lvcCold]
}

// lvcCold is the lazily allocated cold half of an LVC: state only a
// circuit that has carried a frame ever needs — the credit gate, receive
// accounting and the write queue. An idle mesh endpoint never allocates
// one.
//
// Lazy installation is race-safe without extra ordering because every
// access goes through atomics with sequentially consistent semantics: a
// writer that publishes an event (grant store, closed store) and then
// loads cold == nil is ordered before the waiter's cold install, so the
// waiter's post-install re-check of the event word must observe it.
type lvcCold struct {
	// gate wakes credit-blocked senders when a grant or NACK arrives.
	gateMu sync.Mutex
	gateCh chan struct{}

	// Receiver side, guarded by rxMu (touched from the serial receive
	// path and from NackBackpressure).
	rxMu      sync.Mutex
	rxCount   uint32
	lastGrant uint32

	// probeTx and probeNs record the last probe a refused no-block send
	// sent (tx value, unix nanos): see probeRefused.
	probeTx atomic.Uint32
	probeNs atomic.Int64

	// sq is the group-commit writer, installed by sendQ on the circuit's
	// first send. It also holds the relay frames parked for credit.
	sq atomic.Pointer[sendQueue]
}

// coldState returns the circuit's cold block, installing it on first use.
func (v *LVC) coldState() *lvcCold {
	if c := v.cold.Load(); c != nil {
		return c
	}
	c := new(lvcCold)
	if v.cold.CompareAndSwap(nil, c) {
		return c
	}
	return v.cold.Load()
}

// sendQ returns the group-commit queue, installing it on first use.
func (v *LVC) sendQ() *sendQueue {
	c := v.coldState()
	if q := c.sq.Load(); q != nil {
		return q
	}
	q := newSendQueue(v)
	if c.sq.CompareAndSwap(nil, q) {
		return q
	}
	return c.sq.Load()
}

// queuePending reports whether the group-commit queue holds frames or a
// flush pass is in flight — false for circuits that never sent. Parked
// relay frames wait for the peer's credit, not for the writer, and do not
// count.
func (v *LVC) queuePending() bool {
	c := v.cold.Load()
	if c == nil {
		return false
	}
	q := c.sq.Load()
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries) > 0 || q.scheduled
}

// wake releases every sender parked on the credit gate. A nil cold block
// means no sender ever parked: nothing to wake (see lvcCold for why the
// nil check cannot miss a racing waiter).
func (v *LVC) wake() {
	c := v.cold.Load()
	if c == nil {
		return
	}
	c.gateMu.Lock()
	if c.gateCh != nil {
		close(c.gateCh)
		c.gateCh = nil
	}
	c.gateMu.Unlock()
}

// waitCh returns a channel closed at the next wake.
func (v *LVC) waitCh() <-chan struct{} {
	c := v.coldState()
	c.gateMu.Lock()
	if c.gateCh == nil {
		c.gateCh = make(chan struct{})
	}
	ch := c.gateCh
	c.gateMu.Unlock()
	return ch
}

// cumGE reports a ≥ b under wraparound (cumulative counters).
func cumGE(a, b uint32) bool { return int32(a-b) >= 0 }

// lvcSeq hands every circuit a process-unique id. 32 bits keeps the LVC
// small and lets relay tables pack (circuit id, wire circuit) into one
// uint64 key; 4 billion opens outlive any process this serves.
var lvcSeq atomic.Uint32

// forceEagerCold is a test hook: when set, newLVC materializes the cold
// block up front, so the scale tests can measure the lazy layout against
// the eager one in the same process.
var forceEagerCold bool

func newLVC(b *Binding, conn ipcs.Conn, peer addr.UAdd, m machine.Type, name string, remoteTAdd addr.UAdd, peerWindow uint32) *LVC {
	v := &LVC{
		b:           b,
		conn:        conn,
		peerMachine: m,
		peerName:    intern(name),
		id:          lvcSeq.Add(1),
		txWindow:    peerWindow,
		rxWindow:    b.advertisedWindow(),
	}
	v.peer.Store(uint64(peer))
	v.remoteTAdd.Store(uint64(remoteTAdd))
	if forceEagerCold {
		v.coldState()
	}
	return v
}

// intern collapses duplicate strings onto one backing allocation. Peer
// names repeat across circuits (every circuit to the same module carries
// the same name), so a meshed process holds O(modules) name strings
// instead of O(circuits). The table grows with the set of distinct names
// ever seen — module names, bounded by configuration, not by traffic.
var (
	internMu  sync.Mutex
	internTab map[string]string
)

func intern(s string) string {
	if s == "" {
		return ""
	}
	internMu.Lock()
	defer internMu.Unlock()
	if t, ok := internTab[s]; ok {
		return t
	}
	if internTab == nil {
		internTab = make(map[string]string)
	}
	internTab[s] = s
	return s
}

// Peer returns the circuit's current peer UAdd (a local alias while the
// peer is still on a TAdd).
func (v *LVC) Peer() addr.UAdd { return addr.UAdd(v.peer.Load()) }

// PeerMachine returns the peer's machine type (learned at open).
func (v *LVC) PeerMachine() machine.Type { return v.peerMachine }

// PeerName returns the peer's logical name as presented at open.
func (v *LVC) PeerName() string { return v.peerName }

// ID returns a process-unique circuit identifier, stable for the
// circuit's lifetime (survives the §3.4 peer rekey).
func (v *LVC) ID() uint64 { return uint64(v.id) }

// Network returns the network this circuit runs over.
func (v *LVC) Network() string { return v.b.network }

// Send transmits one frame on the circuit. A failure closes the circuit
// and surfaces as a FaultError; exhausted send credit surfaces as a
// BackpressureError (immediately under wire.FlagNoBlock, after
// CreditWaitMax otherwise) and leaves the circuit up.
func (v *LVC) Send(h wire.Header, payload []byte) error {
	noBlock := h.Flags&wire.FlagNoBlock != 0
	h.Flags &^= wire.FlagNoBlock // local-only, never marshalled
	if h.Type == wire.TData && v.txWindow != 0 {
		if err := v.acquireCredit(noBlock, v.b.cfg.CreditWaitMax); err != nil {
			return err
		}
	}
	// The frame lives in a pooled buffer; the write queue takes ownership
	// and releases it once the frame has been written.
	frame, err := wire.MarshalBuf(h, payload)
	if err != nil {
		return err
	}
	if v.closed.Load() {
		frame.Release()
		return &FaultError{Peer: v.Peer(), Err: ipcs.ErrClosed}
	}
	inline := h.Flags&(wire.FlagCall|wire.FlagReply) != 0
	return v.sendCoalesced(frame.Bytes(), frame, h.Span, inline)
}

// SendRaw transmits an already-marshalled frame — the gateway cut-through
// path. SendRaw takes ownership of frame: the write may complete after
// SendRaw returns, so the caller must not touch the buffer again.
// (Inbound frames satisfy this: each arrives in its own freshly read
// buffer.)
//
// Data frames are credit-gated without ever blocking the caller — a
// relay runs on the upstream connection's receive goroutine, and parking
// it on a slow downstream would stall every circuit behind that
// connection. An exhausted window instead parks the frame in the
// circuit's send queue; a grant starts the queue's drain, which moves
// parked frames into its batch in order while credit lasts, so ordinary
// bursts relay losslessly across the grant round-trip. Only when a full
// advertised window is already parked (the downstream is genuinely
// choked, not merely in flight) does SendRaw refuse with a
// BackpressureError for the caller's drop-and-NACK policy.
func (v *LVC) SendRaw(frame []byte, span uint32) error {
	if v.closed.Load() {
		return &FaultError{Peer: v.Peer(), Err: ipcs.ErrClosed}
	}
	if v.txWindow != 0 && len(frame) >= wire.HeaderSize && wire.Type(frame[3]) == wire.TData {
		q := v.sendQ()
		q.mu.Lock()
		if len(q.parked) > 0 || !v.tryCredit() {
			if uint32(len(q.parked)) >= v.txWindow {
				q.mu.Unlock()
				v.b.bpErrors.Inc()
				return v.backpressureErr()
			}
			q.parked = append(q.parked, sendEntry{frame: frame, span: span})
			probe := len(q.parked) == 1
			q.mu.Unlock()
			if probe {
				// Entering the parked state: if the grant that should
				// reopen the window was lost, this resynchronizes the
				// accounting (and a healthy peer answers with the grant
				// that starts the drain).
				v.sendProbe()
			}
			return nil
		}
		q.mu.Unlock()
	}
	inline := wire.RawFlags(frame)&(wire.FlagCall|wire.FlagReply) != 0
	return v.sendCoalesced(frame, nil, span, inline)
}

// tryCredit claims one unit of send credit if the window is open: the
// lock-free fast path shared by blocking, no-block and relay senders.
func (v *LVC) tryCredit() bool {
	for {
		tx := v.tx.Load()
		if !v.inWindow(tx) {
			return false
		}
		if v.tx.CompareAndSwap(tx, tx+1) {
			return true
		}
	}
}

// kickParked starts the send queue's drain for parked relay frames on
// every event that can reopen the window: a grant and a NACK resync.
func (v *LVC) kickParked() {
	if c := v.cold.Load(); c != nil { // no cold block: nothing was ever parked
		if q := c.sq.Load(); q != nil {
			q.mu.Lock()
			q.kickLocked()
			q.mu.Unlock()
		}
	}
}

// acquireCredit claims one unit of the peer's receive window, waiting up
// to budget unless noBlock. The fast path is a single CAS.
func (v *LVC) acquireCredit(noBlock bool, budget time.Duration) error {
	if v.tryCredit() {
		return nil
	}
	if noBlock {
		v.probeRefused()
		v.b.bpErrors.Inc()
		return v.backpressureErr()
	}
	return v.awaitCredit(budget)
}

// probeRefused probes for a refused no-block send, which never reaches
// awaitCredit's probe: grants lost with dropped frames would otherwise
// refuse every later no-block send for good. So that a spinning caller
// cannot flood the peer, it probes once per tx value, and again only
// after backpressureWait in case that probe was lost.
func (v *LVC) probeRefused() {
	c := v.coldState()
	tx := v.tx.Load()
	last := c.probeNs.Load()
	now := time.Now().UnixNano()
	if c.probeTx.Load() == tx && now-last < int64(backpressureWait) {
		return
	}
	if !c.probeNs.CompareAndSwap(last, now) {
		return // a concurrent refusal is probing
	}
	c.probeTx.Store(tx)
	v.sendProbe()
}

// inWindow reports whether one more frame at send count tx fits the
// peer's advertised window.
func (v *LVC) inWindow(tx uint32) bool {
	return tx-v.grant.Load() < v.txWindow
}

// awaitCredit parks the sender until a grant admits it or the budget
// expires. Midway through the wait it probes the peer (TCredit+FlagCall
// with Seq = tx): grants lost with dropped frames are resynchronized by
// the probe reply, so a healthy circuit never waits out the full budget
// on stale accounting.
func (v *LVC) awaitCredit(budget time.Duration) error {
	v.b.bpWaits.Inc()
	deadline := time.Now().Add(budget)
	probed := false
	var t *time.Timer
	defer func() {
		if t != nil {
			retry.PutTimer(t)
		}
	}()
	for {
		ch := v.waitCh()
		// Re-check under the registered wait: a grant between the failed
		// CAS and waitCh would otherwise be missed.
		tx := v.tx.Load()
		if v.inWindow(tx) {
			if v.tx.CompareAndSwap(tx, tx+1) {
				return nil
			}
			continue
		}
		if v.closed.Load() {
			return &FaultError{Peer: v.Peer(), Err: ipcs.ErrClosed}
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			v.b.bpErrors.Inc()
			return v.backpressureErr()
		}
		wait := remaining
		if !probed && remaining > budget/2 {
			wait = remaining - budget/2
		}
		// One pooled timer for the whole wait, re-armed per round: under
		// credit famine a sender loops here once per grant, and the
		// get/put pair per round was pure timer churn.
		if t == nil {
			t = retry.GetTimer(wait)
		} else {
			t.Reset(wait)
		}
		select {
		case <-ch:
			if !t.Stop() {
				// Consume the raced fire so the reused timer cannot
				// deliver a stale tick on the next round.
				<-t.C
			}
		case <-t.C:
			if !probed {
				probed = true
				v.sendProbe()
			}
		}
	}
}

func (v *LVC) backpressureErr() error {
	return &BackpressureError{
		Peer:          v.Peer(),
		Circuit:       uint64(v.id),
		QueueDepth:    int(v.tx.Load() - v.grant.Load()),
		SuggestedWait: backpressureWait,
	}
}

// controlFrame marshals a payload-free flow-control frame.
func (v *LVC) controlFrame(t wire.Type, flags uint16, seq uint32) (*wire.Buf, error) {
	return wire.MarshalBuf(wire.Header{
		Type:       t,
		Flags:      flags,
		Src:        v.b.cfg.Identity.UAdd(),
		Dst:        v.Peer(),
		SrcMachine: v.b.cfg.Identity.Machine(),
		Seq:        seq,
	}, nil)
}

// sendControl transmits a payload-free flow-control frame directly on
// the conn (grants and NACKs are never themselves credit-gated or
// queued; the substrate serializes concurrent writers).
func (v *LVC) sendControl(t wire.Type, flags uint16, seq uint32) {
	if v.closed.Load() {
		return
	}
	frame, err := v.controlFrame(t, flags, seq)
	if err != nil {
		return
	}
	n := len(frame.Bytes())
	err = v.conn.Send(frame.Bytes())
	frame.Release()
	if err == nil {
		v.b.framesOut.Inc()
		v.b.bytesOut.Add(uint64(n))
	}
}

// sendProbe asks the peer to resynchronize and re-grant: Seq carries our
// cumulative sent count. The receiver trusts per-conn FIFO when it
// resyncs ("everything sent before this probe has arrived or is lost"),
// so the probe queues behind the data frames it accounts for, never
// inline — written directly it would overtake them and the resync would
// double-count.
func (v *LVC) sendProbe() {
	frame, err := v.controlFrame(wire.TCredit, wire.FlagCall, v.tx.Load())
	if err != nil {
		return
	}
	_ = v.sendCoalesced(frame.Bytes(), frame, 0, false)
}

// NackBackpressure tells the peer a frame it delivered here could not
// travel further — a gateway's downstream circuit refused it for want of
// credit — and was dropped. Seq carries the receive-side consumed count
// so the sender's watermark resyncs. Called by the IP-Layer relay; the
// circuit itself stays up.
func (v *LVC) NackBackpressure() {
	var seq uint32
	if v.rxWindow != 0 {
		c := v.coldState()
		c.rxMu.Lock()
		seq = c.rxCount
		c.rxMu.Unlock()
	}
	v.b.nacksOut.Inc()
	v.sendControl(wire.TNack, 0, seq)
}

// onCredit handles an inbound TCredit: either a peer's probe (FlagCall —
// resync our consumed count to its sent count and answer with a grant)
// or a grant (advance the cumulative consumed watermark).
func (v *LVC) onCredit(h wire.Header) {
	if h.Flags&wire.FlagCall != 0 {
		if v.rxWindow != 0 {
			c := v.coldState()
			c.rxMu.Lock()
			// FIFO conns mean every frame sent before this probe has
			// arrived or is lost for good: the probe's tx is the truth.
			if !cumGE(c.rxCount, h.Seq) {
				c.rxCount = h.Seq
			}
			c.rxMu.Unlock()
			v.maybeGrant(true)
		}
		return
	}
	v.advanceGrant(h.Seq)
}

// onNack handles an inbound TNack: the peer dropped a frame on overrun or
// a relay shed it downstream. Seq resynchronizes the consumed watermark,
// exactly as a grant would; the sender otherwise keeps its window.
func (v *LVC) onNack(h wire.Header) {
	v.b.bpNacksIn.Inc()
	v.advanceGrant(h.Seq)
}

// advanceGrant raises the cumulative consumed watermark to seq (never
// lowers it), then wakes credit-blocked senders and drains parked relays.
func (v *LVC) advanceGrant(seq uint32) {
	for {
		old := v.grant.Load()
		if cumGE(old, seq) || v.grant.CompareAndSwap(old, seq) {
			break
		}
	}
	v.wake()
	v.kickParked()
}

// noteData accounts one inbound data frame on the receiver side. It
// reports false — drop, NACK — when the sender overran our advertised
// window: rxCount can only exceed lastGrant+window if the peer ignored
// its credit bound, because losses merely undercount rxCount.
func (v *LVC) noteData() bool {
	if v.rxWindow == 0 {
		return true
	}
	c := v.coldState()
	c.rxMu.Lock()
	if !cumGE(c.lastGrant+v.rxWindow, c.rxCount+1) {
		consumed := c.rxCount
		c.rxMu.Unlock()
		v.b.nacksOut.Inc()
		v.sendControl(wire.TNack, 0, consumed)
		return false
	}
	c.rxCount++
	c.rxMu.Unlock()
	return true
}

// maybeGrant sends a cumulative credit grant when enough has been
// consumed since the last one (half the window). force skips the
// threshold (probe replies).
func (v *LVC) maybeGrant(force bool) {
	if v.rxWindow == 0 {
		return
	}
	c := v.coldState()
	c.rxMu.Lock()
	owed := c.rxCount - c.lastGrant
	if owed == 0 && !force {
		c.rxMu.Unlock()
		return
	}
	if !force && owed < v.rxWindow/2 {
		c.rxMu.Unlock()
		return
	}
	seq := c.rxCount
	c.lastGrant = seq
	c.rxMu.Unlock()
	v.sendControl(wire.TCredit, 0, seq)
}

func (v *LVC) markClosed() {
	v.closed.Store(true)
	v.wake() // credit waiters observe the close
	c := v.cold.Load()
	if c == nil {
		// No cold block means nothing parked and nothing queued. A sender
		// installing one concurrently re-checks closed after the install
		// (sendCoalesced under q.mu, awaitCredit after waitCh), so it
		// cannot strand work behind this load.
		return
	}
	if q := c.sq.Load(); q != nil {
		// Parked relay frames die with the circuit (their upstream learns
		// of the fault through the relay teardown, not a NACK). Wake
		// anyone waiting on a full queue, and start a final flush pass so
		// queued buffers are released.
		q.mu.Lock()
		q.parked = nil
		q.space.Broadcast()
		q.kickLocked()
		q.mu.Unlock()
	}
}

// Close tears the circuit down and forgets it immediately, so a
// subsequent Open dials afresh rather than finding the corpse.
func (v *LVC) Close() error {
	v.markClosed()
	if v.b.circuits.CompareAndDelete(uint64(v.Peer()), v) {
		v.b.circuitsUp.Add(-1)
	}
	return v.conn.Close()
}

// sendQueue is the per-LVC group-commit writer, the only way a data
// frame reaches the conn. Senders only append their frame to the queue;
// the one that finds it idle starts the queue's drain goroutine, which
// swaps the queue out under the lock and writes everything it found in
// one vectored SendBatch, looping until the queue is empty: no goroutine
// for an idle circuit, one for a busy one. Under load the pipeline runs
// one batch deep behind the producers, which is where the syscall
// coalescing comes from. Relay frames parked for credit (SendRaw) wait
// beside the queue; each batch takes as many as grants allow, behind the
// frames queued before them.
//
// A queued send reports success at enqueue time; a transmission failure
// surfaces on the drain's pass, which closes the circuit, so every later
// send observes the FaultError. That is the delivery contract any socket
// write has — a frame accepted by the kernel's buffer may still never
// arrive. Frames still queued when the binding closes are dropped;
// Binding.Flush is how a graceful shutdown gets them out first.
type sendQueue struct {
	v   *LVC
	run func() // q.Run, bound once so starting a drain allocates nothing

	mu        sync.Mutex
	space     *sync.Cond // waits for room when entries is at capacity
	scheduled bool       // a drain is running (or an inline write is in progress)
	entries   []sendEntry
	drain     []sendEntry // double-buffer swapped with entries by the drain
	parked    []sendEntry // relay frames waiting for credit, at most txWindow
	scratch   [][]byte    // iovec list reused across batches
}

// sendQueueCap bounds how many frames may wait ahead of the drain;
// beyond it, senders block for room, the backpressure a saturated
// socket write would exert.
const sendQueueCap = 256

func newSendQueue(v *LVC) *sendQueue {
	q := &sendQueue{v: v}
	q.run = q.Run
	q.space = sync.NewCond(&q.mu)
	return q
}

// sendEntry is one queued frame.
type sendEntry struct {
	frame []byte
	buf   *wire.Buf // released by the drain after transmission; may be nil (SendRaw)
	span  uint32
}

// sendCoalesced routes one frame through the group-commit writer. buf,
// when non-nil, is the pooled backing of frame and is released once the
// frame has been written. The queue takes ownership of frame either way.
//
// inline marks latency-sensitive frames (calls and replies): when the
// queue is idle — empty and no drain in flight — the frame is written
// synchronously on the caller's goroutine instead of paying the
// enqueue→goroutine hop, which would put a scheduling round trip under
// every RPC. The scheduled flag doubles as the writer exclusion: senders
// arriving during the inline write enqueue behind it and are flushed
// right after, so per-circuit FIFO holds, and a pipelined producer
// (queue non-empty) still batches exactly as before.
func (v *LVC) sendCoalesced(frame []byte, buf *wire.Buf, span uint32, inline bool) error {
	q := v.sendQ()
	q.mu.Lock()
	if inline && !q.scheduled && len(q.entries) == 0 {
		q.scheduled = true
		q.mu.Unlock()
		one := [1]sendEntry{{frame: frame, buf: buf, span: span}}
		err := q.write(one[:])
		// Drain what queued or was granted during the write (markClosed
		// and kickParked start nothing while scheduled is set).
		q.mu.Lock()
		q.scheduled = false
		q.kickLocked()
		q.mu.Unlock()
		return err
	}
	for len(q.entries) >= sendQueueCap && !v.closed.Load() {
		q.space.Wait()
	}
	if v.closed.Load() {
		q.mu.Unlock()
		if buf != nil {
			buf.Release()
		}
		return &FaultError{Peer: v.Peer(), Err: ipcs.ErrClosed}
	}
	q.entries = append(q.entries, sendEntry{frame: frame, buf: buf, span: span})
	q.kickLocked()
	q.mu.Unlock()
	return nil
}

// kickLocked starts the queue's drain if it holds frames and no drain is
// in flight. Caller holds q.mu.
func (q *sendQueue) kickLocked() {
	if !q.scheduled && (len(q.entries) > 0 || len(q.parked) > 0) {
		q.scheduled = true
		ipcs.StartDrain(q.run)
	}
}

// Run is the queue's drain: it writes batch after batch until the queue
// is empty and no parked frame has credit, then clears the scheduled
// flag and returns. Each batch is the queued frames, then as many parked
// relay frames as the peer's window admits. No lock is held across any
// write.
func (q *sendQueue) Run() {
	v := q.v
	q.mu.Lock()
	for {
		n := 0
		for n < len(q.parked) && v.tryCredit() {
			n++
		}
		batch := append(q.entries, q.parked[:n]...)
		if q.parked = slices.Delete(q.parked, 0, n); len(q.parked) == 0 {
			q.parked = nil // an ended park episode gives its array back
		}
		if len(batch) == 0 {
			q.scheduled = false
			q.mu.Unlock()
			return
		}
		q.entries = q.drain[:0]
		q.drain = batch
		q.space.Broadcast()
		q.mu.Unlock()

		if v.closed.Load() {
			for i := range batch {
				if batch[i].buf != nil {
					batch[i].buf.Release()
				}
				batch[i].frame, batch[i].buf = nil, nil
			}
		} else {
			// A failed write closed the circuit; the next send reports it.
			_ = q.write(batch)
		}
		q.mu.Lock()
	}
}

// write transmits one batch and releases its buffers: the tail of every
// LVC write — metering, tracing, and on failure closing the circuit and
// returning the FaultError. The caller holds the scheduled flag, so
// writes (and the reused iovec list) never overlap.
func (q *sendQueue) write(batch []sendEntry) error {
	v := q.v
	msgs := q.scratch[:0]
	total := 0
	for i := range batch {
		msgs = append(msgs, batch[i].frame)
		total += len(batch[i].frame)
	}
	q.scratch = msgs
	var err error
	if len(msgs) == 1 {
		err = v.conn.Send(msgs[0])
	} else {
		err = v.conn.SendBatch(msgs)
	}
	if err != nil {
		_ = v.Close() // also forgets the circuit
		err = &FaultError{Peer: v.Peer(), Err: err}
	} else {
		if len(msgs) > 1 {
			v.b.batches.Inc()
			v.b.batchFrames.Add(uint64(len(msgs)))
		}
		v.b.framesOut.Add(uint64(len(msgs)))
		v.b.bytesOut.Add(uint64(total))
	}
	for i := range msgs {
		msgs[i] = nil // drop frame refs from the reused iovec list
	}
	traceOn := err == nil && v.b.cfg.Tracer.On()
	for i := range batch {
		e := &batch[i]
		if traceOn {
			v.b.cfg.Tracer.Span(e.span, trace.LayerND, "frame-out", v.b.network)
		}
		if e.buf != nil {
			e.buf.Release()
		}
		e.frame, e.buf = nil, nil
	}
	return err
}
