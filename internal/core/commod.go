// Package core implements the ComMod of paper §2.1 and §2.4: "Each
// application process must bind with a passive communication module
// (ComMod), which is the only aspect of the NTCS visible to the
// application. To the application, the ComMod is the NTCS."
//
// A Module stacks the full Figure 2-4 ComMod: the ALI-Layer veneer
// ("provides the application interface primitives from the Nucleus and
// NSP-Layer services, tailors the error returns, and performs parameter
// checking"), the NSP-Layer, and the Nucleus (LCM/IP/ND). Attach also
// runs the module lifecycle of §3.2: create communication resources,
// self-assign a TAdd, register with the naming service, adopt the
// assigned UAdd, and announce it (purging the TAdds, §3.4).
//
// The ComMod owns the data-conversion decision of §5: image mode between
// layout-compatible machines, packed mode otherwise, selected per
// destination from cached machine types and adapting as modules relocate.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/nameserver"
	"ntcs/internal/nsp"
	"ntcs/internal/nucleus"
	"ntcs/internal/pack"
	"ntcs/internal/stats"
	"ntcs/internal/trace"
	"ntcs/internal/wire"
)

// Kind selects the module's role in the system.
type Kind int

// Module kinds.
const (
	KindApplication Kind = iota + 1
	KindGateway          // relays chained circuits (§4)
	KindNameServer       // serves the naming database (§3)
)

// Errors tailored by the ALI-Layer.
var (
	ErrBadName      = errors.New("ntcs: module name must be non-empty")
	ErrBadDest      = errors.New("ntcs: destination address is nil")
	ErrBadType      = errors.New("ntcs: message type must be non-empty")
	ErrDetached     = errors.New("ntcs: module is detached")
	ErrNotConverter = errors.New("ntcs: no converter registered and body is not auto-packable")
)

// Converter supplies the application's pack/unpack functions of §5.1.
// Either function may be nil, in which case the automatic derivation
// (pack.Marshal/Unmarshal, reproducing [22]) applies.
//
// Pack appends the packed form of body to dst and returns the extended
// slice, in the strconv.AppendInt idiom: dst is the message envelope, so
// the body is written once, in place. The format is the application's own.
// Whatever Pack appends before it returns an error is discarded. Unpack
// reads data, a view of the received frame, into out.
type Converter struct {
	Pack   func(dst []byte, body any) ([]byte, error)
	Unpack func(data []byte, out any) error
}

// Config assembles a Module.
type Config struct {
	// Name is the module's logical name (§2.3).
	Name string
	// Attrs carries the attribute-value naming extensions; "role" guides
	// relocation matching (§3.5), "type" marks gateways and name servers.
	Attrs map[string]string
	// Machine is the simulated machine type of the module's host.
	Machine machine.Type
	// Networks attaches the module; one ND binding is created per entry.
	Networks []ipcs.Network
	// EndpointHints optionally fixes physical addresses per network ID.
	EndpointHints map[string]string
	// WellKnown preloads the address tables (§3.4).
	WellKnown addr.WellKnown
	// Kind selects application (default), gateway, or name server.
	Kind Kind
	// FixedUAdd assigns a well-known UAdd (prime gateways, name servers).
	FixedUAdd addr.UAdd
	// ServerID stamps generated UAdds (name servers only; §3.2).
	ServerID uint16
	// ResolveTTL leases resolved naming records in the NSP layer: within
	// the lease, Locate/Lookup answer locally. Zero disables the cache
	// (every resolution is a naming round trip).
	ResolveTTL time.Duration
	// ResolveCacheSize bounds the NSP record cache; 0 selects the default.
	ResolveCacheSize int
	// NSAntiEntropy, when positive, runs periodic digest reconciliation
	// between name-server replicas (name servers only).
	NSAntiEntropy time.Duration
	// NSTombstoneTTL, when positive, garbage-collects dead naming records
	// this long after death (name servers only).
	NSTombstoneTTL time.Duration
	// Timeouts; zero selects defaults.
	CallTimeout time.Duration
	OpenTimeout time.Duration
	// InboxSize bounds undelivered messages.
	InboxSize int
	// CreditWindow is the per-circuit receive window this module
	// advertises: how many unconsumed data frames a peer may have in
	// flight toward it. Zero or less selects the default (1024).
	CreditWindow int
	// CreditWaitMax bounds how long a blocking send waits for circuit
	// credit before failing with ErrBackpressure; default 2s.
	CreditWaitMax time.Duration
}

// identity is the mutable module identity: a TAdd until registration
// completes, the assigned UAdd afterwards.
type identity struct {
	u    atomic.Uint64 // addr.UAdd bits: read on every send, written once
	m    machine.Type
	name string
}

func newIdentity(u addr.UAdd, m machine.Type, name string) *identity {
	id := &identity{m: m, name: name}
	id.u.Store(uint64(u))
	return id
}

func (id *identity) UAdd() addr.UAdd {
	return addr.UAdd(id.u.Load())
}

func (id *identity) set(u addr.UAdd) {
	id.u.Store(uint64(u))
}

func (id *identity) Machine() machine.Type { return id.m }
func (id *identity) Name() string          { return id.name }

// Module is one attached NTCS module: the application's entire view of
// the communication system.
type Module struct {
	cfg    Config
	id     *identity
	nuc    *nucleus.Nucleus
	naming *nsp.Layer
	tracer *trace.Tracer
	errs   *errlog.Table
	stats  *stats.Registry

	// DestCache instruments (hot path: resolved once here).
	destHits   *stats.Counter
	destMisses *stats.Counter

	convMu sync.RWMutex
	conv   map[string]Converter

	hooksMu sync.Mutex
	hooks   lcm.Hooks

	// Name server role only.
	db     *nameserver.DB
	server *nameserver.Server

	// unanswered counts calls Recv has handed to the application that
	// neither Reply nor ReplyError has answered yet: the served-but-not-
	// finished work Drain waits for.
	unanswered atomic.Int64

	leaveOnce  sync.Once
	detachOnce sync.Once
	detached   chan struct{}
}

// Attach binds a module to the NTCS: it creates the communication
// resources, registers with the naming service, and returns the live
// ComMod (§3.2).
func Attach(cfg Config) (*Module, error) {
	if cfg.Name == "" {
		return nil, ErrBadName
	}
	if !cfg.Machine.Valid() {
		return nil, fmt.Errorf("ntcs: invalid machine type %d", cfg.Machine)
	}
	if len(cfg.Networks) == 0 {
		return nil, errors.New("ntcs: module must attach to at least one network")
	}
	if cfg.Kind == 0 {
		cfg.Kind = KindApplication
	}

	m := &Module{
		cfg:      cfg,
		tracer:   trace.New(cfg.Name),
		errs:     errlog.NewTable(cfg.Name, 0),
		stats:    stats.New(cfg.Name),
		conv:     make(map[string]Converter),
		detached: make(chan struct{}),
	}
	m.destHits = m.stats.Counter(stats.LCMDestHits)
	m.destMisses = m.stats.Counter(stats.LCMDestMisses)
	// The plan cache is process-global; every module's registry surfaces
	// its compile/reuse totals so ntcsstat shows conversion economics.
	m.stats.CounterFunc(stats.PackCompiles, pack.Compiles)
	m.stats.CounterFunc(stats.PackPlanHits, pack.PlanHits)
	// So are the drain counters of memnet's pipes (mbx included) and the
	// ND send queues: how often queues go busy (dispatches, wakeups) and
	// how often delayed delivery fires (polls) are the first thing to read
	// when circuits look stalled.
	m.stats.CounterFunc(stats.IPCSPollerWakeups, ipcs.PollerWakeups)
	m.stats.CounterFunc(stats.IPCSPollerDispatches, ipcs.PollerDispatches)
	m.stats.CounterFunc(stats.IPCSPollerPolls, ipcs.PollerPolls)

	// §3.4: a module assigns itself a TAdd initially; well-known modules
	// carry their preassigned UAdd from birth.
	var src addr.TAddSource
	startU := src.Next()
	if cfg.FixedUAdd != addr.Nil {
		startU = cfg.FixedUAdd
	}
	m.id = newIdentity(startU, cfg.Machine, cfg.Name)

	nuc, err := nucleus.New(nucleus.Config{
		Networks:      cfg.Networks,
		EndpointHints: cfg.EndpointHints,
		Identity:      m.id,
		WellKnown:     cfg.WellKnown,
		RelayEnabled:  cfg.Kind == KindGateway,
		Tracer:        m.tracer,
		Errors:        m.errs,
		Stats:         m.stats,
		CallTimeout:   cfg.CallTimeout,
		OpenTimeout:   cfg.OpenTimeout,
		InboxSize:     cfg.InboxSize,
		CreditWindow:  cfg.CreditWindow,
		CreditWaitMax: cfg.CreditWaitMax,
	})
	if err != nil {
		return nil, err
	}
	m.nuc = nuc

	if cfg.Kind == KindNameServer {
		if err := m.attachNameServer(); err != nil {
			nuc.Close()
			return nil, err
		}
		return m, nil
	}

	// §3.1: the naming service is consulted through the NSP-Layer over
	// the Nucleus itself.
	naming, err := nsp.New(nsp.Config{
		LCM:             nuc.LCM,
		WellKnown:       cfg.WellKnown,
		Tracer:          m.tracer,
		Stats:           m.stats,
		RecordTTL:       cfg.ResolveTTL,
		RecordCacheSize: cfg.ResolveCacheSize,
	})
	if err != nil {
		nuc.Close()
		return nil, err
	}
	m.naming = naming
	nuc.SetNaming(naming)

	if err := m.register(); err != nil {
		nuc.Close()
		return nil, fmt.Errorf("ntcs: register %q: %w", cfg.Name, err)
	}
	return m, nil
}

// register runs the §3.2 lifecycle against the naming service.
func (m *Module) register() error {
	attrs := m.registrationAttrs()
	u, err := m.naming.Register(m.cfg.Name, attrs, m.nuc.Endpoints(), m.cfg.FixedUAdd)
	if err != nil {
		return err
	}
	if m.cfg.FixedUAdd == addr.Nil {
		m.id.set(u)
	}
	// §3.4: the second communication carries the real UAdd and purges the
	// module's TAdds from every table along the way.
	return m.naming.Announce(m.id.UAdd())
}

func (m *Module) registrationAttrs() map[string]string {
	attrs := make(map[string]string, len(m.cfg.Attrs)+2)
	for k, v := range m.cfg.Attrs {
		attrs[k] = v
	}
	if m.cfg.Kind == KindGateway {
		attrs["type"] = "gateway"
	}
	attrs["machine"] = m.cfg.Machine.String()
	return attrs
}

// attachNameServer turns this module into the Name Server of §3: its own
// database is its naming service, closing the bootstrap loop.
func (m *Module) attachNameServer() error {
	serverID := m.cfg.ServerID
	if serverID == 0 {
		serverID = uint16(uint64(m.id.UAdd()))
	}
	m.db = nameserver.NewDB(serverID)
	m.nuc.SetNaming(nameserver.Naming{DB: m.db})

	attrs := map[string]string{"type": "nameserver", "machine": m.cfg.Machine.String()}
	for k, v := range m.cfg.Attrs {
		attrs[k] = v
	}
	m.db.RegisterFixed(m.cfg.Name, attrs, m.nuc.Endpoints(), m.id.UAdd())

	server, err := nameserver.NewServer(nameserver.Config{
		DB:           m.db,
		LCM:          m.nuc.LCM,
		Tracer:       m.tracer,
		Errors:       m.errs,
		Stats:        m.stats,
		AntiEntropy:  m.cfg.NSAntiEntropy,
		TombstoneTTL: m.cfg.NSTombstoneTTL,
	})
	if err != nil {
		return err
	}
	m.server = server
	go server.Run()
	return nil
}

// --- Accessors ----------------------------------------------------------

// UAdd returns the module's current unique address.
func (m *Module) UAdd() addr.UAdd { return m.id.UAdd() }

// Name returns the module's logical name.
func (m *Module) Name() string { return m.cfg.Name }

// Machine returns the module's simulated machine type.
func (m *Module) Machine() machine.Type { return m.cfg.Machine }

// Endpoints returns the module's physical addresses, one per network.
func (m *Module) Endpoints() []addr.Endpoint { return m.nuc.Endpoints() }

// Nucleus exposes the layer stack (tests, DRTS services, diagnostics).
func (m *Module) Nucleus() *nucleus.Nucleus { return m.nuc }

// NSP exposes the naming protocol layer (nil for name servers).
func (m *Module) NSP() *nsp.Layer { return m.naming }

// Tracer exposes the module's causal trace.
func (m *Module) Tracer() *trace.Tracer { return m.tracer }

// Stats exposes the module's metrics registry: every Nucleus layer and the
// naming machinery register their instruments here.
func (m *Module) Stats() *stats.Registry { return m.stats }

// Errors exposes the module's running error table (§6.3).
func (m *Module) Errors() *errlog.Table { return m.errs }

// DB exposes the naming database (name servers only; nil otherwise).
func (m *Module) DB() *nameserver.DB { return m.db }

// JoinNameServers wires this Name Server into the replicated naming tier
// the well-known preload describes (§7). It seeds a record for every other
// name server in wk, so this server's own Nucleus can reach any peer, and
// propagates writes only to the servers of its own shard group: the
// namespace partition is the point, and cross-shard replication would
// undo it. The group is read from this server's own entry in wk; without
// one it replicates to no one. Anti-entropy reconciles whatever the seeds
// miss. No-op for other kinds.
func (m *Module) JoinNameServers(wk addr.WellKnown) {
	if m.server == nil {
		return
	}
	self, shard := m.UAdd(), -1
	for _, e := range wk.NameServers {
		if e.UAdd == self {
			shard = e.Shard
		}
	}
	var peers []addr.UAdd
	for _, e := range wk.NameServers {
		if e.UAdd == self {
			continue
		}
		m.db.Insert(nameserver.Record{
			Name: e.Name, UAdd: e.UAdd, Endpoints: e.Endpoints,
			Attrs: map[string]string{"type": "nameserver"}, Alive: true,
		})
		if e.Shard == shard {
			peers = append(peers, e.UAdd)
		}
	}
	m.server.SetReplicas(peers)
}

// SetClock installs the DRTS corrected-time source used for monitor
// timestamps (§6.1).
func (m *Module) SetClock(now func() time.Time) {
	m.hooksMu.Lock()
	defer m.hooksMu.Unlock()
	m.hooks.Now = now
	m.nuc.LCM.SetHooks(m.hooks)
}

// SetMonitor installs the DRTS monitor-record sink (§6.1).
func (m *Module) SetMonitor(record func(lcm.Event)) {
	m.hooksMu.Lock()
	defer m.hooksMu.Unlock()
	m.hooks.Record = record
	m.nuc.LCM.SetHooks(m.hooks)
}

// --- Resource location primitives (§1.3) --------------------------------

// Locate maps a logical name to a UAdd, priming the endpoint cache with
// the record's physical addresses and machine type. "An application
// module need only obtain an address once; module relocation will then
// occur as required, during all communication, transparent at this
// interface."
func (m *Module) Locate(name string) (addr.UAdd, error) {
	return m.LocateContext(context.Background(), name)
}

// LocateContext is Locate honoring ctx: the deadline or cancellation
// propagates into the NSP resolution, including replica failover.
func (m *Module) LocateContext(ctx context.Context, name string) (u addr.UAdd, err error) {
	exit := m.tracer.Enter(trace.LayerALI, "locate", "resolve "+name, "app")
	defer func() { exit(err) }()
	u, err = m.locate(ctx, name)
	return u, err
}

func (m *Module) locate(ctx context.Context, name string) (addr.UAdd, error) {
	if name == "" {
		return addr.Nil, ErrBadName
	}
	if m.naming == nil {
		return addr.Nil, errors.New("ntcs: module has no naming service")
	}
	rec, err := m.naming.ResolveRecordContext(ctx, name)
	if err != nil {
		return addr.Nil, err
	}
	for _, ep := range rec.Endpoints {
		m.nuc.Cache.Put(rec.UAdd, ep)
	}
	return rec.UAdd, nil
}

// LocateAttrs finds every module matching the attribute set (the §7
// attribute-value naming).
func (m *Module) LocateAttrs(attrs map[string]string) (_ []nsp.Record, err error) {
	exit := m.tracer.Enter(trace.LayerALI, "locate-attrs", "attribute query", "app")
	defer func() { exit(err) }()
	if m.naming == nil {
		return nil, errors.New("ntcs: module has no naming service")
	}
	recs, err := m.naming.Query(attrs)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		for _, ep := range rec.Endpoints {
			m.nuc.Cache.Put(rec.UAdd, ep)
		}
	}
	return recs, nil
}

// --- Conversion machinery (§5) -------------------------------------------

// RegisterConverter installs the application's pack/unpack functions for
// one message type. Unregistered types use the automatic derivation.
func (m *Module) RegisterConverter(msgType string, c Converter) error {
	if msgType == "" {
		return ErrBadType
	}
	m.convMu.Lock()
	defer m.convMu.Unlock()
	m.conv[msgType] = c
	return nil
}

func (m *Module) converter(msgType string) Converter {
	m.convMu.RLock()
	defer m.convMu.RUnlock()
	return m.conv[msgType]
}

// errUnknownDest marks a destination whose machine type could not be
// determined; the DestCache never caches it, so the next send re-resolves
// (matching the seed's behavior of retrying until the peer is known).
var errUnknownDest = errors.New("ntcs: destination machine type unknown")

// destInfo returns the memoized destination facts: forwarding-chain end,
// machine type, and the conversion mode chosen for it. The first send to a
// destination resolves once (single-flight under concurrency) and caches
// in the LCM-owned DestCache; the §3.5 relocation handler invalidates the
// entry when the destination moves, so the decision "adapts dynamically to
// the environment as modules are relocated" (§5).
func (m *Module) destInfo(dst addr.UAdd) (lcm.DestInfo, bool) {
	dc := m.nuc.LCM.DestCache()
	if info, ok := dc.Get(dst); ok {
		m.destHits.Inc()
		return info, true
	}
	m.destMisses.Inc()
	info, err := dc.Do(dst, func() (lcm.DestInfo, error) {
		target, _ := m.nuc.LCM.ForwardTable().Resolve(dst)
		mt := m.lookupMachine(target)
		if mt == machine.Unknown {
			return lcm.DestInfo{}, errUnknownDest
		}
		return lcm.DestInfo{Target: target, Machine: mt, Mode: wire.SelectMode(m.cfg.Machine, mt)}, nil
	})
	if err != nil {
		return lcm.DestInfo{}, false
	}
	return info, true
}

// lookupMachine determines a destination's machine type, from the cache
// or (once) from the naming service.
func (m *Module) lookupMachine(dst addr.UAdd) machine.Type {
	if ep, ok := m.nuc.Cache.Any(dst); ok && ep.Machine.Valid() {
		return ep.Machine
	}
	if m.naming == nil {
		return machine.Unknown
	}
	rec, err := m.naming.Lookup(dst)
	if err != nil {
		return machine.Unknown
	}
	for _, ep := range rec.Endpoints {
		m.nuc.Cache.Put(rec.UAdd, ep)
	}
	if len(rec.Endpoints) > 0 {
		return rec.Endpoints[0].Machine
	}
	return machine.Unknown
}

// destMachine reports the destination's (possibly memoized) machine type.
func (m *Module) destMachine(dst addr.UAdd) machine.Type {
	if info, ok := m.destInfo(dst); ok {
		return info.Machine
	}
	return machine.Unknown
}

// encode selects the conversion mode of §5: "Messages between identical
// machines are simply byte-copied (image mode) while those between
// incompatible machines are transmitted in a converted representation
// (packed mode). The NTCS determines the correct mode based on the source
// and destination machine types, thus avoiding needless conversions."
//
// It then frames the payload in a pooled encoder: the message "type"
// through which structure is inferred (§5.1), then the body as one byte
// field written in place. The payload aliases the encoder's buffer; the
// caller returns the encoder with pack.PutEncoder once the layers below
// have consumed the payload (they all do so synchronously).
func (m *Module) encode(dst addr.UAdd, msgType string, body any) (wire.Mode, []byte, *pack.Encoder, error) {
	mode := wire.ModePacked
	switch body.(type) {
	case nil:
		mode = wire.ModeNone
	case []byte:
		// Opaque bytes are never imageable: no destination lookup.
	default:
		if info, ok := m.destInfo(dst); ok && info.Mode == wire.ModeImage && machine.Imageable(body) {
			mode = wire.ModeImage
		}
	}
	e := pack.GetEncoder()
	e.String(msgType)
	mark := e.BeginField()
	if err := m.writeBody(e, mode, msgType, body); err != nil {
		pack.PutEncoder(e)
		return 0, nil, nil, err
	}
	e.EndField(mark)
	return mode, e.Bytes(), e, nil
}

// writeBody appends the body in mode onto the open envelope field. A
// packed body is the application's converter output if one is registered
// for msgType; otherwise a []byte is written as pack.Marshal would write
// it, and anything else through its compiled conversion plan (see
// pack/codec.go).
func (m *Module) writeBody(e *pack.Encoder, mode wire.Mode, msgType string, body any) error {
	switch mode {
	case wire.ModeNone:
		return nil
	case wire.ModeImage:
		b, err := machine.AppendImage(e.Bytes(), body, m.cfg.Machine)
		if err != nil {
			return err
		}
		e.SetBytes(b)
		return nil
	}
	if c := m.converter(msgType); c.Pack != nil {
		b, err := c.Pack(e.Bytes(), body)
		if err != nil {
			return err
		}
		e.SetBytes(b)
		return nil
	}
	if bb, ok := body.([]byte); ok {
		e.BytesField(bb)
		return nil
	}
	if err := e.Marshal(body); err != nil {
		return fmt.Errorf("%w: %v", ErrNotConverter, err)
	}
	return nil
}

func openEnvelope(payload []byte) (msgType string, body []byte, err error) {
	// A pooled decoder: the type name lands in its arena, which outlives
	// PutDecoder.
	d := pack.GetDecoder(payload)
	defer pack.PutDecoder(d)
	if msgType, err = d.String(); err != nil {
		return "", nil, err
	}
	// The delivery's payload buffer is uniquely owned (every substrate
	// reads each inbound frame into its own allocation), so the body can
	// alias it instead of being copied out.
	if body, err = d.BytesView(); err != nil {
		return "", nil, err
	}
	return msgType, body, nil
}

// --- Communication primitives (§1.3) -------------------------------------

// SendOption tunes one SendMsg, CallContext or Calls.Start. Options fold
// into a bitmask, so the variadic call costs nothing on the warm path.
type SendOption uint32

const (
	// WithNoCopy is accepted and changes nothing: every body is written
	// once, in place, into the message envelope, and a []byte body
	// already skips the conversion plan and the destination lookup.
	WithNoCopy SendOption = 1 << iota
	// WithNoBlock makes a credit-exhausted circuit fail immediately with
	// ErrBackpressure instead of waiting up to CreditWaitMax for the
	// receiver to drain. The inspectable error carries the queue depth
	// and a suggested backoff.
	WithNoBlock
	// WithService marks DRTS traffic: the monitoring/time hooks stay off
	// (the §6.1 recursion guard).
	WithService
	// WithConnless selects the connectionless protocol: one attempt, no
	// relocation, no recovery. It implies WithService — the LCM runs no
	// hooks for a connectionless message.
	WithConnless
)

// sendFlags maps the folded options onto local wire flags. FlagNoBlock
// never travels — the ND-Layer strips it after reading it.
func (o SendOption) sendFlags() uint16 {
	var flags uint16
	if o&WithNoBlock != 0 {
		flags |= wire.FlagNoBlock
	}
	if o&WithService != 0 {
		flags |= wire.FlagService
	}
	if o&WithConnless != 0 {
		flags |= wire.FlagConnless
	}
	return flags
}

func fold(opts []SendOption) SendOption {
	var o SendOption
	for _, opt := range opts {
		o |= opt
	}
	return o
}

// SendMsg transmits body to dst asynchronously: the send primitive. The
// context bounds establishment and any credit wait; options select the
// fail-fast backpressure contract (WithNoBlock), DRTS traffic
// (WithService) and the connectionless protocol (WithConnless).
//
// When the destination's circuit is out of credit, SendMsg waits up to
// the module's CreditWaitMax and then — or immediately under
// WithNoBlock — returns an error matching ntcs.ErrBackpressure via
// errors.Is, with the inspectable *BackpressureError available through
// errors.As.
func (m *Module) SendMsg(ctx context.Context, dst addr.UAdd, msgType string, body any, opts ...SendOption) (err error) {
	o := fold(opts)
	// The span opens at the very top of the stack: the ALI allocates it and
	// every layer below stamps its events with the same ID.
	span := m.nuc.LCM.NewSpan()
	exit := trace.NopExit
	if m.tracer.On() {
		exit = m.tracer.Enter(trace.LayerALI, "send", msgType+" to "+dst.String(), "app")
		m.tracer.Span(span, trace.LayerALI, "send", msgType)
	}
	defer func() { exit(err) }()
	mode, payload, enc, err := m.prepare(dst, msgType, body)
	if err != nil {
		return err
	}
	err = m.nuc.LCM.SendSpan(ctx, span, dst, mode, o.sendFlags(), payload)
	pack.PutEncoder(enc)
	return err
}

// CallContext transmits synchronously and decodes the reply into
// replyOut (which may be nil to discard it): the send/receive/reply
// primitive. Cancellation or an expiring deadline of ctx ends the reply
// wait early with ctx.Err() (which errors.Is-matches context.Canceled or
// context.DeadlineExceeded); the module's fixed CallTimeout still applies
// as an upper bound. Options are SendMsg's.
func (m *Module) CallContext(ctx context.Context, dst addr.UAdd, msgType string, body, replyOut any, opts ...SendOption) (err error) {
	o := fold(opts)
	span := m.nuc.LCM.NewSpan()
	exit := trace.NopExit
	if m.tracer.On() {
		exit = m.tracer.Enter(trace.LayerALI, "call", msgType+" to "+dst.String(), "app")
		m.tracer.Span(span, trace.LayerALI, "call", msgType)
	}
	defer func() { exit(err) }()
	mode, payload, enc, err := m.prepare(dst, msgType, body)
	if err != nil {
		return err
	}
	d, err := m.nuc.LCM.CallSpan(ctx, span, dst, mode, o.sendFlags(), payload)
	pack.PutEncoder(enc)
	if err != nil {
		return err
	}
	return m.decodeReply(d, replyOut)
}

// decodeReply decodes a call's reply into replyOut, or discards it when
// replyOut is nil. The reply goes through a Delivery on the stack: it never
// reaches the application, so it need not live on the heap.
func (m *Module) decodeReply(d lcm.Delivery, replyOut any) error {
	if replyOut == nil {
		return nil
	}
	var del Delivery
	if err := m.fill(&del, d); err != nil {
		return err
	}
	return del.Decode(replyOut)
}

// prepare checks the arguments and encodes the body.
func (m *Module) prepare(dst addr.UAdd, msgType string, body any) (wire.Mode, []byte, *pack.Encoder, error) {
	if err := m.checkArgs(dst, msgType); err != nil {
		return 0, nil, nil, err
	}
	return m.encode(dst, msgType, body)
}

func (m *Module) checkArgs(dst addr.UAdd, msgType string) error {
	if dst == addr.Nil {
		return ErrBadDest
	}
	if msgType == "" {
		return ErrBadType
	}
	if m.closed() {
		return ErrDetached
	}
	return nil
}

// Delivery is one received message, ready to decode.
type Delivery struct {
	Type string
	Body []byte

	module *Module
	raw    lcm.Delivery

	// pending is set on a call handed out by Recv until its first answer.
	pending atomic.Bool
}

// Src returns the sender's UAdd.
func (d *Delivery) Src() addr.UAdd { return d.raw.Header.Src }

// IsCall reports whether the sender is blocked in Call awaiting Reply.
func (d *Delivery) IsCall() bool { return d.raw.IsCall() }

// Mode returns the conversion mode the body arrived in.
func (d *Delivery) Mode() wire.Mode { return d.raw.Header.Mode }

// SrcMachine returns the sender's machine type.
func (d *Delivery) SrcMachine() machine.Type { return d.raw.Header.SrcMachine }

// Decode extracts the body into out, reversing whichever conversion the
// sender applied (§5.1).
//
// Image mode is "a byte-copy of the memory image ... simply deposited at
// the destination": it is read back with the receiver's own layout, which
// is only correct between layout-compatible machines — exactly why the
// sender selects packed mode otherwise. A mismatched image (possible
// transiently during dynamic reconfiguration, when a cached machine type
// is stale) is rejected rather than silently corrupted; the header carries
// the sender's machine type, so the mismatch is detectable here.
func (d *Delivery) Decode(out any) error {
	switch d.raw.Header.Mode {
	case wire.ModeNone:
		return nil
	case wire.ModeImage:
		local := d.module.cfg.Machine
		if !machine.Compatible(d.raw.Header.SrcMachine, local) {
			return fmt.Errorf("ntcs: image from %v cannot be byte-copied onto %v (stale conversion decision)",
				d.raw.Header.SrcMachine, local)
		}
		return machine.ImageDecode(d.Body, local, out)
	case wire.ModePacked:
		c := d.module.converter(d.Type)
		if c.Unpack != nil {
			return c.Unpack(d.Body, out)
		}
		return pack.Unmarshal(d.Body, out)
	default:
		return fmt.Errorf("ntcs: cannot decode mode %v", d.raw.Header.Mode)
	}
}

// Recv waits for the next message. The Delivery is the caller's to keep.
func (m *Module) Recv(timeout time.Duration) (*Delivery, error) {
	d := new(Delivery)
	if err := m.recvInto(d, timeout); err != nil {
		return nil, err
	}
	return d, nil
}

// recvInto is the traced receive body of Recv and Serve: it waits for the
// next message and opens it into d.
func (m *Module) recvInto(d *Delivery, timeout time.Duration) (err error) {
	exit := trace.NopExit
	if m.tracer.On() {
		exit = m.tracer.Enter(trace.LayerALI, "recv", "await message", "app")
	}
	defer func() { exit(err) }()
	raw, err := m.nuc.LCM.Recv(timeout)
	if err != nil {
		return err
	}
	if err := m.fill(d, raw); err != nil {
		// A call whose envelope does not parse is still a call: its caller
		// learns why now instead of waiting out its timeout.
		if d.IsCall() {
			m.answerFailed(d.Src(), m.nuc.LCM.ReplyError(&d.raw, err.Error()))
		}
		return err
	}
	if d.IsCall() {
		d.pending.Store(true)
		m.unanswered.Add(1)
	}
	if m.tracer.On() {
		m.tracer.Span(d.raw.Header.Span, trace.LayerALI, "recv", d.Type)
	}
	return nil
}

// Serve is the ALI's server loop. It receives until the module is torn
// down and hands each delivery to h on the calling goroutine, so several
// Serve loops on one module serve side by side. Every call gets exactly
// one answer: the reply h returns, or a ReplyError carrying the error's
// text when h returns one or Reply refuses before sending (ErrBadType, a
// body that does not encode). What h returns for a one-way message is
// discarded. A receive that times out or is malformed does not end the
// loop, and an answer that cannot be sent goes to the module's error
// table.
//
// Each loop reuses one Delivery for every message it serves: d, its Type
// and its Body are valid only until h returns, so a handler that keeps
// anything of the message past that copies it. The other way round, the
// reply is encoded before h runs again on that loop, so h may return a
// pointer to storage its loop reuses for every message; a reply returned
// by value costs one allocation to box it.
func (m *Module) Serve(h func(d *Delivery) (replyType string, reply any, err error)) {
	d := new(Delivery)
	for {
		// Drop the frame d last pointed at: a loop parked waiting for its
		// next message must not pin the last message it served.
		d.Type, d.Body, d.raw = "", nil, lcm.Delivery{}
		err := m.recvInto(d, time.Hour)
		if errors.Is(err, lcm.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		msgType, reply, err := h(d)
		if !d.IsCall() {
			continue
		}
		if err == nil {
			err = m.Reply(d, msgType, reply)
		}
		if err != nil && d.pending.Load() { // nothing reached the LCM yet
			err = m.ReplyError(d, err.Error())
		}
		m.answerFailed(d.Src(), err)
	}
}

// answerFailed reports an answer to a call that could not be sent.
func (m *Module) answerFailed(caller addr.UAdd, err error) {
	if err != nil {
		m.errs.Report(errlog.CodeDroppedMsg, "ali", "answer to %v: %v", caller, err)
	}
}

// answered takes d off the unanswered count, once. It is called when a
// reply or an error has been handed to the LCM, whatever became of it
// there: a caller that cannot be reached is not waited for either. A Reply
// refused before that (ErrBadType, a body that does not encode) leaves the
// call unanswered, so the ReplyError Serve falls back to still counts.
func (m *Module) answered(d *Delivery) {
	if d.pending.CompareAndSwap(true, false) {
		m.unanswered.Add(-1)
	}
}

// fill points d at raw and opens its envelope.
func (m *Module) fill(d *Delivery, raw lcm.Delivery) error {
	d.module, d.raw = m, raw
	if raw.Header.Mode == wire.ModeNone && len(raw.Payload) == 0 {
		return nil
	}
	msgType, body, err := openEnvelope(raw.Payload)
	if err != nil {
		return fmt.Errorf("ntcs: malformed message envelope from %v: %w", raw.Header.Src, err)
	}
	d.Type, d.Body = msgType, body
	return nil
}

// Reply answers a Call.
func (m *Module) Reply(d *Delivery, msgType string, body any) (err error) {
	exit := trace.NopExit
	if m.tracer.On() {
		exit = m.tracer.Enter(trace.LayerALI, "reply", msgType+" to "+d.Src().String(), "app")
		m.tracer.Span(d.raw.Header.Span, trace.LayerALI, "reply", msgType)
	}
	defer func() { exit(err) }()
	err = m.replyChecked(d, msgType, body)
	return err
}

func (m *Module) replyChecked(d *Delivery, msgType string, body any) error {
	if msgType == "" {
		return ErrBadType
	}
	mode, payload, enc, err := m.encode(d.Src(), msgType, body)
	if err != nil {
		return err
	}
	flags := uint16(0)
	if d.raw.IsService() {
		flags |= wire.FlagService
	}
	err = m.nuc.LCM.Reply(&d.raw, mode, flags, payload)
	m.answered(d)
	pack.PutEncoder(enc)
	return err
}

// ReplyError answers a Call with an error the caller receives as
// lcm.ErrRemote.
func (m *Module) ReplyError(d *Delivery, msg string) error {
	err := m.nuc.LCM.ReplyError(&d.raw, msg)
	m.answered(d)
	return err
}

// detachFlushMax bounds how long Detach waits for the write queues.
const detachFlushMax = time.Second

// Detach deregisters the module and shuts the ComMod down. A one-way send
// returns once its frame is on the circuit's write queue, so Detach
// flushes the queues (for at most detachFlushMax) before closing: every
// send that returned nil before Detach reaches the wire. It does not wait
// for inbound work the way Drain does; Kill is the abrupt form.
func (m *Module) Detach() error {
	err := m.leave()
	ctx, cancel := context.WithTimeout(context.Background(), detachFlushMax)
	defer cancel()
	m.teardown(ctx)
	return err
}

// Drain is the graceful shutdown of the deployment mode: the module
// leaves the system without losing acknowledged work. The sequence is
// deregister-first — the tombstone appears in the naming service (with
// §3.5 forwarding intact) so new callers stop routing here — then
// quiesce (already-delivered calls keep being served until the LCM inbox
// stays empty and every call Recv handed out has been answered by Reply or
// ReplyError, so a handler still at work — or one of many running side by
// side — gets its reply out), then flush the write queues so every
// frame a sender was told "sent" reaches the wire, and only then
// tear the Nucleus down. ctx bounds the quiesce and flush phases; on
// expiry the teardown proceeds anyway, which is also what ends the wait
// for an application that takes a call and never answers it. Drain returns
// the deregistration error, if any — a failed quiesce is not an error,
// just a less graceful exit.
//
// Safe to call concurrently with Detach/Kill and with running Serve
// loops, which return once the teardown starts.
func (m *Module) Drain(ctx context.Context) error {
	err := m.leave()
	// Quiesce: two consecutive observations of an empty inbox with no
	// call unanswered, so a burst that momentarily empties the channel
	// doesn't end the grace period while a sender is mid-stream.
	empty := 0
	for empty < 2 && ctx.Err() == nil && !m.closed() {
		if m.nuc.LCM.InboxDepth() == 0 && m.unanswered.Load() == 0 {
			empty++
		} else {
			empty = 0
		}
		if empty < 2 {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	m.teardown(ctx)
	return err
}

// Kill tears the module down abruptly: no deregistration, no goodbye to
// the naming service — the crash that the §3.5 relocation and §4.3
// teardown machinery exist to survive. The record it registered stays in
// the naming database marked alive, exactly as a 1986 machine crash left
// it; peers discover the death only by failing to reach the endpoints.
// Used by the chaos harness; a clean shutdown is Detach.
func (m *Module) Kill() {
	m.teardown(nil)
}

// leave withdraws the module's record, once. A Name Server module retires
// its own record from its own shard (Server.Retire), pushing the death
// notice to its replica peers inline; other modules deregister through
// the naming service. A module already killed has nothing to withdraw.
func (m *Module) leave() (err error) {
	m.leaveOnce.Do(func() {
		switch {
		case m.closed():
		case m.server != nil:
			m.server.Retire(m.UAdd())
		default:
			err = m.naming.Deregister(m.UAdd())
		}
	})
	return err
}

// teardown closes the ComMod, once: new sends fail with ErrDetached, the
// write queues get until flush expires to reach the wire (Kill passes
// nil and skips them), then the Nucleus closes and a Name Server's
// dispatch loop is awaited.
func (m *Module) teardown(flush context.Context) {
	m.detachOnce.Do(func() {
		close(m.detached)
		if flush != nil {
			if err := m.nuc.Flush(flush); err != nil {
				m.errs.Report(errlog.CodeDroppedMsg, "ali", "teardown flush: %v", err)
			}
		}
		m.nuc.Close()
		if m.server != nil {
			m.server.Wait()
		}
	})
}

func (m *Module) closed() bool {
	select {
	case <-m.detached:
		return true
	default:
		return false
	}
}
