// Package lcm implements the Logical Connection Maintenance Layer of paper
// §2.2 and §3.5: the topmost Nucleus layer. "Its primary function is to
// relocate modules which may have moved, and to recover from broken
// connections, though it also provides a connectionless protocol. No
// explicit open or close primitives are provided at the Nucleus interface;
// messages are simply sent/received directly to/from the desired
// destinations, with the underlying IVCs being established as needed."
//
// An attempt to communicate with an invalid address "results in a simple
// address fault in the ND-Layer ... The LCM-Layer will query a local
// forwarding address (UAdd) table, to no avail since this just occurred,
// followed by an address fault handler which calls the NSP-layer to obtain
// a forwarding UAdd" — the exact sequence Send below implements.
//
// The layer also carries the recursion of §6: monitoring and time hooks
// fire on ordinary sends, are suppressed on service traffic (FlagService),
// and the §6.3 Name-Server-circuit-break pathology is reproduced together
// with the patch the authors retrofitted into this very layer.
package lcm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/iplayer"
	"ntcs/internal/ndlayer"
	"ntcs/internal/retry"
	"ntcs/internal/stats"
	"ntcs/internal/trace"
	"ntcs/internal/wire"
	"ntcs/internal/wordmap"
)

// Resolver is the slice of the NSP-Layer the address-fault handler needs:
// mapping a dead UAdd to its replacement module.
type Resolver interface {
	// Forward returns the UAdd of the module replacing old. It returns
	// ErrStillAlive when the naming service believes old is still up
	// (the link, not the module, failed) and ErrNoReplacement when no
	// newer module matches.
	Forward(old addr.UAdd) (addr.UAdd, error)
}

// Sentinel errors for the §3.5 fault outcomes.
var (
	ErrStillAlive     = errors.New("lcm: module is still alive (link failure, not relocation)")
	ErrNoReplacement  = errors.New("lcm: no replacement module located")
	ErrNoResolver     = errors.New("lcm: no naming service attached")
	ErrClosed         = errors.New("lcm: layer closed")
	ErrFaultRecursion = errors.New("lcm: address-fault recursion overflow (the §6.3 stack overflow)")
	ErrRemote         = errors.New("lcm: remote error reply")
	ErrDeliveryTooOld = errors.New("lcm: reply arrived for a call no longer waiting")
	ErrInboxOverflow  = errors.New("lcm: inbox overflow, message dropped")
)

// ErrCallTimeout marks a synchronous call that exhausted CallTimeout. It is
// a comparable sentinel like the others, but errors.Is also matches it
// against context.DeadlineExceeded so context-aware callers need only one
// check.
var ErrCallTimeout error = callTimeoutError{}

type callTimeoutError struct{}

func (callTimeoutError) Error() string { return "lcm: synchronous call timed out" }

func (callTimeoutError) Is(target error) bool { return target == context.DeadlineExceeded }

// RemoteError is an error reply from the callee: the remote handler
// answered a Call with ReplyError. errors.Is(err, ErrRemote) matches it;
// errors.As exposes the callee's message and address.
type RemoteError struct {
	Src addr.UAdd // the callee that produced the error
	Msg string    // the callee's error string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("lcm: remote error reply: %s", e.Msg)
}

// Is keeps existing errors.Is(err, ErrRemote) checks working. A call the
// callee refused because its inbox was full also matches
// ndlayer.ErrBackpressure: the callee is healthy, only momentarily behind,
// so the caller backs off or sheds load exactly as for a send that ran out
// of circuit credit. A call a gateway refused because the circuit beyond
// it had died matches iplayer.ErrDestinationDown.
func (e *RemoteError) Is(target error) bool {
	return target == ErrRemote ||
		target == ndlayer.ErrBackpressure && e.Msg == ErrInboxOverflow.Error() ||
		target == iplayer.ErrDestinationDown && e.Msg == iplayer.ErrDestinationDown.Error()
}

// Event is one monitoring record emitted by the LCM hooks (§6.1: "the
// LCM-layer ... generates a time stamp for monitor data" and "sends data
// to the monitor by calling itself").
type Event struct {
	When  time.Time
	Kind  string // "send", "call", "reply", "recv"
	Peer  addr.UAdd
	Bytes int
}

// Hooks are the recursive DRTS couplings: a corrected time source and a
// monitor-record sink, both of which may themselves communicate through
// this very layer (with FlagService set, which suppresses the hooks).
type Hooks struct {
	Now    func() time.Time
	Record func(Event)
}

// Config assembles a Layer.
type Config struct {
	// IP is the layer below.
	IP *iplayer.Layer
	// Identity presents the local module.
	Identity ndlayer.Identity
	// WellKnown identifies the Name Server addresses the §6.3 patch
	// special-cases.
	WellKnown addr.WellKnown
	// Tracer and Errors receive diagnostics; both may be nil.
	Tracer *trace.Tracer
	Errors *errlog.Table
	// Stats receives the layer's counters; nil disables metering.
	Stats *stats.Registry
	// CallTimeout bounds synchronous calls; default 5s.
	CallTimeout time.Duration
	// InboxSize bounds undelivered inbound messages; default 256.
	InboxSize int
}

// maxFaultDepth is the address-fault recursion bound standing in for the
// 1986 stack (the paper observed genuine stack overflows).
const maxFaultDepth = 8

// Delivery is one message handed to the module: the unit of Recv, and the
// reply a call returns. Both come back by value, so a Delivery belongs to
// whoever holds it; the inbox's own cells never leave this package.
type Delivery struct {
	Header  wire.Header
	Payload []byte

	via *ndlayer.LVC
}

// cellPool recycles the inbox's cells. HandleInbound fills one per queued
// message and Recv copies it out and returns it here, as do the inbox's
// closed and overflow paths, so no caller ever holds a cell. A by-value
// inbox channel would need no pool but costs InboxSize cells per layer up
// front.
var cellPool = sync.Pool{New: func() any { return new(Delivery) }}

// recycle clears a cell, so the pool pins no frame, and returns it.
func recycle(c *Delivery) {
	*c = Delivery{}
	cellPool.Put(c)
}

// take copies a queued message out of its cell and recycles the cell.
func take(c *Delivery) Delivery {
	d := *c
	recycle(c)
	return d
}

// Src returns the sender's UAdd (a local TAdd alias while the peer is
// unregistered, per §3.4).
func (d *Delivery) Src() addr.UAdd { return d.Header.Src }

// IsCall reports whether the sender awaits a Reply.
func (d *Delivery) IsCall() bool { return d.Header.Flags&wire.FlagCall != 0 }

// IsService reports whether this is internal NTCS/DRTS traffic.
func (d *Delivery) IsService() bool { return d.Header.Flags&wire.FlagService != 0 }

// The reply-waiter table is a sharded wordmap keyed by sequence number:
// concurrent calls on different sequence numbers land on different
// shards, and an entry costs ~25 B instead of a boxed map entry.

// Layer is one module's LCM-Layer.
type Layer struct {
	cfg       Config
	reconnect retry.Policy // reconnectPolicy, budgeted and metered

	seq atomic.Uint32

	// hooks and closed are read on every send; both are lock-free.
	hooks  atomic.Pointer[Hooks]
	closed atomic.Bool

	// overflowed marks an in-progress inbox-overflow episode so the drop
	// storm is reported once, not per frame.
	overflowed atomic.Bool

	mu       sync.Mutex // guards resolver (cold: fault handling only)
	resolver Resolver

	waiters wordmap.Map[*callWaiter]
	fwd     *addr.ForwardTable
	dest    *DestCache

	faultDepth atomic.Int32

	// noNSFaultPatch removes the §6.3 patch from the address-fault
	// handler, reproducing the paper's pathology. Only tests set it,
	// before the layer carries traffic.
	noNSFaultPatch bool

	inbox chan *Delivery
	done  chan struct{}

	// spanSeq feeds NewSpan; spans are per-message IDs carried in the
	// header's reserved word, so one ID follows the message everywhere.
	spanSeq atomic.Uint32

	// Instruments, resolved once at construction; nil pointers no-op.
	sends        *stats.Counter
	calls        *stats.Counter
	replies      *stats.Counter
	retries      *stats.Counter
	addrFaults   *stats.Counter
	spansStarted *stats.Counter
	inboxDepth   *stats.Gauge
	hSend        *stats.Histogram
	hCall        *stats.Histogram
}

// reconnectPolicy is the §3.5 "reestablish what appears to be a broken
// communication link" retry: after the naming service reports the peer
// still alive, redials back off instead of failing on the first refused
// attempt (the peer may be mid-restart). New budgets it by CallTimeout.
var reconnectPolicy = retry.Policy{
	Attempts:   3,
	BaseDelay:  20 * time.Millisecond,
	MaxDelay:   500 * time.Millisecond,
	Multiplier: 2,
	Jitter:     0.25,
}

// New assembles the layer. The caller wires iplayer's Deliver to
// (*Layer).HandleInbound.
func New(cfg Config) (*Layer, error) {
	if cfg.IP == nil || cfg.Identity == nil {
		return nil, errors.New("lcm: IP and Identity are required")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 256
	}
	reconnect := reconnectPolicy
	reconnect.Budget = cfg.CallTimeout
	reconnect.Retries = cfg.Stats.Counter(stats.RetryAttempts + ".lcm_reconnect")
	reconnect.GiveUps = cfg.Stats.Counter(stats.RetryGiveUps + ".lcm_reconnect")
	l := &Layer{
		cfg:       cfg,
		reconnect: reconnect,
		fwd:       addr.NewForwardTable(),
		dest:      NewDestCache(),
		inbox:     make(chan *Delivery, cfg.InboxSize),
		done:      make(chan struct{}),

		sends:        cfg.Stats.Counter(stats.LCMSends),
		calls:        cfg.Stats.Counter(stats.LCMCalls),
		replies:      cfg.Stats.Counter(stats.LCMReplies),
		retries:      cfg.Stats.Counter(stats.LCMRetries),
		addrFaults:   cfg.Stats.Counter(stats.LCMAddressFaults),
		spansStarted: cfg.Stats.Counter(stats.SpansStarted),
		inboxDepth:   cfg.Stats.Gauge(stats.LCMInboxDepth),
		hSend:        cfg.Stats.Histogram(stats.LCMSendLatency),
		hCall:        cfg.Stats.Histogram(stats.LCMCallLatency),
	}
	return l, nil
}

// SetResolver installs the NSP-backed forwarding service.
func (l *Layer) SetResolver(r Resolver) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.resolver = r
}

// SetHooks installs the monitoring/time couplings.
func (l *Layer) SetHooks(h Hooks) {
	l.hooks.Store(&h)
}

// getHooks returns the installed hooks, or the zero Hooks.
func (l *Layer) getHooks() Hooks {
	if h := l.hooks.Load(); h != nil {
		return *h
	}
	return Hooks{}
}

// ForwardTable exposes the forwarding-address table for diagnostics and
// the TAdd purge assertions.
func (l *Layer) ForwardTable() *addr.ForwardTable { return l.fwd }

// InboxDepth reports how many deliveries are queued but not yet received
// by the module — half of the quiesce condition of a graceful drain (the
// ComMod counts the calls already received and not yet answered).
func (l *Layer) InboxDepth() int { return len(l.inbox) }

// Waiters reports how many calls and pings are registered awaiting their
// reply. An idle layer holds none: the leak check of a caller that fans
// calls out and cancels them.
func (l *Layer) Waiters() int { return l.waiters.Len() }

// DestCache exposes the per-destination fast-path cache. The ALI layer
// memoizes resolved destination facts here; this layer owns it so the
// §3.5 relocation handler can invalidate stale entries.
func (l *Layer) DestCache() *DestCache { return l.dest }

// ReplaceAddr rewrites a purged TAdd throughout this layer's tables
// (wired to the ND-Layer's OnTAddReplaced).
func (l *Layer) ReplaceAddr(old, real addr.UAdd) {
	l.fwd.Replace(old, real)
	// Any memoized fast path naming the purged TAdd — as key or resolved
	// target — is stale now.
	l.dest.InvalidateTarget(old)
}

// callWaiter is one in-flight call's parked receiver. Waiters are pooled:
// a serving-path client makes millions of calls, and the per-call channel
// allocation was measurable in the call tail. Ownership is handed off
// through the waiters map itself — whichever side LoadAndDeletes the seq
// (the reply deliverer or the timed-out caller) owns the waiter, so at
// most one send ever targets ch per incarnation and a drained waiter can
// be recycled without a stale reply leaking into its next call.
type callWaiter struct {
	ch chan Delivery // cap 1
}

var waiterPool = sync.Pool{
	New: func() any { return &callWaiter{ch: make(chan Delivery, 1)} },
}

// addWaiter registers a pooled waiter for seq.
func (l *Layer) addWaiter(seq uint32) *callWaiter {
	w := waiterPool.Get().(*callWaiter)
	l.waiters.Store(uint64(seq), w)
	return w
}

// abandonWaiter is the caller's give-up path (timeout, cancellation, send
// failure). If the caller wins the map claim no reply can ever land in w,
// so it recycles; if a deliverer already claimed it, the send may still
// be in flight — recycle only if it has already landed, else leave the
// waiter to the GC rather than gamble on the race.
func (l *Layer) abandonWaiter(seq uint32, w *callWaiter) {
	if _, ok := l.waiters.LoadAndDelete(uint64(seq)); ok {
		waiterPool.Put(w)
		return
	}
	select {
	case <-w.ch:
		waiterPool.Put(w)
	default:
	}
}

// nextSeq allocates a message sequence number.
func (l *Layer) nextSeq() uint32 {
	return l.seq.Add(1)
}

// NewSpan allocates a message-path span ID: a nonzero 32-bit value carried
// in the header's reserved word so one message can be followed
// ALI→NSP→LCM→IP→ND across machines. IDs mix a local sequence with the
// module's UAdd (Fibonacci hashing) so concurrent modules rarely collide;
// uniqueness is best-effort, as span IDs only correlate trace events.
func (l *Layer) NewSpan() uint32 {
	u := uint64(l.cfg.Identity.UAdd())
	s := l.spanSeq.Add(1)*2654435761 ^ uint32(u^u>>32)*0x9E3779B9
	if s == 0 {
		s = 1
	}
	l.spansStarted.Inc()
	return s
}

// header builds a data header for an outbound message.
func (l *Layer) header(dst addr.UAdd, mode wire.Mode, flags uint16, seq, span uint32) wire.Header {
	h := wire.Header{
		Type:       wire.TData,
		Src:        l.cfg.Identity.UAdd(),
		Dst:        dst,
		SrcMachine: l.cfg.Identity.Machine(),
		Mode:       mode,
		Flags:      flags,
		Seq:        seq,
		Span:       span,
	}
	if h.Src.IsTemp() {
		h.Flags |= wire.FlagSrcTAdd
	}
	return h
}

// SendContext transmits one message, establishing circuits and
// recovering from relocations transparently (§3.5). Mode selects the
// payload conversion; flags may include FlagService (suppresses hooks)
// and FlagConnless (the connectionless protocol: one attempt, no
// recovery, no relocation, no hooks). Circuit establishment, reconnection
// backoff and fault resolution all end early on cancellation of ctx (a
// datagram already handed to the layers below is not recalled).
func (l *Layer) SendContext(ctx context.Context, dst addr.UAdd, mode wire.Mode, flags uint16, payload []byte) error {
	return l.SendSpan(ctx, l.NewSpan(), dst, mode, flags, payload)
}

// SendSpan is SendContext with a caller-supplied span ID, so upper layers
// (ALI, NSP) can stamp the message with the span they already opened
// instead of starting a fresh one here.
func (l *Layer) SendSpan(ctx context.Context, span uint32, dst addr.UAdd, mode wire.Mode, flags uint16, payload []byte) (err error) {
	if err = ctx.Err(); err != nil {
		return err
	}
	exit := trace.NopExit
	if l.cfg.Tracer.On() {
		exit = l.cfg.Tracer.Enter(trace.LayerLCM, "send", "message to "+dst.String(), "above")
		l.cfg.Tracer.Span(span, trace.LayerLCM, "send", dst.String())
	}
	defer func() { exit(err) }()
	var start time.Time
	if l.hSend.Enabled() {
		start = time.Now()
	}
	err = l.sendInternal(ctx, dst, mode, flags, l.nextSeq(), span, payload)
	l.sends.Inc()
	if !start.IsZero() {
		l.hSend.Observe(time.Since(start))
	}
	return err
}

func (l *Layer) sendInternal(ctx context.Context, dst addr.UAdd, mode wire.Mode, flags uint16, seq, span uint32, payload []byte) error {
	if l.closed.Load() {
		return ErrClosed
	}
	hooks := l.getHooks()

	service := flags&wire.FlagService != 0 || flags&wire.FlagConnless != 0

	// §6.1: "As the application level Send is initiated, control passes to
	// the LCM-layer, which generates a time stamp for monitor data."
	var stamp time.Time
	if !service && hooks.Now != nil {
		stamp = hooks.Now()
	}

	err := l.sendResolved(ctx, dst, mode, flags, seq, span, payload)

	if !service && err == nil && hooks.Record != nil {
		if stamp.IsZero() {
			stamp = time.Now()
		}
		hooks.Record(Event{When: stamp, Kind: "send", Peer: dst, Bytes: len(payload)})
	}
	return err
}

// sendResolved applies the forwarding table and the address-fault handler.
func (l *Layer) sendResolved(ctx context.Context, dst addr.UAdd, mode wire.Mode, flags uint16, seq, span uint32, payload []byte) error {
	target, _ := l.fwd.Resolve(dst)
	h := l.header(target, mode, flags, seq, span)
	err := l.cfg.IP.SendContext(ctx, target, h, payload)
	if err == nil {
		return nil
	}
	if flags&wire.FlagConnless != 0 {
		// Connectionless protocol: no recovery, the loss is recorded.
		l.cfg.Errors.Report(errlog.CodeDroppedMsg, "lcm", "connectionless to %v: %v", target, err)
		return err
	}
	if ctx != nil && ctx.Err() != nil {
		return err
	}
	if !isAddressFault(err) {
		return err
	}

	l.addrFaults.Inc()
	l.cfg.Errors.Report(errlog.CodeAddressFault, "lcm", "send to %v: %v", target, err)
	newTarget, ferr := l.addressFault(target)
	if ferr != nil {
		if errors.Is(ferr, ErrStillAlive) {
			// §3.5: "it will attempt to reestablish what appears to be a
			// broken communication link." The peer may be mid-restart (or
			// the network mid-heal), so the redial backs off under the
			// reconnect policy rather than failing on the first refusal.
			return l.reconnect.Do(ctx, l.done, func() error {
				l.retries.Inc()
				l.cfg.IP.DropCircuits(target)
				h = l.header(target, mode, flags, seq, span)
				return l.cfg.IP.SendContext(ctx, target, h, payload)
			})
		}
		return fmt.Errorf("%v (fault handling: %w)", err, ferr)
	}

	// §3.5: the forwarding UAdd is entered in the table and "control is
	// returned to the calling routine. It will now find this forwarding
	// UAdd ... and establish a connection in exactly the same manner as
	// during an initial connection."
	if newTarget != target {
		l.fwd.Put(target, newTarget)
		// The fast-path cache may hold entries resolved to the old target;
		// drop them so the next send re-resolves through the table.
		l.dest.InvalidateTarget(target)
		l.cfg.Errors.Report(errlog.CodeForwarded, "lcm", "%v -> %v", target, newTarget)
	}
	l.cfg.IP.DropCircuits(target)
	l.cfg.IP.DropCircuits(newTarget)
	l.retries.Inc()
	h = l.header(newTarget, mode, flags, seq, span)
	return l.cfg.IP.SendContext(ctx, newTarget, h, payload)
}

// isAddressFault classifies the errors the fault handler may recover from.
// Backpressure is deliberately not one of them: a credit-starved circuit
// is healthy, and treating congestion as relocation would stampede the
// naming service exactly when the system is busiest. The error surfaces
// to the caller, who may retry, wait, or shed load.
func isAddressFault(err error) bool {
	if errors.Is(err, ndlayer.ErrBackpressure) {
		return false
	}
	var fault *ndlayer.FaultError
	return errors.As(err, &fault) || errors.Is(err, iplayer.ErrOpenFailed) || errors.Is(err, iplayer.ErrNoRoute)
}

// addressFault is the §3.5 handler, with the §6.3 patch: "This problem was
// eventually patched in the LCM-Layer address fault handler, although it
// also should not know of the Name Server."
func (l *Layer) addressFault(target addr.UAdd) (addr.UAdd, error) {
	depth := l.faultDepth.Add(1)
	defer l.faultDepth.Add(-1)
	if depth > maxFaultDepth {
		// The 1986 implementation "recursively ran through this whole
		// thing until either the stack overflowed, or the connection could
		// be reestablished". The depth bound is our stack.
		l.cfg.Errors.Report(errlog.CodeNSRecursion, "lcm", "fault recursion depth %d on %v", depth, target)
		return addr.Nil, ErrFaultRecursion
	}

	exit := l.cfg.Tracer.Enter(trace.LayerLCM, "address-fault", "locate replacement for "+target.String(), "lcm")
	defer func() { exit(nil) }()

	if target.IsNameServer() && !l.noNSFaultPatch {
		// The patch: the one layer with a forwarding table must not ask
		// the naming service about the naming service. Redial the
		// well-known address instead.
		l.cfg.Errors.Report(errlog.CodeNSFaultPatch, "lcm", "dead Name Server circuit; redialing well-known address")
		l.cfg.IP.DropCircuits(target)
		return target, ErrStillAlive
	}

	l.mu.Lock()
	resolver := l.resolver
	l.mu.Unlock()
	if resolver == nil {
		return addr.Nil, ErrNoResolver
	}
	newU, err := resolver.Forward(target)
	if err != nil {
		return addr.Nil, err
	}
	l.cfg.Errors.Report(errlog.CodeRelocated, "lcm", "%v relocated to %v", target, newU)
	return newU, nil
}

// CallContext sends synchronously and waits for the Reply (the paper's
// send/receive/reply primitives). Cancellation or an expiring deadline of
// ctx ends the reply wait early with ctx.Err(); the fixed CallTimeout
// still applies as an upper bound.
func (l *Layer) CallContext(ctx context.Context, dst addr.UAdd, mode wire.Mode, flags uint16, payload []byte) (Delivery, error) {
	return l.CallSpan(ctx, l.NewSpan(), dst, mode, flags, payload)
}

// CallSpan is CallContext with a caller-supplied span ID. The reply
// carries the same span back, so one span covers the full round trip.
func (l *Layer) CallSpan(ctx context.Context, span uint32, dst addr.UAdd, mode wire.Mode, flags uint16, payload []byte) (d Delivery, err error) {
	exit := trace.NopExit
	if l.cfg.Tracer.On() {
		exit = l.cfg.Tracer.Enter(trace.LayerLCM, "call", "synchronous call to "+dst.String(), "above")
		l.cfg.Tracer.Span(span, trace.LayerLCM, "call", dst.String())
	}
	defer func() { exit(err) }()
	var start time.Time
	if l.hCall.Enabled() {
		start = time.Now()
	}
	d, err = l.call(ctx, span, dst, mode, flags, payload)
	l.calls.Inc()
	if !start.IsZero() {
		l.hCall.Observe(time.Since(start))
	}
	return d, err
}

func (l *Layer) call(ctx context.Context, span uint32, dst addr.UAdd, mode wire.Mode, flags uint16, payload []byte) (Delivery, error) {
	if err := ctx.Err(); err != nil {
		return Delivery{}, err
	}
	seq := l.nextSeq()
	if l.closed.Load() {
		return Delivery{}, ErrClosed
	}
	w := l.addWaiter(seq)

	if err := l.sendInternal(ctx, dst, mode, flags|wire.FlagCall, seq, span, payload); err != nil {
		l.abandonWaiter(seq, w)
		return Delivery{}, err
	}
	d, err := l.await(ctx, w, seq, dst, l.cfg.CallTimeout, false)
	if err == nil && d.Header.Flags&wire.FlagError != 0 {
		return d, &RemoteError{Src: d.Header.Src, Msg: string(d.Payload)}
	}
	return d, err
}

// await waits on w for the reply (or, when ping is set, the pong) to
// seq: until it arrives, ctx ends, or timeout passes on a pooled timer.
// On every path but an arrival the waiter is abandoned.
func (l *Layer) await(ctx context.Context, w *callWaiter, seq uint32, dst addr.UAdd, timeout time.Duration, ping bool) (Delivery, error) {
	timer := retry.GetTimer(timeout)
	defer retry.PutTimer(timer)
	select {
	case d := <-w.ch:
		// The deliverer claimed the map entry before sending; the waiter
		// is exclusively ours again and empty.
		waiterPool.Put(w)
		return d, nil
	case <-ctx.Done():
		l.abandonWaiter(seq, w)
		return Delivery{}, ctx.Err()
	case <-timer.C:
		l.abandonWaiter(seq, w)
		if ping {
			return Delivery{}, fmt.Errorf("%w: ping %v", ErrCallTimeout, dst)
		}
		return Delivery{}, fmt.Errorf("%w: %v seq %d", ErrCallTimeout, dst, seq)
	}
}

// Reply answers a Call. It prefers the arriving circuit (the only path
// back to a TAdd source behind gateways); if that circuit has died it
// falls back to a routed send.
func (l *Layer) Reply(d *Delivery, mode wire.Mode, flags uint16, payload []byte) (err error) {
	exit := trace.NopExit
	if l.cfg.Tracer.On() {
		exit = l.cfg.Tracer.Enter(trace.LayerLCM, "reply", "reply to "+d.Src().String(), "above")
		l.cfg.Tracer.Span(d.Header.Span, trace.LayerLCM, "reply", d.Src().String())
	}
	defer func() { exit(err) }()
	// Counted before the send: whoever has seen the reply arrive must
	// also see it counted (a caller scraping lcm.replies right after
	// its call returns).
	l.replies.Inc()
	return l.reply(d, mode, flags, payload)
}

func (l *Layer) reply(d *Delivery, mode wire.Mode, flags uint16, payload []byte) error {
	// The reply reuses the call's span: one span ID covers the round trip.
	h := l.header(d.Header.Src, mode, flags|wire.FlagReply, d.Header.Seq, d.Header.Span)
	if d.via != nil {
		if err := l.cfg.IP.SendVia(d.via, d.Header.Circuit, h, payload); err == nil {
			return nil
		}
	}
	if d.Header.Src.IsTemp() {
		return fmt.Errorf("lcm: reply circuit to TAdd source %v is gone", d.Header.Src)
	}
	return l.sendResolved(context.Background(), d.Header.Src, mode, flags|wire.FlagReply, d.Header.Seq, d.Header.Span, payload)
}

// ReplyError answers a Call with an error the caller sees as ErrRemote.
func (l *Layer) ReplyError(d *Delivery, msg string) error {
	return l.Reply(d, wire.ModePacked, wire.FlagError|wire.FlagService, []byte(msg))
}

// Ping probes a module's liveness (used by the Name Server's forwarding
// intelligence to decide whether an old UAdd "is really inactive").
func (l *Layer) Ping(dst addr.UAdd, timeout time.Duration) error {
	return l.PingContext(context.Background(), dst, timeout)
}

// PingContext is Ping honoring ctx; the pong wait uses a pooled timer so
// liveness probes allocate nothing under churn.
func (l *Layer) PingContext(ctx context.Context, dst addr.UAdd, timeout time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	seq := l.nextSeq()
	if l.closed.Load() {
		return ErrClosed
	}
	w := l.addWaiter(seq)

	h := l.header(dst, wire.ModeNone, wire.FlagService, seq, 0)
	h.Type = wire.TPing
	if err := l.cfg.IP.SendContext(ctx, dst, h, nil); err != nil {
		l.abandonWaiter(seq, w)
		return err
	}
	_, err := l.await(ctx, w, seq, dst, timeout, true)
	return err
}

// Recv waits for the next inbound message. The Delivery is the caller's:
// it is copied out of the inbox's cell, which goes back to the layer, so it
// stays valid however many messages follow it.
func (l *Layer) Recv(timeout time.Duration) (Delivery, error) {
	// Fast path: a queued message needs no timer at all.
	select {
	case c := <-l.inbox:
		return take(c), nil
	default:
	}
	timer := retry.GetTimer(timeout)
	defer retry.PutTimer(timer)
	select {
	case c := <-l.inbox:
		return take(c), nil
	case <-l.done:
		// Drain anything already queued before reporting closure.
		select {
		case c := <-l.inbox:
			return take(c), nil
		default:
			return Delivery{}, ErrClosed
		}
	case <-timer.C:
		return Delivery{}, fmt.Errorf("lcm: recv timed out after %v", timeout)
	}
}

// HandleInbound accepts one frame from the IP-Layer and demultiplexes it
// on the delivering ND worker: a reply or pong wakes its waiter, a
// message goes to the inbox, neither ever blocks. The ND-Layer runs one
// worker at a time per circuit, which is what keeps per-sender FIFO. A
// reply is handed to its waiter by value; a message rides the inbox in a
// pooled cell.
func (l *Layer) HandleInbound(in ndlayer.Inbound) {
	d := Delivery{Header: in.Header, Payload: in.Payload, via: in.Via}
	switch in.Header.Type {
	case wire.TData:
		if in.Header.Flags&wire.FlagReply != 0 {
			l.deliverReply(d)
			return
		}
		c := cellPool.Get().(*Delivery)
		*c = d
		l.deliverInbox(c)
	case wire.TPing:
		h := l.header(in.Header.Src, wire.ModeNone, wire.FlagService|wire.FlagReply, in.Header.Seq, in.Header.Span)
		h.Type = wire.TPong
		if in.Via != nil {
			_ = l.cfg.IP.SendVia(in.Via, in.Header.Circuit, h, nil)
		}
	case wire.TPong:
		l.deliverReply(d)
	default:
		l.cfg.Errors.Report(errlog.CodeUnknowncontrol, "lcm", "unexpected %v from %v", in.Header.Type, in.Header.Src)
	}
}

func (l *Layer) deliverReply(d Delivery) {
	if l.cfg.Tracer.On() {
		l.cfg.Tracer.Span(d.Header.Span, trace.LayerLCM, "reply-recv", d.Header.Src.String())
	}
	// LoadAndDelete is the ownership claim: exactly one deliverer can win
	// the map entry, so the buffered send below can never block or double
	// up, and a duplicate reply falls through to the late-reply report.
	w, ok := l.waiters.LoadAndDelete(uint64(d.Header.Seq))
	if !ok {
		// A reply for a call that timed out or was forgotten: absorbed,
		// but visible in the error table (§6.3's point about relentless
		// exception handling).
		l.cfg.Errors.Report(errlog.CodeDroppedMsg, "lcm", "late reply seq %d from %v", d.Header.Seq, d.Header.Src)
		return
	}
	w.ch <- d
}

// deliverInbox queues cell d, or recycles it when the layer is closed or
// the inbox is full.
func (l *Layer) deliverInbox(d *Delivery) {
	if l.closed.Load() {
		recycle(d)
		return
	}
	hooks := l.getHooks()
	if !d.IsService() && hooks.Record != nil {
		hooks.Record(Event{When: time.Now(), Kind: "recv", Peer: d.Header.Src, Bytes: len(d.Payload)})
	}
	if l.cfg.Tracer.On() {
		l.cfg.Tracer.Span(d.Header.Span, trace.LayerLCM, "recv", d.Header.Src.String())
	}
	select {
	case l.inbox <- d:
		l.inboxDepth.Set(int64(len(l.inbox)))
		if l.overflowed.Load() {
			l.overflowed.Store(false)
		}
	default:
		// Report once per overflow episode, not once per dropped frame: a
		// datagram storm would otherwise spend more on error formatting
		// than on delivery.
		if l.overflowed.CompareAndSwap(false, true) {
			l.cfg.Errors.Report(errlog.CodeDroppedMsg, "lcm", "inbox overflow; dropping messages (first from %v)", d.Header.Src)
		}
		if d.IsCall() {
			// A one-way send is dropped, as documented; a call is refused
			// at once so its caller does not wait out CallTimeout. The
			// refusal never waits for credit: this is the delivering
			// worker, and a stalled reply would stall the circuit. A
			// refusal that cannot be sent leaves the caller to its
			// timeout, which is all the drop gave it before.
			_ = l.Reply(d, wire.ModePacked, wire.FlagError|wire.FlagService|wire.FlagNoBlock, []byte(ErrInboxOverflow.Error()))
		}
		recycle(d)
	}
}

// Close shuts the layer down.
func (l *Layer) Close() {
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	close(l.done)
}
