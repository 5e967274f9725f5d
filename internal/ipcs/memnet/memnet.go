// Package memnet is an in-memory IPCS: a simulated local network with
// configurable latency, jitter, message loss, and failure injection. It
// stands in for the physical networks of the 1986 URSA testbed; two memnet
// instances with different IDs are disjoint networks, reachable from one
// another only through NTCS gateways, exactly as the paper's local and
// long-haul networks were.
package memnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/ipcs"
)

// Options tune the simulated network. The zero value is a perfect network:
// no latency, no loss.
type Options struct {
	// Latency delays every message by this much.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossProb drops each message with this probability. Loss is silent, as
	// on a real datagram substrate; memnet connections remain "reliable" in
	// the sense the ND-Layer expects only when LossProb is zero, so loss is
	// used to exercise failure paths, not normal operation.
	LossProb float64
	// Seed makes loss and jitter deterministic; 0 seeds from 1.
	Seed int64
	// QueueLen bounds each connection direction (default 1024).
	QueueLen int
}

// Net is one simulated network. It implements ipcs.Network.
type Net struct {
	id   string
	opts Options
	seed int64

	// The fault-injection knobs are atomics read on every message: a
	// chaos orchestrator flipping them must not serialize the traffic it
	// is perturbing through the structural lock below.
	latencyNs atomic.Int64
	jitterNs  atomic.Int64
	lossBits  atomic.Uint64 // math.Float64bits of the loss probability
	pipeSeq   atomic.Int64  // per-pipe RNG seed sequence

	mu        sync.Mutex // guards topology only (listeners, isolation)
	listeners map[string]*listener
	isolated  map[string]bool
	nextEP    int
	down      bool
}

var _ ipcs.Network = (*Net)(nil)

// New creates a simulated network with the given logical identifier.
func New(id string, opts Options) *Net {
	if opts.QueueLen <= 0 {
		opts.QueueLen = 1024
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	n := &Net{
		id:        id,
		opts:      opts,
		seed:      seed,
		listeners: make(map[string]*listener),
		isolated:  make(map[string]bool),
	}
	n.latencyNs.Store(int64(opts.Latency))
	n.jitterNs.Store(int64(opts.Jitter))
	n.lossBits.Store(math.Float64bits(opts.LossProb))
	return n
}

// ID returns the logical network identifier.
func (n *Net) ID() string { return n.id }

// Listen creates an endpoint named hint, or an automatic name when hint is
// empty.
func (n *Net) Listen(hint string) (ipcs.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, fmt.Errorf("memnet %s: %w", n.id, ipcs.ErrNetworkDown)
	}
	name := hint
	if name == "" {
		n.nextEP++
		name = fmt.Sprintf("ep-%d", n.nextEP)
	}
	if _, exists := n.listeners[name]; exists {
		return nil, fmt.Errorf("memnet %s: endpoint %q already exists", n.id, name)
	}
	l := &listener{
		net:     n,
		addr:    name,
		pending: make(chan *conn, 64),
		closed:  make(chan struct{}),
	}
	n.listeners[name] = l
	return l, nil
}

// Dial opens a connection to an endpoint on this network.
func (n *Net) Dial(physAddr string) (ipcs.Conn, error) {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil, fmt.Errorf("memnet %s: %w", n.id, ipcs.ErrNetworkDown)
	}
	l, ok := n.listeners[physAddr]
	isolated := n.isolated[physAddr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("memnet %s: dial %q: %w", n.id, physAddr, ipcs.ErrNoSuchEndpoint)
	}
	if isolated {
		return nil, fmt.Errorf("memnet %s: dial %q: %w", n.id, physAddr, ipcs.ErrUnreachable)
	}

	a2b := newPipe(n)
	b2a := newPipe(n)
	dialer := &conn{send: a2b, recv: b2a}
	acceptee := &conn{send: b2a, recv: a2b}

	select {
	case l.pending <- acceptee:
		return dialer, nil
	case <-l.closed:
		return nil, fmt.Errorf("memnet %s: dial %q: %w", n.id, physAddr, ipcs.ErrClosed)
	}
}

// Isolate makes an endpoint unreachable (new dials fail, existing
// connections break) or restores it. It models pulling a machine off the
// network without destroying the endpoint.
func (n *Net) Isolate(physAddr string, isolated bool) {
	n.mu.Lock()
	l := n.listeners[physAddr]
	n.isolated[physAddr] = isolated
	n.mu.Unlock()
	if isolated && l != nil {
		l.breakConns()
	}
}

// Hold stalls (held) or releases delivery of every frame an endpoint
// sends on the connections it accepted: a receiver that keeps consuming
// but whose answers stop arriving (the slow loris). Held frames queue in
// order up to the connection's queue bound; nothing is dropped or broken,
// and releasing delivers the backlog. An endpoint not listening is ignored.
func (n *Net) Hold(physAddr string, held bool) {
	n.mu.Lock()
	l := n.listeners[physAddr]
	n.mu.Unlock()
	if l == nil {
		return
	}
	l.mu.Lock()
	l.held = held
	for _, c := range l.conns {
		c.send.setHeld(held)
	}
	l.mu.Unlock()
}

// SetDown fails the entire network (or brings it back). Existing
// connections break; new operations return ErrNetworkDown.
func (n *Net) SetDown(down bool) {
	n.mu.Lock()
	n.down = down
	var all []*listener
	for _, l := range n.listeners {
		all = append(all, l)
	}
	n.mu.Unlock()
	if down {
		for _, l := range all {
			l.breakConns()
		}
	}
}

// Endpoints returns the addresses currently listening, for diagnostics.
func (n *Net) Endpoints() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.listeners))
	for a := range n.listeners {
		out = append(out, a)
	}
	return out
}

// SetLossProb adjusts the message-loss probability at run time (failure
// injection while a system is live).
func (n *Net) SetLossProb(p float64) {
	n.lossBits.Store(math.Float64bits(p))
}

// SetLatency adjusts the base delivery delay at run time.
func (n *Net) SetLatency(d time.Duration) {
	n.latencyNs.Store(int64(d))
}

// SetJitter adjusts the random extra delay bound at run time.
func (n *Net) SetJitter(d time.Duration) {
	n.jitterNs.Store(int64(d))
}

type listener struct {
	net     *Net
	addr    string
	pending chan *conn

	mu       sync.Mutex
	conns    []*conn
	held     bool // Hold: accepted conns' outbound delivery stalls
	closed   chan struct{}
	isClosed bool
}

func (l *listener) Addr() string { return l.addr }

func (l *listener) Accept() (ipcs.Conn, error) {
	select {
	case c := <-l.pending:
		l.mu.Lock()
		l.conns = append(l.conns, c)
		if l.held {
			c.send.setHeld(true)
		}
		l.mu.Unlock()
		return c, nil
	case <-l.closed:
		return nil, fmt.Errorf("memnet %s: accept on %q: %w", l.net.id, l.addr, ipcs.ErrClosed)
	}
}

func (l *listener) Close() error {
	l.mu.Lock()
	if l.isClosed {
		l.mu.Unlock()
		return nil
	}
	l.isClosed = true
	close(l.closed)
	l.mu.Unlock()

	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()

	l.breakConns()
	return nil
}

// breakConns severs every accepted connection, simulating endpoint death.
func (l *listener) breakConns() {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	// Pending, never-accepted dials break too.
	for {
		select {
		case c := <-l.pending:
			_ = c.Close()
		default:
			return
		}
	}
}

// pipe is one direction of a connection: a bounded queue of timestamped
// messages. When the queue goes from idle to busy the pipe starts its own
// drain goroutine (ipcs.StartDrain), which delivers until the queue is
// empty and exits; the dispatching flag guarantees at most one drain in
// flight, which is what makes callback delivery serial and FIFO, and an
// idle pipe holds no goroutine.
//
// Each pipe owns its loss/jitter RNG, seeded deterministically from the
// net seed and the pipe's creation index: concurrent connections never
// contend on a shared random source (fault injection must not perturb the
// timing it is meant to test), yet a fixed seed still reproduces the same
// loss pattern as long as pipes are created in the same order. The RNG is
// ~5KB and only loss/jitter paths touch it, so it is built lazily — a
// perfect network holds 100k+ pipes without paying for random state.
type pipe struct {
	net  *Net
	seed int64

	mu            sync.Mutex
	rng           *rand.Rand // guarded by mu; lazily built
	items         []item     // items[head:] are queued; the array is kept across drains
	head          int
	run           func() // p.Run, bound on the first drain so starting one allocates nothing
	lastAtNs      int64  // latest queued delivery time, unix nanos
	cb            ipcs.RecvFunc
	closed        bool // the bools share one word: the pipe stays in the 96 B size class
	dispatching   bool // a drain is running (or a timer is armed)
	termDelivered bool
	held          bool // Net.Hold: queued items wait, unless closed
}

// item timestamps are unix nanos rather than time.Time: an idle mesh
// holds two pipes per circuit, and the monotonic-clock word plus wall
// fields of a time.Time cost 16 B more per item and per pipe than the
// comparison they exist for needs.
type item struct {
	data []byte
	at   int64 // earliest delivery time, unix nanos
}

func newPipe(n *Net) *pipe {
	// Knuth's MMIX multiplier spreads consecutive indices across the seed
	// space so pipe streams are decorrelated.
	idx := n.pipeSeq.Add(1)
	return &pipe{net: n, seed: n.seed + idx*6364136223846793005}
}

// rngLocked returns the pipe's RNG, building it on first use. Caller
// holds p.mu.
func (p *pipe) rngLocked() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng
}

// delayLocked computes this message's delivery delay. Caller holds p.mu.
func (p *pipe) delayLocked() time.Duration {
	d := time.Duration(p.net.latencyNs.Load())
	if j := p.net.jitterNs.Load(); j > 0 {
		d += time.Duration(p.rngLocked().Int63n(j))
	}
	return d
}

// dropLocked decides whether to lose this message. Caller holds p.mu.
func (p *pipe) dropLocked() bool {
	lp := math.Float64frombits(p.net.lossBits.Load())
	if lp <= 0 {
		return false
	}
	return p.rngLocked().Float64() < lp
}

// start registers the receive callback and kicks off delivery of anything
// buffered before registration.
func (p *pipe) start(cb ipcs.RecvFunc) {
	p.mu.Lock()
	p.cb = cb
	p.maybeScheduleLocked()
	p.mu.Unlock()
}

// maybeScheduleLocked queues a drain if there is deliverable work and no
// drain is already in flight. Caller holds p.mu.
func (p *pipe) maybeScheduleLocked() {
	if p.cb == nil || p.dispatching || p.stalledLocked() {
		return
	}
	if p.head == len(p.items) && (!p.closed || p.termDelivered) {
		return
	}
	p.dispatching = true
	if p.run == nil {
		p.run = p.Run
	}
	ipcs.StartDrain(p.run)
}

// Run drains the pipe through the callback, on the goroutine
// maybeScheduleLocked started. At most one Run is in flight per pipe (the
// dispatching flag), so callbacks are serial and in arrival order. A head
// item whose simulated delivery time has not arrived hands the drain to a
// timer and exits, instead of sleeping on a goroutine.
func (p *pipe) Run() {
	for {
		p.mu.Lock()
		if p.head == len(p.items) {
			p.items, p.head = p.items[:0], 0
			if p.closed && !p.termDelivered {
				p.termDelivered = true
				p.dispatching = false
				cb := p.cb
				p.mu.Unlock()
				cb(nil, fmt.Errorf("memnet %s: recv: %w", p.net.id, ipcs.ErrClosed))
				return
			}
			p.dispatching = false
			p.mu.Unlock()
			return
		}
		if p.stalledLocked() {
			p.dispatching = false // setHeld(false) schedules the next drain
			p.mu.Unlock()
			return
		}
		it := p.items[p.head]
		if wait := time.Duration(it.at - time.Now().UnixNano()); wait > 0 {
			// Keep dispatching set: the timer owns the next drain.
			p.mu.Unlock()
			time.AfterFunc(wait, func() {
				ipcs.CountPoll()
				p.Run()
			})
			return
		}
		p.items[p.head] = item{}
		p.head++
		cb := p.cb
		p.mu.Unlock()
		cb(it.data, nil)
	}
}

// stalledLocked reports whether a hold keeps the queue undelivered; a
// closed pipe drains regardless. Caller holds p.mu.
func (p *pipe) stalledLocked() bool { return p.held && !p.closed }

// setHeld stalls or releases the pipe's delivery (Net.Hold).
func (p *pipe) setHeld(held bool) {
	p.mu.Lock()
	p.held = held
	p.maybeScheduleLocked()
	p.mu.Unlock()
}

// writeBatch deposits a run of messages under one lock acquisition and
// one wakeup — the memnet analogue of a vectored write. Each message is
// decided in turn (loss, then delay, then overflow), so seeded loss and
// jitter draw the same RNG sequence whatever the batching; a failed
// element leaves the preceding prefix queued.
func (p *pipe) writeBatch(msgs [][]byte) error {
	if len(msgs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("memnet %s: send: %w", p.net.id, ipcs.ErrClosed)
	}
	queued := false
	defer func() {
		if queued {
			p.maybeScheduleLocked()
		}
	}()
	for _, data := range msgs {
		if p.dropLocked() {
			continue // silent loss
		}
		at := time.Now().UnixNano() + int64(p.delayLocked())
		if len(p.items)-p.head >= p.net.opts.QueueLen {
			return fmt.Errorf("memnet %s: send: %w", p.net.id, ipcs.ErrMailboxFull)
		}
		if at < p.lastAtNs {
			at = p.lastAtNs // jitter must not reorder
		}
		p.lastAtNs = at
		msg := make([]byte, len(data))
		copy(msg, data)
		if p.head > 0 && len(p.items) == cap(p.items) {
			// Full array with a delivered prefix: slide the queued tail
			// down instead of letting append grow past what is queued.
			n := copy(p.items, p.items[p.head:])
			clear(p.items[n:])
			p.items, p.head = p.items[:n], 0
		}
		p.items = append(p.items, item{data: msg, at: at})
		queued = true
	}
	return nil
}

func (p *pipe) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.maybeScheduleLocked()
}

// conn is two pipe pointers and nothing else: each endpoint of a
// million-circuit mesh holds one.
type conn struct {
	send *pipe
	recv *pipe
}

// Send is a batch of one; the slice literal does not escape.
func (c *conn) Send(msg []byte) error         { return c.send.writeBatch([][]byte{msg}) }
func (c *conn) SendBatch(msgs [][]byte) error { return c.send.writeBatch(msgs) }
func (c *conn) Start(cb ipcs.RecvFunc)        { c.recv.start(cb) }

// Close is idempotent without a sync.Once: pipe.close already tolerates
// repeated calls under its own lock, and the Once word would cost 12 B on
// every conn of a million-circuit mesh for no added guarantee.
func (c *conn) Close() error {
	c.send.close()
	c.recv.close()
	return nil
}
