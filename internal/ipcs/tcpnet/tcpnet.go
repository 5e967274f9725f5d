// Package tcpnet is the TCP port of the NTCS ND-Layer substrate: the
// paper's "Unix TCP communication support", realized with the Go net
// package over loopback. Messages are framed with a four-byte length
// prefix written by the same shift routines the header codec uses, so the
// stream carries no host byte order. Each connection is read by one
// goroutine parked in the Go runtime's netpoller; its reads are
// syscall.Read on the socket's fd, so the package builds on Unix only.
package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"

	"ntcs/internal/ipcs"
)

// MaxMessage bounds one framed message (matches wire.MaxPayload plus
// header slack).
const MaxMessage = 17 << 20

// Net is a TCP-based IPCS on one logical network. Multiple Nets with
// distinct IDs model disjoint networks even though all sockets live on
// loopback: Dial refuses addresses not registered on this Net, preserving
// the disjointness the IP-Layer depends on.
//
// That registry is per-process; multi-process deployments (the cmd
// binaries) use NewOpen, where disjointness is enforced by the operator's
// network configuration, as on the 1986 testbed.
type Net struct {
	id     string
	listIP string
	open   bool

	mu    sync.Mutex
	known map[string]bool // endpoints on this logical network
}

var _ ipcs.Network = (*Net)(nil)

// New creates a TCP IPCS with the given logical network identifier,
// listening on 127.0.0.1.
func New(id string) *Net {
	return &Net{id: id, listIP: "127.0.0.1", known: make(map[string]bool)}
}

// NewOpen creates a TCP IPCS that will dial any address — the
// multi-process deployment mode.
func NewOpen(id string) *Net {
	n := New(id)
	n.open = true
	return n
}

// ID returns the logical network identifier.
func (n *Net) ID() string { return n.id }

// Listen opens a TCP endpoint. hint may be "host:port"; empty or ":0"
// picks an ephemeral port.
func (n *Net) Listen(hint string) (ipcs.Listener, error) {
	laddr := hint
	if laddr == "" {
		laddr = n.listIP + ":0"
	}
	tl, err := net.Listen("tcp", laddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet %s: listen: %w", n.id, err)
	}
	addrStr := tl.Addr().String()
	n.mu.Lock()
	n.known[addrStr] = true
	n.mu.Unlock()
	return &listener{net: n, tl: tl}, nil
}

// Dial connects to an endpoint previously created on this logical network.
func (n *Net) Dial(physAddr string) (ipcs.Conn, error) {
	n.mu.Lock()
	ok := n.open || n.known[physAddr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcpnet %s: dial %q: %w", n.id, physAddr, ipcs.ErrNoSuchEndpoint)
	}
	c, err := net.Dial("tcp", physAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet %s: dial %q: %w (%v)", n.id, physAddr, ipcs.ErrUnreachable, err)
	}
	return newConn(c)
}

// Forget removes an endpoint from the logical network's address registry
// (used when simulating a module leaving the network).
func (n *Net) Forget(physAddr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.known, physAddr)
}

type listener struct {
	net       *Net
	tl        net.Listener
	closeOnce sync.Once
	closeErr  error
}

func (l *listener) Addr() string { return l.tl.Addr().String() }

func (l *listener) Accept() (ipcs.Conn, error) {
	c, err := l.tl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, fmt.Errorf("tcpnet %s: accept: %w", l.net.id, ipcs.ErrClosed)
		}
		return nil, fmt.Errorf("tcpnet %s: accept: %w", l.net.id, err)
	}
	return newConn(c)
}

func (l *listener) Close() error {
	l.closeOnce.Do(func() {
		l.net.Forget(l.Addr())
		l.closeErr = l.tl.Close()
	})
	return l.closeErr
}

type conn struct {
	c      net.Conn
	rc     syscall.RawConn
	closed atomic.Bool

	// Send side, guarded by sendMu. There is deliberately no bufio.Writer:
	// every Send flushed it immediately, so its 4 KiB buffer was pure
	// per-conn overhead on an idle mesh. Sends instead hand a prefix+payload
	// iovec list straight to writev. prefixes and vecs are retained across
	// calls so a steady sender stops allocating; entries are nilled after
	// each write so the retained array never pins caller buffers. nb is
	// the copy of vecs that net.Buffers.WriteTo consumes: a local copy
	// would escape through WriteTo's pointer receiver on every send.
	sendMu   sync.Mutex
	prefixes []byte
	vecs     net.Buffers
	nb       net.Buffers

	// Receive side, touched only by the conn's reader goroutine; cb is
	// written once in Start, before the reader exists. pend carries a
	// partial frame between reads. read is readFd bound once, so
	// RawConn.Read is never handed a fresh closure; s, n and err are its
	// results. s is the borrowed scratch, held only from a read to the
	// end of its feed: a parked reader holds none.
	cb   ipcs.RecvFunc
	term bool // terminal delivered; stop reading
	pend []byte
	read func(fd uintptr) bool
	s    *scratch
	n    int
	err  error
}

func newConn(c net.Conn) (*conn, error) {
	rc, err := c.(syscall.Conn).SyscallConn()
	if err != nil {
		c.Close()
		return nil, err
	}
	tc := &conn{c: c, rc: rc}
	tc.read = tc.readFd
	return tc, nil
}

// Start registers the receive callback and starts the conn's reader.
func (c *conn) Start(cb ipcs.RecvFunc) {
	c.cb = cb
	go c.recv()
}

// deliverTerminal invokes the callback's terminal error; the reader
// stops after it, so it runs exactly once.
func (c *conn) deliverTerminal(err error) {
	c.term = true
	c.cb(nil, err)
}

// errPeerClosed is the cause of the terminal error when the peer's FIN
// arrives.
var errPeerClosed = errors.New("connection closed by peer")

// recv is the conn's reader: one goroutine that waits for data in the
// Go runtime's netpoller, not in a blocked read, so an idle conn holds
// no OS thread and no buffer. Each RawConn.Read returns after one read
// that found data (or the FIN, or an error); the frames in it are
// delivered inline, serially and in order, and the next Read parks only
// after a read reports EAGAIN, so a FIN queued behind data is never
// missed. Close needs no wake-up: it evicts the fd from the netpoller,
// the parked Read fails, and the terminal error follows.
func (c *conn) recv() {
	for !c.term {
		err := c.rc.Read(c.read)
		if err == nil { // readFd returned true: it holds a scratch
			s := c.s
			c.s = nil
			if err = c.err; err == nil && c.n == 0 {
				err = errPeerClosed
			}
			if err == nil {
				c.feed(s.buf[:c.n], &s.arena)
			}
			scratchPool.Put(s)
		}
		if err != nil {
			c.deliverTerminal(fmt.Errorf("tcpnet: recv: %w (%v)", ipcs.ErrClosed, err))
		}
	}
}

// readFd is the RawConn read callback: borrow a scratch and do one
// non-blocking read. On EAGAIN it hands the scratch back and reports
// false, and the runtime parks the reader until the fd is readable.
func (c *conn) readFd(fd uintptr) bool {
	c.s = scratchPool.Get().(*scratch)
	c.n, c.err = syscall.Read(int(fd), c.s.buf[:])
	if c.err == syscall.EAGAIN {
		scratchPool.Put(c.s)
		c.s = nil
		return false
	}
	return true
}

// putLen and getLen are the length-prefix shift routines: explicit shifts,
// never host byte order.
func putLen(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getLen(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Send frames msg with its length prefix and hands both to one writev.
// There is no intermediate copy: the Go runtime caches the iovec array on
// the poll descriptor, so a steady sender performs zero allocations here.
func (c *conn) Send(msg []byte) error {
	if len(msg) > MaxMessage {
		return fmt.Errorf("tcpnet: message of %d bytes exceeds limit", len(msg))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.prefixes = append(c.prefixes[:0], 0, 0, 0, 0)
	putLen(c.prefixes, uint32(len(msg)))
	c.vecs = append(c.vecs[:0], c.prefixes, msg)
	return c.writeVecs()
}

// writeVecs hands c.vecs to one writev; sendMu is held. WriteTo consumes
// the slice header as it drains, so it gets the c.nb copy and the
// backing array of c.vecs stays reusable.
func (c *conn) writeVecs() error {
	c.nb = c.vecs
	_, err := c.nb.WriteTo(c.c)
	clear(c.vecs) // don't pin caller buffers in the retained array
	if err != nil {
		return fmt.Errorf("tcpnet: send: %w (%v)", ipcs.ErrClosed, err)
	}
	return nil
}

// SendBatch frames every message and hands the whole run to one writev
// via net.Buffers: a batch of N messages costs one syscall instead of the
// N writev calls Send performs. Oversize elements fail the batch before
// any byte reaches the stream.
func (c *conn) SendBatch(msgs [][]byte) error {
	for _, m := range msgs {
		if len(m) > MaxMessage {
			return fmt.Errorf("tcpnet: message of %d bytes exceeds limit", len(m))
		}
	}
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return c.Send(msgs[0])
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	prefixes := c.prefixes[:0]
	vecs := c.vecs[:0]
	for _, m := range msgs {
		off := len(prefixes)
		prefixes = append(prefixes, 0, 0, 0, 0)
		putLen(prefixes[off:], uint32(len(m)))
		vecs = append(vecs, nil, m)
	}
	for i := range msgs {
		vecs[2*i] = prefixes[4*i : 4*i+4]
	}
	c.prefixes = prefixes
	c.vecs = vecs
	return c.writeVecs()
}

// arenaSize is one receive arena: large enough that one read of small
// frames carves dozens of messages from a single allocation.
const arenaSize = 64 << 10

// recvArena carves per-message buffers out of one large allocation.
// Each carved message owns its slice exclusively (capacity-clamped), so
// arenas only amortize allocator and GC work — they never alias. An
// arena travels with a pooled scratch shared by every connection's
// reader: a read borrows one, carves from it, and returns the remainder,
// so a million idle connections hold no arena bytes at all. Returning a
// partially carved arena is safe precisely because carved slices are
// capacity-clamped — the next borrower can only touch bytes after them.
type recvArena struct {
	buf []byte
}

// carve returns an exclusively owned n-byte slice, refilling the arena
// when it runs dry. Messages near the arena size get their own
// allocation rather than a fresh arena.
func (a *recvArena) carve(n int) []byte {
	if n >= arenaSize/4 {
		return make([]byte, n)
	}
	if len(a.buf) < n {
		a.buf = make([]byte, arenaSize)
	}
	msg := a.buf[:n:n]
	a.buf = a.buf[n:]
	return msg
}

// scratch is what one read borrows: the buffer the kernel fills and the
// arena its frames are carved from.
type scratch struct {
	buf   [64 << 10]byte
	arena recvArena
}

// scratchPool holds the scratches. They are borrowed per read rather
// than retained per conn: only readers with data in hand hold one, so
// the cost scales with the conns being read at once, not conn count.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pendShrinkCap bounds the partial-frame carry buffer a conn may retain
// between reads: one oversize frame (up to MaxMessage, 17 MiB) must not
// pin its capacity on the conn forever after the tail is consumed.
const pendShrinkCap = 64 << 10

// feed runs the incremental frame parser over one read's bytes,
// delivering every complete frame and carrying a partial tail to the
// next read. a is the read's borrowed arena.
func (c *conn) feed(data []byte, a *recvArena) {
	if len(c.pend) > 0 {
		c.pend = append(c.pend, data...)
		data = c.pend
	}
	for len(data) >= 4 {
		n := getLen(data)
		if n > MaxMessage {
			c.deliverTerminal(fmt.Errorf("tcpnet: recv: frame of %d bytes exceeds limit", n))
			return
		}
		if len(data) < 4+int(n) {
			break
		}
		msg := a.carve(int(n))
		copy(msg, data[4:4+n])
		data = data[4+n:]
		c.cb(msg, nil)
	}
	switch {
	case len(data) == 0 && cap(c.pend) > pendShrinkCap:
		c.pend = nil // release a large frame's carry capacity
	case len(data) == 0:
		c.pend = c.pend[:0]
	default:
		// data may alias c.pend's tail; append-to-front copies forward,
		// which is overlap-safe.
		c.pend = append(c.pend[:0], data...)
	}
}

// Close closes the socket. The reader, parked or mid-delivery, then
// fails its next read and delivers the terminal error itself.
func (c *conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.c.Close()
}
