// Package tcpnet is the TCP port of the NTCS ND-Layer substrate: the
// paper's "Unix TCP communication support", realized with the Go net
// package over loopback. Messages are framed with a four-byte length
// prefix written by the same shift routines the header codec uses, so the
// stream carries no host byte order.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

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
	return newConn(c), nil
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
	return newConn(c), nil
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

	// Receive side. cb and term are touched only by the serialized
	// receive path: either the poller's drain task (Run, at most one
	// in flight — see connOS.pending) or the fallback blocking-reader
	// goroutine. cb is written once in Start, before any delivery can
	// happen. Message buffers are carved from pooled arenas (see
	// recvArena) shared across connections, not per-conn state.
	cb       ipcs.RecvFunc
	termOnce sync.Once
	term     bool // terminal delivered; stop parsing (receive path only)

	// Platform receive state: on linux, the epoll registration and
	// the partial-frame carry between drains (see poller_linux.go);
	// empty elsewhere.
	connOS
}

// recvBufSize sizes the fallback reader's buffer to swallow a full
// vectored batch (sendQueueCap small frames) in one kernel read, so a
// batching sender is matched by a batching receiver.
const recvBufSize = 128 << 10

func newConn(c net.Conn) *conn {
	return &conn{c: c}
}

// Start registers the receive callback. On Linux the connection joins the
// process-wide epoll poller — an idle connection costs no goroutine;
// elsewhere (and when epoll setup fails) a blocking reader goroutine
// feeds the callback.
func (c *conn) Start(cb ipcs.RecvFunc) {
	c.cb = cb
	c.startRecv()
}

// deliverTerminal invokes the callback's terminal error exactly once.
func (c *conn) deliverTerminal(err error) {
	c.term = true
	c.termOnce.Do(func() { c.cb(nil, err) })
}

// startBlockingReader is the portable receive path: one goroutine doing
// framed blocking reads. Used off-Linux, as the epoll fallback, and when
// NTCS_NO_EPOLL forces it for testing.
func (c *conn) startBlockingReader() {
	r := bufio.NewReaderSize(c.c, recvBufSize)
	go func() {
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				c.deliverTerminal(fmt.Errorf("tcpnet: recv: %w (%v)", ipcs.ErrClosed, err))
				return
			}
			n := getLen(hdr[:])
			if n > MaxMessage {
				c.deliverTerminal(fmt.Errorf("tcpnet: recv: frame of %d bytes exceeds limit", n))
				return
			}
			// Borrow an arena only for the carve: the ReadFull below can
			// block indefinitely, and carved slices are exclusively owned,
			// so the remainder may serve other connections meanwhile.
			a := arenaPool.Get().(*recvArena)
			msg := a.carve(int(n))
			arenaPool.Put(a)
			if _, err := io.ReadFull(r, msg); err != nil {
				c.deliverTerminal(fmt.Errorf("tcpnet: recv: %w (%v)", ipcs.ErrClosed, err))
				return
			}
			c.cb(msg, nil)
		}
	}()
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

// arenaSize is one receive arena: large enough that a drain of small
// frames carves dozens of messages from a single allocation.
const arenaSize = 64 << 10

// recvArena carves per-message buffers out of one large allocation.
// Each carved message owns its slice exclusively (capacity-clamped), so
// arenas only amortize allocator and GC work — they never alias. Arenas
// live in a process-wide pool shared by every connection's receive path:
// a drain borrows one, carves from it, and returns the remainder, so a
// million idle connections hold no arena bytes at all. Returning a
// partially carved arena is safe precisely because carved slices are
// capacity-clamped — the next borrower can only touch bytes after them.
type recvArena struct {
	buf []byte
}

var arenaPool = sync.Pool{New: func() any { return new(recvArena) }}

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

func (c *conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.detachRecv() // deregister from the poller before the fd can be reused
	err := c.c.Close()
	c.wakeRecv() // the receive path delivers its terminal error
	return err
}
