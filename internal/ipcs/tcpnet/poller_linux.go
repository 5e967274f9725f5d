//go:build linux

package tcpnet

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ntcs/internal/ipcs"
)

// The event-driven reader: one epoll instance per process, with one
// loop goroutine and one ipcs.Pool draining ready connections. A
// connection with no traffic costs no goroutine and no poller work.
//
// The loop never blocks an OS thread in epoll_wait. An epoll fd is
// itself pollable, so ours is registered with the Go runtime's netpoller
// like any socket: the loop polls it with a zero timeout and, once the
// inner queue is empty, parks in the runtime until the runtime's own
// epoll reports it readable. A wake-up is then an ordinary goroutine
// made ready by netpoll, and the pool worker the loop spawns runs on the
// same P as soon as the loop parks again — no thread wake, no
// cross-thread hand-off.
//
// Connection identity travels in epoll_data itself: each registration
// claims a slot in the poller's table and the slot index is what the
// kernel hands back, so dispatching an event is an atomic pointer load —
// no map, no lock. The table is published copy-on-grow through an atomic
// pointer; the event loop snapshots it once per batch. (A dense slice
// beats a hash table here: slot indices are small, reused via a free
// list, and the loop's read needs no hashing at all.) A slot freed while
// its last events are still in a returned batch reads as nil and is
// skipped; if the slot was already reused, the new conn absorbs at worst
// one spurious drain, serialized by its pending counter.
//
// Registration uses edge-triggered epoll. The classic missed-event race
// (an edge firing between "drain hit EAGAIN" and "drain task exits") is
// closed by the per-conn pending counter: the poller increments it per
// event and schedules a drain only on the 0→1 transition; the drain
// re-runs until it can CAS the counter back to zero.
type poller struct {
	epfd int
	pool *ipcs.Pool

	// file wraps epfd for the runtime netpoller and rc is its raw view,
	// inside which the loop runs. file must stay referenced: its
	// finalizer would close epfd.
	file *os.File
	rc   syscall.RawConn

	// events is the loop's epoll_wait buffer (loop goroutine only).
	events [eventBuf]syscall.EpollEvent

	// table is the published slot array read lock-free by the event loop.
	// mu guards only registration bookkeeping (slot allocation), never
	// the event path.
	table atomic.Pointer[[]*pollSlot]
	mu    sync.Mutex
	slots []*pollSlot
	free  []uint32
}

// pollSlot is one table entry; nil c marks a free (or just-freed) slot.
type pollSlot struct {
	c atomic.Pointer[conn]
}

// connOS is the linux slice of conn: the epoll registration state and the
// partial-frame carry between drains. poller is set exactly once when the
// conn registers and never cleared while the conn lives — an atomic load
// is the registration check. detached makes the epoll deregistration
// idempotent across Close and the terminal drain.
type connOS struct {
	rc       syscall.RawConn
	fd       int
	slot     uint32
	poller   atomic.Pointer[poller]
	detached atomic.Bool
	pending  atomic.Int32
	pend     []byte
}

// epollET is the edge-trigger flag; spelled as a uint32 because the
// syscall constant is a negative int on some arches.
const epollET = uint32(1) << 31

// eventBuf is how many readiness events one epoll_wait returns at most.
// A full batch is counted (ipcs.PollerFullBatches) and simply followed by
// another wait: poll drains the queue before it parks.
const eventBuf = 128

var (
	pollerOnce sync.Once
	gPoller    *poller // nil if epoll is unavailable: every conn falls back
)

// processPoller returns the process's poller, creating it on the first
// registration.
func processPoller() *poller {
	pollerOnce.Do(func() {
		p, err := newPoller()
		if err != nil {
			return
		}
		gPoller = p
		go p.loop()
	})
	return gPoller
}

// newPoller creates the epoll instance and hands it to the runtime
// netpoller. os.NewFile registers a non-blocking fd with the netpoller
// when it can; SetReadDeadline is the check that it did (it reports
// ErrNoDeadline for an fd the runtime cannot poll), and without it there
// is no poller and every conn uses the blocking reader.
func newPoller() (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	f := os.NewFile(uintptr(epfd), "tcpnet-epoll")
	rc, err := f.SyscallConn()
	if err == nil {
		err = f.SetReadDeadline(time.Time{})
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &poller{
		epfd: epfd,
		pool: ipcs.NewPool(0),
		file: f,
		rc:   rc,
	}, nil
}

// loop runs for the life of the process inside one read on the epoll
// fd's RawConn: each time poll reports the inner queue empty, the
// runtime parks the goroutine until epfd is readable and calls poll
// again. Read returns only if epfd fails, which never happens (it is
// never closed); then the loop stops, as the blocking form did on an
// epoll_wait error.
func (p *poller) loop() {
	_ = p.rc.Read(p.poll)
}

// poll drains the inner epoll queue without blocking, dispatching every
// ready conn. It reports false — park in the runtime netpoller — only
// when a wait returns no events. Draining first is what makes parking
// safe: the runtime's registration of epfd is edge-triggered, so events
// still queued when the loop parked would raise no new edge.
func (p *poller) poll(fd uintptr) bool {
	for {
		n, err := syscall.EpollWait(int(fd), p.events[:], 0)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return true
		}
		if n == 0 {
			return false
		}
		ipcs.CountPoll()
		var tbl []*pollSlot
		if t := p.table.Load(); t != nil {
			tbl = *t
		}
		for i := 0; i < n; i++ {
			idx := p.events[i].Fd
			if uint32(idx) >= uint32(len(tbl)) {
				continue
			}
			c := tbl[idx].c.Load()
			if c == nil {
				continue // freed while this batch was in flight
			}
			if c.pending.Add(1) == 1 {
				p.pool.Schedule(c)
			}
		}
		if n == len(p.events) {
			ipcs.CountFullBatch()
		}
	}
}

// add registers c with the poller: claim a slot, publish the conn
// pointer, then hand the slot index to the kernel. The atomic stores
// (slot's conn pointer, then c.poller) happen before EpollCtl, so by the
// time the loop can see an event for the slot, both are visible.
func (p *poller) add(c *conn) error {
	p.mu.Lock()
	var idx uint32
	if n := len(p.free); n > 0 {
		idx = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		idx = uint32(len(p.slots))
		p.slots = append(p.slots, &pollSlot{})
		tbl := make([]*pollSlot, len(p.slots))
		copy(tbl, p.slots)
		p.table.Store(&tbl)
	}
	slot := p.slots[idx]
	p.mu.Unlock()
	c.slot = idx
	slot.c.Store(c)
	c.poller.Store(p)
	ev := syscall.EpollEvent{
		Events: uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP) | epollET,
		Fd:     int32(idx),
	}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, c.fd, &ev); err != nil {
		c.poller.Store(nil)
		slot.c.Store(nil)
		p.mu.Lock()
		p.free = append(p.free, idx)
		p.mu.Unlock()
		return err
	}
	return nil
}

// remove deregisters c. The slot is freed after the kernel stops
// generating events for it; a stale event already in a returned batch
// sees nil (or the slot's next tenant, which absorbs one spurious no-op
// drain).
func (p *poller) remove(c *conn) {
	// DEL runs under the conn's own fd reference, so a Close racing a
	// terminal drain cannot close the fd — and let a new conn reuse its
	// number — in the middle of it; with the fd pinned and registered,
	// DEL cannot fail. If Close got there first, Control refuses and
	// there is nothing to delete: the registration goes with the fd's
	// last reference.
	_ = c.rc.Control(p.del)
	p.mu.Lock()
	if c.slot < uint32(len(p.slots)) && p.slots[c.slot].c.Load() == c {
		p.slots[c.slot].c.Store(nil)
		p.free = append(p.free, c.slot)
	}
	p.mu.Unlock()
}

// del is remove's RawConn callback; see there why its error is moot.
func (p *poller) del(fd uintptr) {
	_ = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil)
}

// startRecv registers the conn with the process poller, falling back to a
// blocking reader goroutine if epoll or the raw fd is unavailable.
// Setting NTCS_NO_EPOLL forces the fallback so the portable path can be
// exercised on Linux; the variable is read per Start (not cached) so
// tests can flip it with t.Setenv.
func (c *conn) startRecv() {
	if os.Getenv("NTCS_NO_EPOLL") != "" {
		c.startBlockingReader()
		return
	}
	if sc, ok := c.c.(syscall.Conn); ok {
		if rc, rerr := sc.SyscallConn(); rerr == nil {
			c.rc = rc
			var fd int
			if cerr := rc.Control(func(f uintptr) { fd = int(f) }); cerr == nil {
				c.fd = fd
				if p := processPoller(); p != nil && p.add(c) == nil {
					return
				}
			}
		}
	}
	c.startBlockingReader()
}

// detachRecv deregisters from the poller exactly once. c.poller stays
// set so a post-detach wakeRecv can still schedule the terminal drain on
// the poller's pool.
func (c *conn) detachRecv() {
	p := c.poller.Load()
	if p == nil {
		return
	}
	if !c.detached.CompareAndSwap(false, true) {
		return
	}
	p.remove(c)
}

// wakeRecv schedules a drain so the receive path notices the close and
// delivers its terminal error (the fallback reader wakes itself via the
// failing read).
func (c *conn) wakeRecv() {
	p := c.poller.Load()
	if p == nil {
		return
	}
	if c.pending.Add(1) == 1 {
		p.pool.Schedule(c)
	}
}

// errAgain marks a drained socket (EAGAIN).
var errAgain = errors.New("tcpnet: drained")

// drainScratch is what a drain borrows: the 64 KiB read buffer plus the
// RawConn read callback, bound to it once when the scratch is made. A
// closure built per read would escape (RawConn.Read takes it through an
// interface) and carry its results with it — several allocations per
// frame on a busy conn.
type drainScratch struct {
	buf  []byte
	n    int
	err  error
	read func(fd uintptr) bool
}

// scratchPool holds the drain scratches. They are borrowed per drain
// rather than retained per conn: only conns actively inside a drain hold
// one, so the cost scales with dispatch-pool width, not conn count.
var scratchPool = sync.Pool{
	New: func() any {
		s := &drainScratch{buf: make([]byte, 64<<10)}
		s.read = s.readFd
		return s
	},
}

// readFd is the RawConn callback: one non-blocking read, never parking in
// the runtime poller (the epoll loop, not the runtime, reports the conn
// readable).
func (s *drainScratch) readFd(fd uintptr) bool {
	s.n, s.err = syscall.Read(int(fd), s.buf)
	return true
}

// readOnce performs one non-blocking read on the raw fd into s.buf. The
// RawConn read keeps the fd pinned against a concurrent Close.
func (c *conn) readOnce(s *drainScratch) (int, error) {
	if cerr := c.rc.Read(s.read); cerr != nil {
		return 0, cerr
	}
	n, rerr := s.n, s.err
	s.err = nil
	if rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK {
		return 0, errAgain
	}
	if n < 0 {
		n = 0
	}
	return n, rerr
}

// Run is the conn's drain task: read to EAGAIN, parse frames, deliver.
// At most one Run is in flight per conn (pending counter), so callbacks
// stay serial and FIFO.
func (c *conn) Run() {
	for {
		n := c.pending.Load()
		if n == 0 {
			return
		}
		c.drain()
		if c.pending.CompareAndSwap(n, 0) {
			return
		}
	}
}

// drain reads until EAGAIN. A short read does not mean drained: a FIN
// queued behind the data raises no new edge, so only the read after it
// (EAGAIN, or zero bytes for the FIN) tells the two apart.
func (c *conn) drain() {
	if c.term {
		return
	}
	s := scratchPool.Get().(*drainScratch)
	a := arenaPool.Get().(*recvArena)
	defer func() {
		arenaPool.Put(a)
		scratchPool.Put(s)
	}()
	for {
		n, err := c.readOnce(s)
		if err == errAgain {
			return
		}
		if err != nil || n == 0 {
			c.detachRecv()
			if err == nil {
				err = errors.New("connection closed by peer")
			}
			c.deliverTerminal(fmt.Errorf("tcpnet: recv: %w (%v)", ipcs.ErrClosed, err))
			return
		}
		c.feed(s.buf[:n], a)
		if c.term {
			return
		}
	}
}

// pendShrinkCap bounds the partial-frame carry buffer a conn may retain
// between drains: one oversize frame (up to MaxMessage, 17 MiB) must not
// pin its capacity on the conn forever after the tail is consumed.
const pendShrinkCap = 64 << 10

// feed runs the incremental frame parser over one read's bytes,
// delivering every complete frame and carrying a partial tail to the
// next drain. a is the drain's borrowed arena.
func (c *conn) feed(data []byte, a *recvArena) {
	if len(c.pend) > 0 {
		c.pend = append(c.pend, data...)
		data = c.pend
	}
	for len(data) >= 4 {
		n := getLen(data)
		if n > MaxMessage {
			c.detachRecv()
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
		if c.term {
			return
		}
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
