//go:build linux

package tcpnet

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/ipcstest"
)

// TestPollerShardConformance runs the full ipcs contract suite (including
// the per-conn callback FIFO and serial-callback tests) as N concurrent
// copies, each on its own Net, for N = 1 and 2. Every copy's conns
// register with the one process-wide epoll loop and drain through its
// one pool, so the receive contract must not depend on how many
// independent transports share that loop. (The name dates from the
// sharded poller, when N was the number of epoll loops.)
func TestPollerShardConformance(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ipcstest.Run(t, func(t *testing.T) ipcs.Network {
						return New(fmt.Sprintf("tcp-shared-loop-%d", i))
					})
				}(i)
			}
			wg.Wait()
		})
	}
}

// TestPollerCountersAdvance drives traffic through the poller and
// asserts the process-wide ipcs.poller.* poll, dispatch and wakeup
// counters move — the observability every module's registry surfaces.
func TestPollerCountersAdvance(t *testing.T) {
	if os.Getenv("NTCS_NO_EPOLL") != "" {
		t.Skip("NTCS_NO_EPOLL: conns use the blocking reader, the poller sees no traffic")
	}
	polls, dispatches, wakeups := ipcs.PollerPolls(), ipcs.PollerDispatches(), ipcs.PollerWakeups()

	n := New("tcp-counters")
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var accepted []ipcs.Conn
	var amu sync.Mutex
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Start(func([]byte, error) {})
			amu.Lock()
			accepted = append(accepted, c)
			amu.Unlock()
		}
	}()

	var got atomic.Int64
	const conns, msgs = 8, 20
	var cs []ipcs.Conn
	for i := 0; i < conns; i++ {
		c, err := n.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		c.Start(func(msg []byte, err error) {
			if err == nil {
				got.Add(1)
			}
		})
	}
	defer func() {
		for _, c := range cs {
			c.Close()
		}
		amu.Lock()
		for _, c := range accepted {
			c.Close()
		}
		amu.Unlock()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for range [msgs]struct{}{} {
		amu.Lock()
		for _, c := range accepted {
			if err := c.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
		}
		amu.Unlock()
	}
	for got.Load() < int64(conns*msgs)/2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ipcs.PollerPolls() == polls {
		t.Error("poller polls did not advance")
	}
	if ipcs.PollerDispatches() == dispatches {
		t.Error("poller dispatches did not advance")
	}
	if ipcs.PollerWakeups() == wakeups {
		t.Error("poller wakeups did not advance")
	}
}

// loopbackPair joins two started conns over loopback and returns the
// dialed one, a; each frame the accepted side receives is signalled on
// got, so a caller with one frame in flight never blocks the drain.
func loopbackPair(t *testing.T) (a ipcs.Conn, got <-chan struct{}) {
	t.Helper()
	delivered := make(chan struct{}, 1)
	n := New("tcp-pair")
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan ipcs.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	a, err = n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		a.Close()
		t.FailNow()
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	a.Start(func([]byte, error) {})
	b.Start(func(msg []byte, err error) {
		if err == nil {
			delivered <- struct{}{}
		}
	})
	return a, delivered
}

// TestFrameRoundTripZeroAlloc is the frame path's allocation gate: a warm
// loopback Send, the poller wake-up, the pool's drain and the delivery
// allocate nothing per frame. Only arena refills remain — one 64 KiB
// arena per thousand 64-byte frames — so the budget is 0.05 per frame.
func TestFrameRoundTripZeroAlloc(t *testing.T) {
	if os.Getenv("NTCS_NO_EPOLL") != "" {
		t.Skip("NTCS_NO_EPOLL: the blocking reader is not the gated path")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so drains refill their scratch")
	}
	a, got := loopbackPair(t)
	msg := make([]byte, 64)
	roundTrip := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 1000; i++ {
		roundTrip()
	}
	const frames = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if perFrame := float64(after.Mallocs-before.Mallocs) / frames; perFrame >= 0.05 {
		t.Fatalf("Send + drain + delivery = %.3f allocs/frame, want < 0.05", perFrame)
	}
}

// TestPollerParksInRuntime pins where the event loop waits: once traffic
// stops, its goroutine is parked in the runtime netpoller ("IO wait"),
// and no goroutine holds an OS thread in syscall.EpollWait.
func TestPollerParksInRuntime(t *testing.T) {
	if os.Getenv("NTCS_NO_EPOLL") != "" {
		t.Skip("NTCS_NO_EPOLL: conns use the blocking reader, no poller runs")
	}
	a, got := loopbackPair(t)
	for i := 0; i < 100; i++ {
		if err := a.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	var dump string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		dump = goroutineDump()
		state, blocked := loopState(dump)
		if strings.HasPrefix(state, "IO wait") && !blocked {
			return
		}
	}
	state, blocked := loopState(dump)
	t.Fatalf("poller loop state %q, goroutine in syscall.EpollWait: %v\n%s", state, blocked, dump)
}

func goroutineDump() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// loopState finds the poller loop's goroutine in a dump and returns its
// wait state (the bracketed part of "goroutine N [state]:"), and whether
// any goroutine is inside syscall.EpollWait.
func loopState(dump string) (state string, inEpollWait bool) {
	for _, g := range strings.Split(dump, "\n\n") {
		if strings.Contains(g, "syscall.EpollWait(") {
			inEpollWait = true
		}
		if strings.Contains(g, "tcpnet.(*poller).loop(") {
			head, _, _ := strings.Cut(g, "\n")
			if i, j := strings.Index(head, "["), strings.Index(head, "]"); i >= 0 && j > i {
				state = head[i+1 : j]
			}
		}
	}
	return state, inEpollWait
}

// TestPendShrinkAfterLargeFrame is the satellite regression test for the
// carry-buffer pinning bug: one multi-megabyte frame fed in pieces grew
// conn.pend to frame size, and the old `pend = pend[:0]` kept that
// capacity on the conn forever. After the tail is consumed the capacity
// must be released.
func TestPendShrinkAfterLargeFrame(t *testing.T) {
	c := &conn{}
	var frames int
	c.cb = func(msg []byte, err error) {
		if err == nil {
			frames++
		}
	}
	big := int(1 << 20)
	buf := make([]byte, 4+big)
	putLen(buf, uint32(big))
	a := &recvArena{}
	// Feed all but the last byte: the parser must carry ~1 MiB of partial
	// frame in c.pend.
	c.feed(buf[:len(buf)-1], a)
	if frames != 0 {
		t.Fatalf("frame delivered early")
	}
	if cap(c.pend) < big/2 {
		t.Fatalf("carry buffer did not grow: cap=%d", cap(c.pend))
	}
	// Complete the frame, then push one small frame through.
	c.feed(buf[len(buf)-1:], a)
	if frames != 1 {
		t.Fatalf("frames = %d, want 1", frames)
	}
	if cap(c.pend) > pendShrinkCap {
		t.Fatalf("carry capacity pinned after large frame: cap=%d > %d", cap(c.pend), pendShrinkCap)
	}
	small := make([]byte, 4+8)
	putLen(small, 8)
	c.feed(small, a)
	if frames != 2 {
		t.Fatalf("frames = %d, want 2", frames)
	}
	if cap(c.pend) > pendShrinkCap {
		t.Fatalf("carry capacity regrew: cap=%d", cap(c.pend))
	}
}

// TestStartCloseChurnUnderTraffic churns connection Start/Close while
// peers are mid-send — the race-test companion to the atomic poller
// registration (an atomic pointer, not an unsynchronized bool). Run
// under -race this exercises add/detachRecv/wakeRecv interleavings; the
// assertion is simply that every callback terminates with the terminal
// error exactly once.
func TestStartCloseChurnUnderTraffic(t *testing.T) {
	n := New("tcp-churn")
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c ipcs.Conn) {
				c.Start(func([]byte, error) {})
				for i := 0; i < 50; i++ {
					if c.Send([]byte("traffic")) != nil {
						break
					}
				}
				c.Close()
			}(c)
		}
	}()

	const iters = 60
	var wg sync.WaitGroup
	var terminals atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c, err := n.Dial(l.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				done := make(chan struct{})
				var once sync.Once
				c.Start(func(msg []byte, err error) {
					if err != nil {
						terminals.Add(1)
						once.Do(func() { close(done) })
					}
				})
				// Close concurrently with the peer's sends: sometimes
				// instantly, sometimes after a few frames have flowed.
				if i%3 == 0 {
					c.Close()
				} else {
					time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
					c.Close()
				}
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Error("terminal error never delivered after Close")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := terminals.Load(); got != 4*iters {
		t.Fatalf("terminal deliveries = %d, want %d (exactly once per conn)", got, 4*iters)
	}
}
