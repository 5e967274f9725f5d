package tcpnet

import (
	"fmt"
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
// copies, each on its own Net, for N = 1 and 2. Every copy's readers
// park in the one runtime netpoller and share the one scratch pool, so
// the receive contract must not depend on how many independent
// transports run at once. (The name dates from the sharded epoll
// poller, when N was the number of epoll loops.)
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

// loopbackPair joins two started conns over loopback and returns the
// dialed one, a; each frame the accepted side receives is signalled on
// got, so a caller with one frame in flight never blocks the reader.
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
// loopback Send, the reader's wake-up in the netpoller, its read and the
// delivery allocate nothing per frame. Only arena refills remain — one
// 64 KiB arena per thousand 64-byte frames — so the budget is 0.05 per
// frame.
func TestFrameRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so reads refill their scratch")
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
		t.Fatalf("Send + read + delivery = %.3f allocs/frame, want < 0.05", perFrame)
	}
}

// TestReaderParksInRuntime pins where an idle conn waits: once traffic
// stops, each conn's reader goroutine is parked in the runtime netpoller
// ("IO wait"), and no goroutine holds an OS thread in a read syscall.
func TestReaderParksInRuntime(t *testing.T) {
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
		if states, inRead := readerStates(dump); len(states) == 2 && !inRead &&
			strings.HasPrefix(states[0], "IO wait") && strings.HasPrefix(states[1], "IO wait") {
			return
		}
	}
	states, inRead := readerStates(dump)
	t.Fatalf("reader states %q (want 2, both IO wait), goroutine in syscall.Read: %v\n%s", states, inRead, dump)
}

func goroutineDump() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// readerStates finds the conn readers' goroutines in a dump and returns
// their wait states (the bracketed part of "goroutine N [state]:"), and
// whether any goroutine is inside syscall.Read.
func readerStates(dump string) (states []string, inRead bool) {
	for _, g := range strings.Split(dump, "\n\n") {
		if strings.Contains(g, "syscall.Read(") {
			inRead = true
		}
		if strings.Contains(g, "tcpnet.(*conn).recv(") {
			head, _, _ := strings.Cut(g, "\n")
			if i, j := strings.Index(head, "["), strings.Index(head, "]"); i >= 0 && j > i {
				states = append(states, head[i+1:j])
			}
		}
	}
	return states, inRead
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
// peers are mid-send. Run under -race it exercises a Close landing
// before the reader's first read, while it is parked, and while it is
// delivering; the assertion is simply that every callback terminates
// with the terminal error exactly once.
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
