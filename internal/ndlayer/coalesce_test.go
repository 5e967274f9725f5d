package ndlayer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/wire"
)

// recordingConn captures every frame in wire order and counts batch
// writes. An optional delay per write call lets a queue build behind the
// flusher; failAfter > 0 makes the write path start erroring after that
// many calls. overlaps counts write calls that began while another was
// still in progress.
type recordingConn struct {
	writing  atomic.Int32
	overlaps atomic.Int32

	mu        sync.Mutex
	frames    [][]byte // wire order, deep-copied
	batchLens []int    // len of every SendBatch call
	singles   int      // Send calls
	calls     int
	failAfter int // 0 = never fail
	delay     time.Duration
}

func (c *recordingConn) write(msgs [][]byte) error {
	if c.writing.Add(1) != 1 {
		c.overlaps.Add(1)
	}
	defer c.writing.Add(-1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.failAfter > 0 && c.calls > c.failAfter {
		return errors.New("recordingConn: induced failure")
	}
	for _, m := range msgs {
		cp := make([]byte, len(m))
		copy(cp, m)
		c.frames = append(c.frames, cp)
	}
	return nil
}

func (c *recordingConn) Send(msg []byte) error {
	err := c.write([][]byte{msg})
	if err == nil {
		c.mu.Lock()
		c.singles++
		c.mu.Unlock()
	}
	return err
}

func (c *recordingConn) SendBatch(msgs [][]byte) error {
	err := c.write(msgs)
	if err == nil {
		c.mu.Lock()
		c.batchLens = append(c.batchLens, len(msgs))
		c.mu.Unlock()
	}
	return err
}

func (c *recordingConn) Start(cb ipcs.RecvFunc) {}
func (c *recordingConn) Close() error           { return nil }

func (c *recordingConn) snapshot() (frames [][]byte, batchLens []int, singles int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.frames...), append([]int(nil), c.batchLens...), c.singles
}

// coalescingLVC builds an LVC wired to conn, backed by a real (idle)
// binding for its instruments.
func coalescingLVC(t *testing.T, conn *recordingConn) *LVC {
	t.Helper()
	net := memnet.New("coalesce-net", memnet.Options{})
	f := newFixture(t, net, "coalesce-mod", 2000, machine.VAX)
	v := newLVC(f.binding, conn, 9999, machine.VAX, "peer", addr.Nil, 0)
	return v
}

// TestGroupCommitBatches drives many concurrent senders through one
// coalescing LVC and asserts (a) nothing is lost, (b) each sender's
// frames appear on the wire in its send order, and (c) the writer
// actually coalesced — at least one vectored batch went out.
func TestGroupCommitBatches(t *testing.T) {
	conn := &recordingConn{delay: 200 * time.Microsecond}
	v := coalescingLVC(t, conn)

	const senders, perSender = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				h := dataHeader(2000, 9999, machine.VAX)
				payload := []byte(fmt.Sprintf("g%02d-%03d", g, i))
				if err := v.Send(h, payload); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	batchLens, singles := awaitWire(t, conn, senders, perSender)
	batched := 0
	for _, n := range batchLens {
		batched += n
	}
	if batched == 0 {
		t.Fatalf("no vectored batches went out (singles=%d)", singles)
	}
	t.Logf("batches=%d batched-frames=%d singles=%d", len(batchLens), batched, singles)
}

// awaitWire waits for the flusher to put senders*perSender frames on the
// wire (sends are pipelined) and checks them: nothing lost or duplicated,
// and each sender's "g%02d-%03d" payloads in its send order.
func awaitWire(t *testing.T, conn *recordingConn, senders, perSender int) (batchLens []int, singles int) {
	t.Helper()
	var frames [][]byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		frames, batchLens, singles = conn.snapshot()
		if len(frames) >= senders*perSender {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames flushed", len(frames), senders*perSender)
		}
		time.Sleep(time.Millisecond)
	}
	if len(frames) != senders*perSender {
		t.Fatalf("wire carries %d frames, want %d", len(frames), senders*perSender)
	}
	next := make([]int, senders)
	for _, frame := range frames {
		_, payload, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		var g, i int
		if _, err := fmt.Sscanf(string(payload), "g%02d-%03d", &g, &i); err != nil {
			t.Fatalf("unexpected payload %q", payload)
		}
		if i != next[g] {
			t.Fatalf("sender %d: frame %d arrived, want %d (reordered)", g, i, next[g])
		}
		next[g]++
	}
	return batchLens, singles
}

// TestInlineWriteKeepsFIFOWithQueuedFrames mixes the two ways a frame
// reaches the conn on one LVC: call and reply frames are written on the
// sender's goroutine when the queue is idle, plain data frames always
// queue for the flusher. The queue's scheduled flag is the only thing
// keeping the two apart, so writes must never overlap and every sender's
// frames must reach the wire in issue order.
func TestInlineWriteKeepsFIFOWithQueuedFrames(t *testing.T) {
	conn := &recordingConn{delay: 20 * time.Microsecond}
	v := coalescingLVC(t, conn)

	// An idle queue writes a call frame before Send returns.
	h := dataHeader(2000, 9999, machine.VAX)
	h.Flags |= wire.FlagCall
	if err := v.Send(h, []byte("g00-000")); err != nil {
		t.Fatal(err)
	}
	if frames, _, _ := conn.snapshot(); len(frames) != 1 {
		t.Fatalf("call frame on an idle circuit was not written inline: %d frames on the wire", len(frames))
	}

	const senders, perSender = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			first := 0
			if g == 0 {
				first = 1 // g00-000 went out above
			}
			for i := first; i < perSender; i++ {
				h := dataHeader(2000, 9999, machine.VAX)
				switch (g + i) % 3 {
				case 0:
					h.Flags |= wire.FlagCall
				case 1:
					h.Flags |= wire.FlagReply
				}
				if err := v.Send(h, []byte(fmt.Sprintf("g%02d-%03d", g, i))); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	awaitWire(t, conn, senders, perSender)
	if n := conn.overlaps.Load(); n != 0 {
		t.Fatalf("%d writes overlapped another: the inline write and the flusher ran together", n)
	}
}

// TestCoalescedSendFaultClosesCircuit makes the substrate fail mid-run:
// the flusher must close the circuit, every in-flight sender must return
// (no hangs), and subsequent sends must fail fast with a FaultError.
func TestCoalescedSendFaultClosesCircuit(t *testing.T) {
	// Batches can carry up to sendQueueCap frames, so two successful
	// writes absorb at most 2*sendQueueCap of them; sending more than
	// that guarantees a third write — the one that fails.
	conn := &recordingConn{failAfter: 2, delay: 100 * time.Microsecond}
	v := coalescingLVC(t, conn)

	const senders, perSender = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				h := dataHeader(2000, 9999, machine.VAX)
				if err := v.Send(h, []byte("x")); err != nil {
					var fe *FaultError
					if !errors.As(err, &fe) {
						t.Errorf("want FaultError, got %v", err)
					}
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("senders hung after transmission failure")
	}

	// Enqueue-time success is pipelined, so the senders may all return
	// before the flusher reaches the failing write. Wait for the fault to
	// actually land before asserting fail-fast behaviour.
	deadline := time.Now().Add(5 * time.Second)
	for !v.closed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("flusher never closed the circuit after the induced failure")
		}
		time.Sleep(time.Millisecond)
	}

	// The circuit is now closed; a fresh send fails immediately.
	h := dataHeader(2000, 9999, machine.VAX)
	err := v.Send(h, []byte("after"))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("send on failed circuit: want FaultError, got %v", err)
	}
}

// TestCoalescedCloseReleasesWaiters parks senders on a full queue behind
// a stalled substrate, closes the circuit, and asserts every waiter is
// released with a FaultError.
func TestCoalescedCloseReleasesWaiters(t *testing.T) {
	release := make(chan struct{})
	conn := &stallConn{release: release}
	net := memnet.New("stall-net", memnet.Options{})
	f := newFixture(t, net, "stall-mod", 2000, machine.VAX)
	v := newLVC(f.binding, conn, 9999, machine.VAX, "peer", addr.Nil, 0)

	var wg sync.WaitGroup
	errs := make(chan error, sendQueueCap*2)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sendQueueCap; i++ {
				h := dataHeader(2000, 9999, machine.VAX)
				if err := v.Send(h, []byte("q")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Let the queue fill and at least one sender park on space.
	time.Sleep(50 * time.Millisecond)
	_ = v.Close()
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("senders parked on a full queue were not released by Close")
	}
	close(errs)
	for err := range errs {
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("released waiter: want FaultError, got %v", err)
		}
	}
}

// stallConn blocks every write until released, then reports closure.
type stallConn struct{ release chan struct{} }

func (c *stallConn) Send(msg []byte) error { <-c.release; return errors.New("stalled conn closed") }
func (c *stallConn) SendBatch(m [][]byte) error {
	<-c.release
	return errors.New("stalled conn closed")
}
func (c *stallConn) Start(cb ipcs.RecvFunc) {}
func (c *stallConn) Close() error           { return nil }
