// Package ipcstest provides a conformance suite run against every IPCS
// implementation. The ND-Layer's portability (paper §2.2) rests on all
// substrates honoring the same contract; this suite is that contract,
// executable.
//
// Since the event-driven rework, the receive half of the contract is a
// registered callback (ipcs.Receiver): the suite drives both halves —
// Sender ordering/batching semantics and Receiver delivery semantics
// (buffer-before-Start, serial FIFO callbacks, exactly-once terminal
// error, queued-messages-before-terminal).
package ipcstest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntcs/internal/ipcs"
)

// Factory creates a fresh network for one subtest.
type Factory func(t *testing.T) ipcs.Network

// Run executes the conformance suite against the factory's networks.
func Run(t *testing.T, newNet Factory) {
	t.Run("ListenDialExchange", func(t *testing.T) { testExchange(t, newNet(t)) })
	t.Run("MessageBoundaries", func(t *testing.T) { testBoundaries(t, newNet(t)) })
	t.Run("Ordering", func(t *testing.T) { testOrdering(t, newNet(t)) })
	t.Run("DialUnknownEndpoint", func(t *testing.T) { testDialUnknown(t, newNet(t)) })
	t.Run("CloseUnblocksPeer", func(t *testing.T) { testCloseUnblocks(t, newNet(t)) })
	t.Run("ListenerCloseUnblocksAccept", func(t *testing.T) { testListenerClose(t, newNet(t)) })
	t.Run("ManyClients", func(t *testing.T) { testManyClients(t, newNet(t)) })
	t.Run("LargeMessage", func(t *testing.T) { testLargeMessage(t, newNet(t)) })
	t.Run("SenderBufferReuse", func(t *testing.T) { testBufferReuse(t, newNet(t)) })
	t.Run("SendBatchOrdering", func(t *testing.T) { testSendBatchOrdering(t, newNet(t)) })
	t.Run("SendBatchOversize", func(t *testing.T) { testSendBatchOversize(t, newNet(t)) })
	t.Run("SendBatchPrefixOnError", func(t *testing.T) { testSendBatchPrefix(t, newNet(t)) })
	t.Run("BufferBeforeStart", func(t *testing.T) { testBufferBeforeStart(t, newNet(t)) })
	t.Run("DrainBeforeTerminal", func(t *testing.T) { testDrainBeforeTerminal(t, newNet(t)) })
	t.Run("TerminalExactlyOnce", func(t *testing.T) { testTerminalOnce(t, newNet(t)) })
	t.Run("SerialCallbacks", func(t *testing.T) { testSerialCallbacks(t, newNet(t)) })
}

// accept1 runs Accept in a goroutine and returns the connection.
func accept1(t *testing.T, l ipcs.Listener) ipcs.Conn {
	t.Helper()
	type res struct {
		c   ipcs.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("accept: %v", r.err)
		}
		return r.c
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
		return nil
	}
}

// rx adapts the callback contract back to a channel the tests can block
// on. A single event channel preserves the callback's delivery order — a
// pair of message/error channels would let select pick a buffered
// terminal error ahead of buffered messages.
type rxEvent struct {
	msg []byte
	err error
}

type rx struct {
	events chan rxEvent
}

// startRecv registers a channel-feeding callback on c.
func startRecv(c ipcs.Conn) *rx {
	r := newRx()
	c.Start(r.cb)
	return r
}

func newRx() *rx {
	// Buffered deep enough that the substrate's delivery goroutines never
	// stall on the test.
	return &rx{events: make(chan rxEvent, 4096)}
}

func (r *rx) cb(msg []byte, err error) {
	r.events <- rxEvent{msg: msg, err: err}
}

// recv waits for the next delivered message; a terminal error or a 5s
// stall fails the test.
func (r *rx) recv(t *testing.T) []byte {
	t.Helper()
	select {
	case ev := <-r.events:
		if ev.err != nil {
			t.Fatalf("terminal error while awaiting message: %v", ev.err)
		}
		return ev.msg
	case <-time.After(5 * time.Second):
		t.Fatal("no message delivered within 5s")
	}
	return nil
}

// recvErr waits for the terminal error; a message or a 5s stall fails
// the test.
func (r *rx) recvErr(t *testing.T) error {
	t.Helper()
	select {
	case ev := <-r.events:
		if ev.err == nil {
			t.Fatalf("message %q delivered while awaiting terminal error", ev.msg)
		}
		return ev.err
	case <-time.After(5 * time.Second):
		t.Fatal("no terminal error delivered within 5s")
	}
	return nil
}

func testExchange(t *testing.T, n ipcs.Network) {
	if n.ID() == "" {
		t.Error("network must have a logical identifier")
	}
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() == "" {
		t.Fatal("listener must have a physical address")
	}

	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()
	crx := startRecv(client)
	srx := startRecv(server)

	if err := client.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got := srx.recv(t); string(got) != "ping" {
		t.Fatalf("server got %q", got)
	}
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got := crx.recv(t); string(got) != "pong" {
		t.Fatalf("client got %q", got)
	}
}

func testBoundaries(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()
	srx := startRecv(server)

	// Three sends must arrive as three messages, including an empty one.
	for _, m := range [][]byte{[]byte("a"), {}, []byte("ccc")} {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"a", "", "ccc"} {
		if got := srx.recv(t); string(got) != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

func testOrdering(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()
	srx := startRecv(server)

	const count = 50
	go func() {
		for i := 0; i < count; i++ {
			if err := client.Send([]byte(fmt.Sprintf("m%03d", i))); err != nil {
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		got := srx.recv(t)
		if want := fmt.Sprintf("m%03d", i); string(got) != want {
			t.Fatalf("message %d: got %q, want %q (reordered)", i, got, want)
		}
	}
}

func testDialUnknown(t *testing.T, n ipcs.Network) {
	_, err := n.Dial("no-such-endpoint-anywhere")
	if err == nil {
		t.Fatal("dialing an unknown endpoint must fail")
	}
	if !errors.Is(err, ipcs.ErrNoSuchEndpoint) && !errors.Is(err, ipcs.ErrUnreachable) {
		t.Errorf("error should wrap ErrNoSuchEndpoint or ErrUnreachable: %v", err)
	}
}

func testCloseUnblocks(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := accept1(t, l)
	srx := startRecv(server)

	time.Sleep(10 * time.Millisecond)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srx.recvErr(t); !errors.Is(err, ipcs.ErrClosed) {
		t.Errorf("terminal error should wrap ErrClosed: %v", err)
	}
	// Sending on a closed connection fails, immediately or after the
	// substrate notices (TCP may buffer one send).
	var sendErr error
	for i := 0; i < 20 && sendErr == nil; i++ {
		sendErr = client.Send([]byte("x"))
		time.Sleep(2 * time.Millisecond)
	}
	if sendErr == nil {
		t.Error("Send on closed connection should eventually fail")
	}
}

func testListenerClose(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ipcs.ErrClosed) {
			t.Errorf("Accept after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept not unblocked by listener Close")
	}
	// The address is gone: dialing it must fail (possibly after a
	// connection-refused round trip on TCP).
	if _, err := n.Dial(l.Addr()); err == nil {
		t.Error("dialing a closed endpoint should fail")
	}
	// Closing twice is safe.
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func testManyClients(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const clients = 8
	// Echo server: entirely callback-driven — the echo happens inside the
	// receive callback, exercising Send-from-callback on every substrate.
	var serverWG sync.WaitGroup
	serverWG.Add(1)
	go func() {
		defer serverWG.Done()
		for i := 0; i < clients; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Start(func(m []byte, err error) {
				if err != nil {
					return
				}
				_ = c.Send(m)
			})
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial(l.Addr())
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			defer c.Close()
			crx := startRecv(c)
			for j := 0; j < 20; j++ {
				msg := []byte(fmt.Sprintf("c%d-%d", i, j))
				if err := c.Send(msg); err != nil {
					t.Errorf("client %d send: %v", i, err)
					return
				}
				select {
				case ev := <-crx.events:
					if ev.err != nil {
						t.Errorf("client %d: terminal error: %v", i, ev.err)
						return
					}
					if !bytes.Equal(ev.msg, msg) {
						t.Errorf("client %d: got %q, want %q", i, ev.msg, msg)
						return
					}
				case <-time.After(5 * time.Second):
					t.Errorf("client %d: echo timed out", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	serverWG.Wait()
}

func testLargeMessage(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()
	srx := startRecv(server)

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- client.Send(big) }()
	got := srx.recv(t)
	if sendErr := <-errCh; sendErr != nil {
		t.Fatal(sendErr)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("1MB message corrupted in transit")
	}
}

// testSendBatchOrdering interleaves Send, multi-element SendBatch, and
// empty SendBatch calls; the receiver must observe exactly the order
// consecutive Sends would have produced.
func testSendBatchOrdering(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()
	srx := startRecv(server)

	const rounds = 10
	var want []string
	go func() {
		seq := 0
		next := func() []byte {
			m := []byte(fmt.Sprintf("b%04d", seq))
			seq++
			return m
		}
		for r := 0; r < rounds; r++ {
			if err := client.Send(next()); err != nil {
				return
			}
			if err := client.SendBatch([][]byte{next(), next(), next()}); err != nil {
				return
			}
			if err := client.SendBatch(nil); err != nil {
				return
			}
			if err := client.SendBatch([][]byte{next()}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < rounds*5; i++ {
		want = append(want, fmt.Sprintf("b%04d", i))
	}
	for i, w := range want {
		got := srx.recv(t)
		if string(got) != w {
			t.Fatalf("message %d: got %q, want %q (batch broke ordering)", i, got, w)
		}
	}
}

// testSendBatchOversize: on substrates with a message size limit, a batch
// containing one oversized element must fail whole — nothing from the
// batch, not even the valid elements before the bad one, may be delivered.
func testSendBatchOversize(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()
	srx := startRecv(server)

	huge := make([]byte, 18<<20)
	if err := client.Send(huge); err == nil {
		// Drain the probe so it cannot shadow later assertions.
		srx.recv(t)
		t.Skip("substrate imposes no message size limit")
	}
	if err := client.SendBatch([][]byte{[]byte("ok"), huge}); err == nil {
		t.Fatal("batch with oversized element must fail")
	}
	// Nothing from the failed batch was transmitted: the next message the
	// receiver sees is the marker, not the "ok" prefix.
	if err := client.Send([]byte("marker")); err != nil {
		t.Fatal(err)
	}
	if got := srx.recv(t); string(got) != "marker" {
		t.Fatalf("got %q; a failed batch must transmit nothing", got)
	}
}

// testSendBatchPrefix: when the connection dies mid-stream, whatever the
// receiver saw must be a gap-free, in-order prefix of the sent sequence,
// and the sender must eventually observe the failure.
func testSendBatchPrefix(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	srx := startRecv(server)

	// Phase 1: twenty 2-element batches, all of which must arrive intact.
	// 40 messages stays under every substrate's queue bound, so no
	// transient overflow can muddy the prefix check.
	seq := 0
	for i := 0; i < 20; i++ {
		batch := [][]byte{
			[]byte(fmt.Sprintf("p%04d", seq)),
			[]byte(fmt.Sprintf("p%04d", seq+1)),
		}
		seq += 2
		if err := client.SendBatch(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		got := srx.recv(t)
		if want := fmt.Sprintf("p%04d", i); string(got) != want {
			t.Fatalf("message %d: got %q, want %q (gap or reorder)", i, got, want)
		}
	}

	// Phase 2: the receiver dies; the sender's batches must start failing
	// within a bounded number of attempts (TCP may absorb a few into
	// socket buffers first).
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	var sendErr error
	for i := 0; i < 5000 && sendErr == nil; i++ {
		sendErr = client.SendBatch([][]byte{
			[]byte(fmt.Sprintf("p%04d", seq)),
			[]byte(fmt.Sprintf("p%04d", seq+1)),
		})
		seq += 2
		if sendErr == nil && i%50 == 49 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if sendErr == nil {
		t.Fatal("SendBatch to a dead peer never failed")
	}
}

func testBufferReuse(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()
	srx := startRecv(server)

	// The sender mutating its buffer after Send must not corrupt the
	// delivered message.
	buf := []byte("first")
	if err := client.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX")
	if got := srx.recv(t); string(got) != "first" {
		t.Fatalf("buffer aliasing: got %q", got)
	}
}

// testBufferBeforeStart: messages that arrive before the receiver
// registers its callback are buffered and delivered in order at Start.
func testBufferBeforeStart(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()

	for i := 0; i < 5; i++ {
		if err := client.Send([]byte(fmt.Sprintf("early%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Give the substrate time to move the messages; none may be dropped
	// for lack of a callback.
	time.Sleep(20 * time.Millisecond)
	srx := startRecv(server)
	for i := 0; i < 5; i++ {
		if got, want := string(srx.recv(t)), fmt.Sprintf("early%d", i); got != want {
			t.Fatalf("buffered message %d: got %q, want %q", i, got, want)
		}
	}
}

// testDrainBeforeTerminal: messages queued ahead of a peer close are all
// delivered before the terminal error.
func testDrainBeforeTerminal(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := accept1(t, l)
	defer server.Close()

	if err := client.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	srx := startRecv(server)
	for _, want := range []string{"one", "two"} {
		if got := string(srx.recv(t)); got != want {
			t.Fatalf("got %q, want %q (queued messages must precede the terminal error)", got, want)
		}
	}
	if err := srx.recvErr(t); !errors.Is(err, ipcs.ErrClosed) {
		t.Errorf("terminal error should wrap ErrClosed: %v", err)
	}
}

// testTerminalOnce: the terminal error is delivered exactly once, and no
// deliveries follow it.
func testTerminalOnce(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := accept1(t, l)
	srx := startRecv(server)

	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srx.recvErr(t); !errors.Is(err, ipcs.ErrClosed) {
		t.Errorf("terminal error should wrap ErrClosed: %v", err)
	}
	// Closing our own side too must not produce a second terminal.
	_ = server.Close()
	select {
	case ev := <-srx.events:
		if ev.err != nil {
			t.Fatalf("terminal error delivered twice: %v", ev.err)
		}
		t.Fatalf("message %q delivered after terminal error", ev.msg)
	case <-time.After(100 * time.Millisecond):
	}
}

// testSerialCallbacks: the callback is never invoked concurrently for one
// connection, even under heavy inbound traffic.
func testSerialCallbacks(t *testing.T, n ipcs.Network) {
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := accept1(t, l)
	defer server.Close()

	const total = 200
	var (
		inFlight   atomic.Int32
		violations atomic.Int32
		seen       atomic.Int32
	)
	done := make(chan struct{})
	server.Start(func(m []byte, err error) {
		if err != nil {
			return
		}
		if inFlight.Add(1) != 1 {
			violations.Add(1)
		}
		time.Sleep(100 * time.Microsecond) // widen any overlap window
		inFlight.Add(-1)
		if seen.Add(1) == total {
			close(done)
		}
	})
	go func() {
		for i := 0; i < total; i++ {
			// Retry on transient overflow: bounded substrates (mbx) push
			// back when the receiver is slower than the sender.
			for try := 0; client.Send([]byte("m")) != nil; try++ {
				if try > 5000 {
					return
				}
				time.Sleep(time.Millisecond)
			}
			if i%32 == 31 {
				time.Sleep(time.Millisecond) // let bounded substrates drain
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d messages delivered", seen.Load(), total)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("callback invoked concurrently %d times", v)
	}
}
