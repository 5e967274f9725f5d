package mbx

import (
	"errors"
	"testing"
	"time"

	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/ipcstest"
)

func TestConformance(t *testing.T) {
	ipcstest.Run(t, func(t *testing.T) ipcs.Network {
		return New("mbx-test", Options{Capacity: 256})
	})
}

func TestPathnameAddressing(t *testing.T) {
	r := New("node7", Options{})
	l, err := r.Listen("/nodes/host7/ursa/ns")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() != "/nodes/host7/ursa/ns" {
		t.Errorf("Addr = %q", l.Addr())
	}
	if _, err := r.Listen("relative/path"); err == nil {
		t.Error("relative pathname should be rejected")
	}
	if _, err := r.Listen("/nodes/host7/ursa/ns"); err == nil {
		t.Error("duplicate mailbox pathname should be rejected")
	}
	// Auto-named mailboxes get an absolute path.
	auto, err := r.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if auto.Addr() == "" || auto.Addr()[0] != '/' {
		t.Errorf("auto mailbox Addr = %q", auto.Addr())
	}
}

func TestMailboxFullPushback(t *testing.T) {
	r := New("node7", Options{Capacity: 2})
	l, err := r.Listen("/svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := r.Dial("/svc")
	if err != nil {
		t.Fatal(err)
	}
	// Nobody accepts/reads: the mailbox fills at its capacity.
	var full error
	for i := 0; i < 5; i++ {
		if err := c.Send([]byte("x")); err != nil {
			full = err
			break
		}
	}
	if !errors.Is(full, ipcs.ErrMailboxFull) {
		t.Errorf("overflow error = %v, want ErrMailboxFull", full)
	}
}

func TestMailboxCapacityPerDirection(t *testing.T) {
	// Capacity bounds each direction of a channel on its own: filling the
	// client's outbound mailbox leaves the server's full allowance.
	r := New("node7", Options{Capacity: 2})
	l, err := r.Listen("/svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := r.Dial("/svc")
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// Neither side calls Start, so nothing is ever read.
	for i := 0; i < 2; i++ {
		if err := c.Send([]byte("c")); err != nil {
			t.Fatalf("client send %d: %v", i, err)
		}
	}
	if err := c.Send([]byte("c")); !errors.Is(err, ipcs.ErrMailboxFull) {
		t.Errorf("client send 2 = %v, want ErrMailboxFull", err)
	}
	for i := 0; i < 2; i++ {
		if err := server.Send([]byte("s")); err != nil {
			t.Errorf("server send %d with the client direction full: %v", i, err)
		}
	}
}

func TestRemoveSeversChannels(t *testing.T) {
	r := New("node7", Options{})
	l, err := r.Listen("/svc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Dial("/svc")
	if err != nil {
		t.Fatal(err)
	}
	acc := make(chan ipcs.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			acc <- nil
			return
		}
		acc <- conn
	}()
	server := <-acc
	if server == nil {
		t.Fatal("accept failed")
	}

	r.Remove("/svc")
	if _, err := r.Dial("/svc"); !errors.Is(err, ipcs.ErrNoSuchEndpoint) {
		t.Errorf("dial after Remove: %v", err)
	}
	if err := c.Send([]byte("x")); !errors.Is(err, ipcs.ErrClosed) {
		t.Errorf("send after Remove: %v", err)
	}
}

func TestDrainAfterClose(t *testing.T) {
	// Apollo mailboxes deliver queued messages even after the writer goes
	// away; only then does the reader see the close.
	r := New("node7", Options{})
	l, err := r.Listen("/svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := r.Dial("/svc")
	if err != nil {
		t.Fatal(err)
	}
	acc := make(chan ipcs.Conn, 1)
	go func() {
		conn, _ := l.Accept()
		acc <- conn
	}()
	server := <-acc

	for i := 0; i < 3; i++ {
		if err := c.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	// Start only after the writer is gone: queued messages must still be
	// delivered in order, then the terminal error. One ordered event
	// channel keeps the terminal behind the buffered messages.
	type event struct {
		msg []byte
		err error
	}
	events := make(chan event, 8)
	server.Start(func(m []byte, err error) { events <- event{msg: m, err: err} })
	for i := 0; i < 3; i++ {
		select {
		case ev := <-events:
			if ev.err != nil {
				t.Fatalf("message %d after close: %v", i, ev.err)
			}
			if ev.msg[0] != byte(i) {
				t.Fatalf("message %d = %d", i, ev.msg[0])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d not delivered within 5s", i)
		}
	}
	select {
	case ev := <-events:
		if !errors.Is(ev.err, ipcs.ErrClosed) {
			t.Errorf("after drain: %v, want ErrClosed", ev.err)
		}
	case <-time.After(5 * time.Second):
		t.Error("no terminal error after drain within 5s")
	}
}

func TestSetDown(t *testing.T) {
	r := New("node7", Options{})
	if _, err := r.Listen("/svc"); err != nil {
		t.Fatal(err)
	}
	r.SetDown(true)
	if _, err := r.Listen("/other"); !errors.Is(err, ipcs.ErrNetworkDown) {
		t.Errorf("Listen on down registry: %v", err)
	}
	if _, err := r.Dial("/svc"); err == nil {
		t.Error("Dial on down registry should fail")
	}
	r.SetDown(false)
	if _, err := r.Listen("/svc"); err != nil {
		t.Errorf("Listen after restore: %v", err)
	}
}
