package lcm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/wire"
)

// serveMute drains deliveries without ever replying.
func serveMute(m *module) {
	go func() {
		for {
			if _, err := m.nuc.LCM.Recv(30 * time.Second); err != nil {
				return
			}
		}
	}()
}

func TestCallContextCanceledBeforeSend(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := a.nuc.LCM.CallContext(ctx, 2001, wire.ModePacked, 0, []byte("ping"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CallContext on canceled ctx = %v, want context.Canceled", err)
	}
	if err := a.nuc.LCM.SendContext(ctx, 2001, wire.ModePacked, 0, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("SendContext on canceled ctx = %v, want context.Canceled", err)
	}
	// Nothing should have reached the peer.
	if d, err := b.nuc.LCM.Recv(100 * time.Millisecond); err == nil {
		t.Fatalf("peer received %q despite canceled context", d.Payload)
	}
}

func TestCallContextCanceledDuringReplyWait(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{callTimeout: 10 * time.Second})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	serveMute(b)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := a.nuc.LCM.CallContext(ctx, 2001, wire.ModePacked, 0, []byte("ping"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CallContext = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v: call waited for the full timeout", elapsed)
	}
}

func TestCallContextDeadline(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{callTimeout: 10 * time.Second})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	serveMute(b)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := a.nuc.LCM.CallContext(ctx, 2001, wire.ModePacked, 0, []byte("ping"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CallContext past deadline = %v, want context.DeadlineExceeded", err)
	}
}

// TestCallTimeoutMatchesDeadlineExceeded pins the error contract: the
// LCM's own call timeout is inspectable both as lcm.ErrCallTimeout and
// as context.DeadlineExceeded, so context-aware callers need only one
// errors.Is check.
func TestCallTimeoutMatchesDeadlineExceeded(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{callTimeout: 100 * time.Millisecond})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	serveMute(b)

	_, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("ping"))
	if !errors.Is(err, lcm.ErrCallTimeout) {
		t.Fatalf("Call = %v, want ErrCallTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("ErrCallTimeout does not match context.DeadlineExceeded: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("ErrCallTimeout unexpectedly matches context.Canceled")
	}
}

func TestRemoteErrorStructured(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	go func() {
		for {
			d, err := b.nuc.LCM.Recv(30 * time.Second)
			if err != nil {
				return
			}
			if d.IsCall() {
				_ = b.nuc.LCM.ReplyError(&d, "no such operation")
			}
		}
	}()

	_, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("ping"))
	if !errors.Is(err, lcm.ErrRemote) {
		t.Fatalf("Call = %v, want ErrRemote", err)
	}
	var re *lcm.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RemoteError", err)
	}
	if re.Src != 2001 {
		t.Errorf("RemoteError.Src = %v, want 2001", re.Src)
	}
	if re.Msg != "no such operation" {
		t.Errorf("RemoteError.Msg = %q", re.Msg)
	}
}
