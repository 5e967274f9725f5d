package lcm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/proctest"
	"ntcs/internal/wire"
)

// pair is a caller a and a callee b on one memnet network.
func pair(t *testing.T, callTimeout time.Duration) (a, b *module) {
	t.Helper()
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a = newModule(t, net, "a", 2000, naming, modOpts{callTimeout: callTimeout})
	b = newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	return a, b
}

// holdCalls hands every call b receives to the returned channel, unanswered.
func holdCalls(b *module) <-chan lcm.Delivery {
	held := make(chan lcm.Delivery, 16)
	go func() {
		for {
			d, err := b.nuc.LCM.Recv(30 * time.Second)
			if err != nil {
				return
			}
			held <- d
		}
	}()
	return held
}

// echo answers d with its own payload.
func echo(t *testing.T, b *module, d lcm.Delivery) {
	t.Helper()
	if err := b.nuc.LCM.Reply(&d, wire.ModePacked, 0, d.Payload); err != nil {
		t.Errorf("reply to %q: %v", d.Payload, err)
	}
}

func noWaiters(t *testing.T, a *module, after string) {
	t.Helper()
	if n := a.nuc.LCM.Waiters(); n != 0 {
		t.Errorf("%d reply waiters left after %s", n, after)
	}
}

func TestStartedCallCancelledLeavesNoWaiter(t *testing.T) {
	a, b := pair(t, 10*time.Second)
	held := holdCalls(b)

	set := lcm.NewCallSet[int](a.nuc.LCM, 4)
	for i := 0; i < 3; i++ {
		if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), 2001, wire.ModePacked, 0, []byte{byte(i)}, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		<-held
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if _, _, err := set.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancellation took %v", took)
	}
	if set.Len() != 0 {
		t.Errorf("%d calls left in the set", set.Len())
	}
	noWaiters(t, a, "a cancelled set")

	// The synchronous call is the same pair on a pooled waiter.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.nuc.LCM.CallContext(ctx, 2001, wire.ModePacked, 0, []byte("late")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CallContext past its deadline = %v", err)
	}
	noWaiters(t, a, "a call past its deadline")
}

func TestCallSetTimeoutGivesUpTheOldestCall(t *testing.T) {
	a, b := pair(t, 100*time.Millisecond)
	held := holdCalls(b)

	set := lcm.NewCallSet[string](a.nuc.LCM, 2)
	if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), 2001, wire.ModePacked, 0, []byte("old"), "old"); err != nil {
		t.Fatal(err)
	}
	<-held
	time.Sleep(50 * time.Millisecond)
	if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), 2001, wire.ModePacked, 0, []byte("new"), "new"); err != nil {
		t.Fatal(err)
	}
	d := <-held
	tag, _, err := set.Next(context.Background())
	if tag != "old" || !errors.Is(err, lcm.ErrCallTimeout) {
		t.Fatalf("Next = %q, %v; want the older call timed out", tag, err)
	}
	echo(t, b, d)
	tag, reply, err := set.Next(context.Background())
	if tag != "new" || err != nil || string(reply.Payload) != "new" {
		t.Fatalf("Next = %q, %q, %v; want the newer call answered", tag, reply.Payload, err)
	}
	noWaiters(t, a, "a set whose calls timed out or were answered")
}

func TestLateReplyNeverReachesALaterCall(t *testing.T) {
	a, b := pair(t, 10*time.Second)
	held := holdCalls(b)

	// Synchronous calls: each first call is given up and answered after,
	// the second must get its own reply, whichever waiter it borrowed.
	for i := 0; i < 20; i++ {
		first, second := fmt.Sprintf("first-%d", i), fmt.Sprintf("second-%d", i)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := a.nuc.LCM.CallContext(ctx, 2001, wire.ModePacked, 0, []byte(first))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("given-up call: %v", err)
		}
		echo(t, b, <-held)
		go func() { echo(t, b, <-held) }()
		d, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte(second))
		if err != nil || string(d.Payload) != second {
			t.Fatalf("call %q got %q, %v", second, d.Payload, err)
		}
	}

	// A set given up after its replies landed: they are owed, and none of
	// them may come out of the set for its next call.
	set := lcm.NewCallSet[int](a.nuc.LCM, 2)
	for i := 0; i < 2; i++ {
		if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), 2001, wire.ModePacked, 0, []byte{byte(i)}, i); err != nil {
			t.Fatal(err)
		}
		echo(t, b, <-held)
	}
	if !proctest.PollUntil(5*time.Second, func() bool { return a.nuc.LCM.Waiters() == 0 }) {
		t.Fatal("the replies never reached the caller")
	}
	set.Abandon()
	if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), 2001, wire.ModePacked, 0, []byte("next"), 7); err != nil {
		t.Fatal(err)
	}
	echo(t, b, <-held)
	tag, d, err := set.Next(context.Background())
	if tag != 7 || err != nil || string(d.Payload) != "next" {
		t.Fatalf("next call after abandonment: tag %d, %q, %v", tag, d.Payload, err)
	}
}

func TestFailedSendRegistersNoWaiter(t *testing.T) {
	a, _ := pair(t, time.Second)
	const nowhere = 2999 // no endpoint anywhere

	set := lcm.NewCallSet[int](a.nuc.LCM, 2)
	if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), nowhere, wire.ModePacked, 0, []byte("x"), 1); err == nil {
		t.Fatal("Start to an unknown destination succeeded")
	}
	if set.Len() != 0 {
		t.Errorf("a failed start left %d calls in the set", set.Len())
	}
	noWaiters(t, a, "a failed start")
	if _, err := a.nuc.LCM.CallContext(context.Background(), nowhere, wire.ModePacked, 0, []byte("x")); err == nil {
		t.Fatal("call to an unknown destination succeeded")
	}
	noWaiters(t, a, "a failed call")
	if _, _, err := set.Next(context.Background()); !errors.Is(err, lcm.ErrNoCalls) {
		t.Errorf("Next on an empty set = %v, want ErrNoCalls", err)
	}
}

func TestRepliesOnASharedChannelIdentifyTheirCall(t *testing.T) {
	a, b := pair(t, 10*time.Second)
	held := holdCalls(b)

	const n = 4
	set := lcm.NewCallSet[int](a.nuc.LCM, n)
	for i := 0; i < n; i++ {
		if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), 2001, wire.ModePacked, 0, []byte{byte('a' + i)}, i); err != nil {
			t.Fatal(err)
		}
	}
	if !set.Full() {
		t.Errorf("a set holding %d calls of %d is not full", n, n)
	}
	if err := set.Start(context.Background(), a.nuc.LCM.NewSpan(), 2001, wire.ModePacked, 0, nil, n); !errors.Is(err, lcm.ErrCallSetFull) {
		t.Errorf("Start on a full set = %v, want ErrCallSetFull", err)
	}
	calls := make([]lcm.Delivery, n)
	for i := range calls {
		calls[i] = <-held
	}
	// Answered last to first; the second call is refused.
	for i := n - 1; i >= 0; i-- {
		if i == 1 {
			_ = b.nuc.LCM.ReplyError(&calls[i], "refused")
			continue
		}
		echo(t, b, calls[i])
	}
	seen := map[int]bool{}
	for range calls {
		tag, d, err := set.Next(context.Background())
		if seen[tag] {
			t.Fatalf("tag %d returned twice", tag)
		}
		seen[tag] = true
		if tag == 1 {
			if !errors.Is(err, lcm.ErrRemote) {
				t.Errorf("refused call: %v, want ErrRemote", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(d.Payload, []byte{byte('a' + tag)}) {
			t.Errorf("call %d answered %q, %v", tag, d.Payload, err)
		}
	}
	if set.Len() != 0 {
		t.Errorf("%d calls left after every reply was collected", set.Len())
	}
	noWaiters(t, a, "every reply was collected")
}
