package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
)

// callsBed is a client and a server module in one world; the server hands
// every call it receives to held, unanswered.
func callsBed(t *testing.T) (client *core.Module, server addr.UAdd, held <-chan *core.Delivery, answerer *core.Module) {
	t.Helper()
	w := world(t)
	h := w.MustHost("vax", machine.VAX, "ring")
	srv, err := w.Attach(h, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := make(chan *core.Delivery, 16)
	go func() {
		for {
			d, err := srv.Recv(time.Hour)
			if err != nil {
				return
			}
			calls <- d
		}
	}()
	client, err = w.Attach(h, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	server, err = client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	return client, server, calls, srv
}

func TestCallsRepliesEachDecodeIntoTheirCall(t *testing.T) {
	client, server, held, srv := callsBed(t)
	calls := client.NewCalls(3)
	outs := make([]string, 3)
	for i := range outs {
		if err := calls.Start(context.Background(), i, server, "q", fmt.Sprintf("question-%d", i), &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !calls.Full() || calls.Len() != 3 {
		t.Fatalf("Len %d, Full %v after three starts on a set of three", calls.Len(), calls.Full())
	}
	got := make([]*core.Delivery, 3)
	for i := range got {
		got[i] = <-held
	}
	// Answered last to first; the middle one is refused.
	for i := len(got) - 1; i >= 0; i-- {
		var q string
		if err := got[i].Decode(&q); err != nil {
			t.Fatal(err)
		}
		if q == "question-1" {
			_ = srv.ReplyError(got[i], "refused")
			continue
		}
		if err := srv.Reply(got[i], "a", "answer to "+q); err != nil {
			t.Fatal(err)
		}
	}
	for range outs {
		tag, err := calls.Next(context.Background())
		switch {
		case tag == 1:
			if !errors.Is(err, lcm.ErrRemote) {
				t.Errorf("refused call: %v, want ErrRemote", err)
			}
		case err != nil:
			t.Errorf("call %d: %v", tag, err)
		}
	}
	for _, i := range []int{0, 2} {
		if want := fmt.Sprintf("answer to question-%d", i); outs[i] != want {
			t.Errorf("call %d decoded %q, want %q", i, outs[i], want)
		}
	}
	if outs[1] != "" {
		t.Errorf("the refused call's reply target was written: %q", outs[1])
	}
	if tag, err := calls.Next(context.Background()); tag != -1 || !errors.Is(err, lcm.ErrNoCalls) {
		t.Errorf("Next on an empty set = %d, %v", tag, err)
	}
	if n := client.Nucleus().LCM.Waiters(); n != 0 {
		t.Errorf("%d reply waiters left", n)
	}
}

func TestCallsCancelledLeaveNoWaiter(t *testing.T) {
	client, server, held, _ := callsBed(t)
	calls := client.NewCalls(2)
	for i := 0; i < 2; i++ {
		if err := calls.Start(context.Background(), i, server, "q", "never answered", nil); err != nil {
			t.Fatal(err)
		}
		<-held
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if tag, err := calls.Next(ctx); tag != -1 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next past the deadline = %d, %v", tag, err)
	}
	if calls.Len() != 0 {
		t.Errorf("%d calls left in the set", calls.Len())
	}
	if n := client.Nucleus().LCM.Waiters(); n != 0 {
		t.Errorf("%d reply waiters left behind by the given-up calls", n)
	}
}

func TestCallsFailedStartRegistersNoWaiter(t *testing.T) {
	client, _, _, _ := callsBed(t)
	calls := client.NewCalls(2)
	if err := calls.Start(context.Background(), 0, addr.UAdd(0xdead), "q", "x", nil); err == nil {
		t.Fatal("Start to an address no module holds succeeded")
	}
	if err := calls.Start(context.Background(), 1, addr.Nil, "q", "x", nil); !errors.Is(err, core.ErrBadDest) {
		t.Errorf("Start to Nil = %v, want ErrBadDest", err)
	}
	if calls.Len() != 0 {
		t.Errorf("failed starts left %d calls in the set", calls.Len())
	}
	if n := client.Nucleus().LCM.Waiters(); n != 0 {
		t.Errorf("%d reply waiters left behind by failed starts", n)
	}
}
