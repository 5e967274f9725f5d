// Quickstart: two modules on one simulated network exchange a synchronous
// call through the full NTCS stack — logical naming, UAdd resolution,
// automatic conversion-mode selection, context-aware deadlines, and
// inspectable errors.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"ntcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A world is a simulated testbed: networks, machines, and the
	// well-known address configuration every module is born with.
	world := sim.NewWorld()
	world.AddNetwork("ring", memnet.Options{})
	defer world.Close()

	// The Name Server comes first: everything else registers with it.
	nsHost := world.MustHost("apollo-ns", ntcs.Apollo, "ring")
	if _, err := world.StartNameServer(nsHost, "ns"); err != nil {
		return fmt.Errorf("start name server: %w", err)
	}

	// A Sun machine runs the greeter service...
	sunHost := world.MustHost("sun-1", ntcs.Sun68K, "ring")
	greeter, err := world.Attach(sunHost, "greeter", map[string]string{"role": "greeting"})
	if err != nil {
		return fmt.Errorf("attach greeter: %w", err)
	}
	go serveGreetings(greeter)

	// ...and a VAX runs the client.
	vaxHost := world.MustHost("vax-1", ntcs.VAX, "ring")
	client, err := world.Attach(vaxHost, "client", nil)
	if err != nil {
		return fmt.Errorf("attach client: %w", err)
	}

	// Resource location: name → UAdd, once. Everything after this is
	// transparent to relocation.
	u, err := client.Locate("greeter")
	if err != nil {
		return fmt.Errorf("locate greeter: %w", err)
	}
	fmt.Printf("located %q at %v\n", "greeter", u)

	// A synchronous send/receive/reply call, bounded by a context
	// deadline. The body crosses from a little-endian VAX to a big-endian
	// Sun: the NTCS selects packed mode automatically.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var reply string
	if err := client.CallContext(ctx, u, "greet", "ICDCS 1986", &reply); err != nil {
		return fmt.Errorf("call greeter: %w", err)
	}
	fmt.Printf("reply: %s\n", reply)

	// Errors are inspectable. A callee's error reply surfaces as a
	// structured *ntcs.RemoteError carrying who failed and why...
	err = client.CallContext(context.Background(), u, "greet", struct{ Bad int }{42}, &reply)
	var remote *ntcs.RemoteError
	if errors.As(err, &remote) {
		fmt.Printf("remote error from %v: %s\n", remote.Src, remote.Msg)
	}

	// ...and an expired deadline matches context.DeadlineExceeded,
	// whether the context or the NTCS call timer fired first.
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	if err := client.CallContext(expired, u, "greet", "too late", &reply); errors.Is(err, context.DeadlineExceeded) {
		fmt.Println("deadline exceeded, as expected")
	}
	return nil
}

// serveGreetings answers each call until the module is torn down. Serve
// sends what the handler returns: the reply, or its error as a remote one.
func serveGreetings(m *ntcs.Module) {
	m.Serve(func(d *ntcs.Delivery) (string, any, error) {
		var who string
		if err := d.Decode(&who); err != nil {
			return "", nil, err
		}
		return "greeting", fmt.Sprintf("hello, %s — from %s via %s mode", who, m.Name(), d.Mode()), nil
	})
}
