// Package experiments holds the fixtures the paper's quantified claims
// run on. The paper's §7 "Results" is qualitative, so each E-* entry in
// EXPERIMENTS.md is a claim, not a table: experiments_test.go asserts
// each one on a deterministic quantity (bytes, counters, trace depth,
// route length), and the testing.B series in the repository root times
// it on the same environments built here. serve.go is the open-loop
// serving driver behind `make bench-serve` and `make serve-gate`.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"ntcs/internal/addr"

	"ntcs/internal/core"
	"ntcs/internal/ipcs/mbx"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// Env is a ready testbed: a client and an echo server, possibly separated
// by gateways, plus the world that owns them.
type Env struct {
	World  *sim.World
	Client *core.Module
	Server *core.Module
	Dst    addr.UAdd // server UAdd as resolved by the client
}

// EchoBody is the message the echo server round-trips.
type EchoBody struct {
	Payload []byte
}

// ImageBody is a fixed-size struct for conversion-mode experiments: a
// handful of scalars plus a 1KB binary block (a search result buffer, in
// URSA terms). Image mode moves it as one byte copy; packed mode renders
// every byte in the character representation — the paper's "excessive
// overhead ... and worst-case-long messages".
type ImageBody struct {
	A int64
	B int64
	C int64
	D int64
	E float64
	F float64
	G [1024]byte
	H uint32
	I uint32
}

// serveEcho answers an "echo" or "image" call with its own body.
func serveEcho(m *core.Module) {
	go m.Serve(func(d *core.Delivery) (string, any, error) {
		switch d.Type {
		case "echo":
			var b EchoBody
			err := d.Decode(&b)
			return "echo", b, err
		case "image":
			var b ImageBody
			err := d.Decode(&b)
			return "image", b, err
		}
		return "", nil, errors.New("unknown type " + d.Type)
	})
}

// PairWithHops builds a client and echo server separated by `hops` prime
// gateways over zero-latency in-memory networks. hops = 0 puts both on
// one network. clientMachine and serverMachine select the simulated
// hardware.
func PairWithHops(hops int, clientMachine, serverMachine machine.Type) (_ *Env, err error) {
	w := sim.NewWorld()
	defer closeOnError(w, &err)
	// Networks net0 … net<hops>; NS on net0 with the client.
	for i := 0; i <= hops; i++ {
		w.AddNetwork(fmt.Sprintf("net%d", i), memnet.Options{})
	}
	nsHost, err := w.AddHost("ns-host", machine.Apollo, "net0")
	if err != nil {
		return nil, err
	}
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		return nil, err
	}
	for i := 0; i < hops; i++ {
		gwHost, err := w.AddHost(fmt.Sprintf("gw-host-%d", i), machine.Apollo,
			fmt.Sprintf("net%d", i), fmt.Sprintf("net%d", i+1))
		if err != nil {
			return nil, err
		}
		if _, err := w.StartGateway(gwHost, fmt.Sprintf("gw-%d", i)); err != nil {
			return nil, err
		}
	}

	serverHost, err := w.AddHost("server-host", serverMachine, fmt.Sprintf("net%d", hops))
	if err != nil {
		return nil, err
	}
	server, err := w.Attach(serverHost, "echo-server", map[string]string{"role": "echo"})
	if err != nil {
		return nil, err
	}
	serveEcho(server)

	clientHost, err := w.AddHost("client-host", clientMachine, "net0")
	if err != nil {
		return nil, err
	}
	client, err := w.Attach(clientHost, "client", nil)
	if err != nil {
		return nil, err
	}
	u, err := client.Locate("echo-server")
	if err != nil {
		return nil, err
	}
	return &Env{World: w, Client: client, Server: server, Dst: u}, nil
}

// PairOverIPCS builds a same-network pair over the named IPCS kind:
// "memnet", "tcp", or "mbx" (E-PORT).
func PairOverIPCS(kind string) (_ *Env, err error) {
	w := sim.NewWorld()
	defer closeOnError(w, &err)
	switch kind {
	case "memnet":
		w.AddNetwork("net", memnet.Options{})
	case "tcp":
		w.AddTCPNetwork("net")
	case "mbx":
		w.AddMBXNetwork("net", mbx.Options{Capacity: 1024})
	default:
		return nil, fmt.Errorf("experiments: unknown IPCS kind %q", kind)
	}
	nsHost, err := w.AddHost("ns-host", machine.Apollo, "net")
	if err != nil {
		return nil, err
	}
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		return nil, err
	}
	serverHost, err := w.AddHost("server-host", machine.VAX, "net")
	if err != nil {
		return nil, err
	}
	server, err := w.Attach(serverHost, "echo-server", nil)
	if err != nil {
		return nil, err
	}
	serveEcho(server)
	clientHost, err := w.AddHost("client-host", machine.VAX, "net")
	if err != nil {
		return nil, err
	}
	client, err := w.Attach(clientHost, "client", nil)
	if err != nil {
		return nil, err
	}
	u, err := client.Locate("echo-server")
	if err != nil {
		return nil, err
	}
	return &Env{World: w, Client: client, Server: server, Dst: u}, nil
}

// RoundTrip performs one synchronous echo of payloadLen bytes.
func (e *Env) RoundTrip(payloadLen int) error {
	body := EchoBody{Payload: make([]byte, payloadLen)}
	var out EchoBody
	if err := e.Client.CallContext(context.Background(), e.Dst, "echo", body, &out); err != nil {
		return err
	}
	if len(out.Payload) != payloadLen {
		return fmt.Errorf("echo returned %d bytes, want %d", len(out.Payload), payloadLen)
	}
	return nil
}

// RoundTripImage performs one synchronous echo of the fixed-size struct
// (eligible for image mode).
func (e *Env) RoundTripImage() error {
	in := ImageBody{A: 1, B: 2, C: 3, D: 4, E: 5.5, F: 6.5, H: 7, I: 8}
	var out ImageBody
	if err := e.Client.CallContext(context.Background(), e.Dst, "image", in, &out); err != nil {
		return err
	}
	if out != in {
		return fmt.Errorf("image echo mismatch")
	}
	return nil
}

// Close tears the environment down.
func (e *Env) Close() { e.World.Close() }

// closeOnError closes a half-built world when its builder fails, so the
// listeners and goroutines it already started do not outlive the error.
func closeOnError(w *sim.World, err *error) {
	if *err != nil {
		w.Close()
	}
}
