// Package ipcs defines the NTCS view of a native interprocess communication
// system — "the most stable base we could find; the native IPCS of each
// system" (paper §1.2).
//
// A Network is one IPCS on one logical network: it can create addressable
// endpoints and open reliable, ordered, message-oriented connections to
// endpoints on the same network. Destinations on other logical networks are
// unreachable by construction; that is the disjointness the IP-Layer and
// Gateways exist to bridge (§4).
//
// Receiving is event-driven: a connection delivers inbound messages to a
// registered callback (Receiver.Start) instead of exposing a blocking read.
// The simulated substrates multiplex delivery over a small shared worker
// pool (see dispatch.go), so an idle connection costs no goroutine — the
// property the C1M circuit-scale work depends on. tcpnet gives each
// connection one reader goroutine parked in the Go runtime's netpoller,
// which costs a small stack but no OS thread and no buffer while idle.
//
// Three implementations mirror the 1986 testbed:
//
//   - memnet: an in-memory simulated network with configurable latency,
//     loss, and partitions (the local-network substrate for tests and
//     examples);
//   - tcpnet: real TCP over loopback, the paper's "Unix TCP" port;
//   - mbx: Apollo DOMAIN MBX-style named mailboxes, the paper's second
//     port, with pathname addressing and bounded mailbox queues.
package ipcs

import "errors"

// Errors shared by all IPCS implementations. Implementations wrap these so
// the ND-Layer can classify failures without knowing the network type.
var (
	ErrNoSuchEndpoint = errors.New("ipcs: no such endpoint")
	ErrClosed         = errors.New("ipcs: endpoint or connection closed")
	ErrUnreachable    = errors.New("ipcs: destination unreachable")
	ErrMailboxFull    = errors.New("ipcs: mailbox full")
	ErrNetworkDown    = errors.New("ipcs: network shut down")
)

// Network is one native IPCS attached to one logical network.
type Network interface {
	// ID returns the logical network identifier (e.g. "ring-a").
	ID() string
	// Listen creates an endpoint. hint suggests an address (a mailbox
	// pathname, a port); implementations may ignore it. The endpoint's
	// actual physical address is Listener.Addr.
	Listen(hint string) (Listener, error)
	// Dial opens a connection to an endpoint on this network.
	Dial(physAddr string) (Conn, error)
}

// Listener is an addressable endpoint accepting connections.
type Listener interface {
	// Addr returns the endpoint's physical address on this network.
	Addr() string
	// Accept blocks until an inbound connection arrives.
	Accept() (Conn, error)
	// Close destroys the endpoint; blocked Accepts return ErrClosed.
	Close() error
}

// RecvFunc receives one inbound message, or the connection's terminal
// error. Exactly one of msg/err is meaningful per invocation: msg non-nil
// with err nil for a delivery, msg nil with err non-nil for the terminal
// condition (peer closed → ErrClosed, transport failure → the failure).
// The callback owns msg.
type RecvFunc func(msg []byte, err error)

// Sender is the transmitting half of a connection. Send and SendBatch are
// safe for concurrent use.
type Sender interface {
	// Send transmits one message.
	Send(msg []byte) error
	// SendBatch transmits msgs in order, exactly as consecutive Sends
	// would, but lets the implementation coalesce them into one native
	// operation (a single writev on TCP, one lock acquisition on the
	// simulated substrates). An element the substrate would reject from
	// Send (oversized) fails the whole batch before anything is
	// transmitted; a transmission error may leave a prefix of the batch
	// delivered, never a gap or a reordering. An empty batch is a no-op.
	SendBatch(msgs [][]byte) error
}

// Receiver is the receiving half of a connection: a registered-callback
// contract, served by the substrate's shared dispatcher.
//
// The contract every substrate honors (and ipcstest enforces):
//
//   - Messages that arrive before Start are buffered and delivered, in
//     order, once the callback is registered.
//   - The callback is invoked serially per connection — never two
//     invocations at once — and in arrival order (per-connection FIFO).
//   - The terminal error is delivered exactly once, after every message
//     that arrived before the close; no deliveries follow it.
//   - Start may be called at most once per connection.
//
// The callback runs on a substrate goroutine (a shared worker, or the
// connection's own reader on tcpnet); it may call Send (even back into the
// same connection) but must not block indefinitely, or it stalls delivery.
type Receiver interface {
	// Start registers cb and begins delivery.
	Start(cb RecvFunc)
}

// Conn is a reliable, ordered, message-oriented connection: a Sender and a
// Receiver sharing one transport and one Close.
type Conn interface {
	Sender
	Receiver
	// Close tears the connection down; the peer's callback receives
	// ErrClosed as its terminal error.
	Close() error
}
