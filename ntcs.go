// Package ntcs is a Go reproduction of the portable, network-transparent
// communication system (NTCS) of Zeleznik, "A Portable,
// Network-Transparent Communication System for Message-Based
// Applications", ICDCS 1986 — the message-passing substrate of the Utah
// Retrieval System Architecture (URSA).
//
// The NTCS provides interprocess communication for large-grain,
// loosely-coupled message-based applications while isolating them from
// physical location, underlying communication details, and internetting.
// Modules address each other through logical names resolved once to
// location-independent UAdds; relocation thereafter is transparent:
//
//	m, _ := ntcs.Attach(ntcs.Config{ Name: "host-1", Machine: machine.VAX, ... })
//	searcher, _ := m.Locate("searcher")
//	var hits SearchReply
//	err := m.CallContext(ctx, searcher, "search", SearchRequest{Terms: "retrieval"}, &hits)
//
// The architecture is the paper's, layer for layer:
//
//   - ND-Layer (internal/ndlayer): local virtual circuits over any native
//     IPCS — in-memory (memnet), TCP (tcpnet), or Apollo-MBX-style
//     mailboxes (mbx);
//   - IP-Layer and Gateways (internal/iplayer): internet circuits chained
//     across disjoint networks, routed from naming-service topology;
//   - LCM-Layer (internal/lcm): open-less messaging, forwarding tables,
//     the address-fault handler, dynamic reconfiguration;
//   - NSP-Layer and Name Server (internal/nsp, internal/nameserver): the
//     recursive naming service built on top of the Nucleus it serves;
//   - conversion machinery (internal/machine, internal/pack,
//     internal/wire): image, packed, and shift modes.
//
// Use the sim package to assemble simulated testbeds (networks, hosts,
// name servers, gateways), and the drts packages for the distributed
// run-time support services (time, monitoring, process control).
package ntcs

import (
	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/ndlayer"
	"ntcs/internal/nsp"
)

// UAdd is the unique, location-independent module address of paper §2.3.
type UAdd = addr.UAdd

// Endpoint is a physical-address record: network, address, machine type.
type Endpoint = addr.Endpoint

// WellKnown is the preloaded address configuration of §3.4.
type WellKnown = addr.WellKnown

// WellKnownEntry is one preloaded module: a Name Server or prime gateway.
type WellKnownEntry = addr.WellKnownEntry

// Machine identifies a simulated machine architecture (§5).
type Machine = machine.Type

// The machine types of the URSA testbed.
const (
	VAX     = machine.VAX
	Sun68K  = machine.Sun68K
	Apollo  = machine.Apollo
	Pyramid = machine.Pyramid
)

// Module is an attached NTCS module: the application's entire view of the
// communication system (the ComMod of §2.1).
type Module = core.Module

// Config assembles a module.
type Config = core.Config

// Converter carries application pack/unpack functions (§5.1). Pack
// appends the packed body to the envelope it is handed, in the
// strconv.AppendInt idiom.
type Converter = core.Converter

// Delivery is one received message.
type Delivery = core.Delivery

// Record is a naming service record (§3.2).
type Record = nsp.Record

// Module kinds.
const (
	KindApplication = core.KindApplication
	KindGateway     = core.KindGateway
	KindNameServer  = core.KindNameServer
)

// Well-known addresses (§3.4).
const (
	NameServerUAdd = addr.NameServer
)

// Errors surfaced at the application interface.
var (
	ErrRemote        = lcm.ErrRemote           // the callee replied with an error
	ErrCallTimeout   = lcm.ErrCallTimeout      // no reply arrived in time; matches context.DeadlineExceeded
	ErrNoReplacement = lcm.ErrNoReplacement    // destination gone, no successor module
	ErrNotFound      = nsp.ErrNotFound         // name or address unknown to the naming service
	ErrBackpressure  = ndlayer.ErrBackpressure // circuit out of send credit, or a call refused by a full inbox
)

// RemoteError is the structured form of an error reply: errors.As
// exposes the failing callee's UAdd and its message. Every RemoteError
// also matches ErrRemote under errors.Is.
type RemoteError = lcm.RemoteError

// BackpressureError is the structured form of a send refused (or timed
// out) for want of circuit credit: the destination exists and the
// circuit is healthy, but the receiver has not consumed enough of what
// was already sent. errors.Is(err, ErrBackpressure) matches it;
// errors.As exposes the peer, the circuit, the queue depth at the moment
// the send gave up, and a suggested backoff. It is never a relocation
// signal: the LCM address-fault handler ignores it and the IP-Layer
// keeps the circuit. Callers choose the policy — retry after
// SuggestedWait, shed load, or block without WithNoBlock.
type BackpressureError = ndlayer.BackpressureError

// SendOption tunes Module.SendMsg and Module.CallContext: WithNoBlock for
// fail-fast backpressure, WithService for DRTS traffic the
// monitoring/time hooks must not see, WithConnless for the
// single-attempt connectionless protocol. WithNoCopy is accepted and
// changes nothing.
type SendOption = core.SendOption

// Send options.
const (
	WithNoCopy   = core.WithNoCopy
	WithNoBlock  = core.WithNoBlock
	WithService  = core.WithService
	WithConnless = core.WithConnless
)

// Attach binds a module to the NTCS (§3.2): it creates communication
// resources, registers with the naming service, adopts the assigned UAdd
// and returns the live ComMod.
func Attach(cfg Config) (*Module, error) { return core.Attach(cfg) }
