// Package mbx simulates the Apollo DOMAIN MBX communication support the
// 1986 NTCS ran over: named server mailboxes opened by hierarchical
// pathname (e.g. "/nodes/host7/ursa/ns"), with per-client channels and
// bounded mailbox queues whose overflow is visible to the sender.
//
// Semantically it differs from memnet and tcpnet in exactly the ways the
// ND-Layer must absorb: addressing is by pathname rather than host:port,
// server mailboxes have fixed capacity (a full mailbox rejects the send),
// and a client "open" is a rendezvous with the serving process rather than
// a transport handshake. Porting the NTCS across this difference is the
// paper's portability claim (E-PORT).
//
// The queues are memnet's: a Registry is a pathname veneer over a private
// memnet network whose per-direction queue bound is the mailbox capacity.
// memnet already rejects a send into a full direction, drains a closed
// channel before its terminal error, and hands a dial to Accept, so only
// addressing and the mailbox lifecycle live here.
package mbx

import (
	"fmt"
	"strings"
	"sync"

	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/memnet"
)

// DefaultCapacity is the per-channel mailbox depth when Options.Capacity
// is zero (the Apollo default was small; overflow pushback is part of the
// semantics being modeled).
const DefaultCapacity = 64

// Options configure the mailbox system.
type Options struct {
	// Capacity bounds each channel direction.
	Capacity int
}

// Registry is one MBX namespace on one logical network: the set of server
// mailboxes visible under a pathname root. It implements ipcs.Network.
type Registry struct {
	id  string
	net *memnet.Net // the mailbox queues; endpoint names are the pathnames

	mu     sync.Mutex
	boxes  map[string]*mailbox
	nextEP int
}

var _ ipcs.Network = (*Registry)(nil)

// New creates an MBX namespace with the given logical network identifier.
func New(id string, opts Options) *Registry {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	return &Registry{
		id:    id,
		net:   memnet.New(id, memnet.Options{QueueLen: opts.Capacity}),
		boxes: make(map[string]*mailbox),
	}
}

// ID returns the logical network identifier.
func (r *Registry) ID() string { return r.id }

// Listen creates a server mailbox. hint is its pathname; it must be
// absolute ("/…"). An empty hint allocates "/mbx/ep-N".
func (r *Registry) Listen(hint string) (ipcs.Listener, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	path := hint
	if path == "" {
		r.nextEP++
		path = fmt.Sprintf("/mbx/ep-%d", r.nextEP)
	}
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("mbx %s: mailbox pathname %q must be absolute", r.id, path)
	}
	l, err := r.net.Listen(path)
	if err != nil {
		return nil, fmt.Errorf("mbx %s: %w", r.id, err)
	}
	b := &mailbox{Listener: l, reg: r}
	r.boxes[path] = b
	return b, nil
}

// Dial opens a client channel to a server mailbox by pathname.
func (r *Registry) Dial(physAddr string) (ipcs.Conn, error) {
	c, err := r.net.Dial(physAddr)
	if err != nil {
		return nil, fmt.Errorf("mbx %s: open %q: %w", r.id, physAddr, err)
	}
	return c, nil
}

// Remove deletes a mailbox and severs its channels (module death).
func (r *Registry) Remove(path string) {
	r.mu.Lock()
	b := r.boxes[path]
	r.mu.Unlock()
	if b != nil {
		_ = b.Close()
	}
}

// SetDown fails or restores the whole namespace. Going down destroys
// every mailbox, so a restored namespace starts empty.
func (r *Registry) SetDown(down bool) {
	r.net.SetDown(down)
	if !down {
		return
	}
	r.mu.Lock()
	boxes := r.boxes
	r.boxes = make(map[string]*mailbox)
	r.mu.Unlock()
	for _, b := range boxes {
		_ = b.Close()
	}
}

// mailbox is a server mailbox: memnet's listener, unregistered from the
// pathname table when it closes.
type mailbox struct {
	ipcs.Listener
	reg *Registry
}

func (b *mailbox) Close() error {
	b.reg.mu.Lock()
	if b.reg.boxes[b.Addr()] == b {
		delete(b.reg.boxes, b.Addr())
	}
	b.reg.mu.Unlock()
	return b.Listener.Close()
}
