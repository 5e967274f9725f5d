package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// A workload is a topology plus one verified operation. Every workload is
// a closed loop of two callers on two client modules: a caller sends its
// next request only after the previous one was answered, so at most two
// operations are in flight. All traffic crosses loopback TCP or memnet.

// errCorrupt marks a reply that arrived but held the wrong content. It is
// counted as a failed op and additionally makes the process exit non-zero.
var errCorrupt = errors.New("corrupted reply")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCorrupt}, args...)...)
}

const callers = 2

// caller is one closed-loop client. iter runs iteration i and returns the
// number of operations it completed and verified.
type caller interface {
	iter(ctx context.Context, i int, tr tracer) (ops int, err error)
}

// instance is one booted world of a workload.
type instance struct {
	w       *world
	callers [callers]caller
	clients [callers]*module
	ladder  ladderSpec
	servers sync.WaitGroup // serve loops; they end when the world closes
}

func (in *instance) close() {
	in.w.close()
	in.servers.Wait()
}

// serve runs fn for every delivery to m until m detaches.
func (in *instance) serve(m *module, fn func(d *delivery)) {
	in.servers.Add(1)
	go func() {
		defer in.servers.Done()
		for {
			d, err := recv(m)
			if err != nil {
				return
			}
			fn(d)
		}
	}()
}

type workload struct {
	name string
	unit string // what one op is
	// boot builds the world, attaches and registers every module, locates
	// the servers and completes one verified op on each caller's circuit.
	boot func(ctx context.Context, seed int64, opt bootOptions) (*instance, error)
	// gateway says whether an op crosses the prime gateway.
	gateway bool
	// substrate is the network the clients sit on (for the ipcs rungs).
	clientNet string
	// traversals is how many one-way substrate crossings one call makes.
	traversals int
}

// bootOptions carries the test hook and nothing else.
type bootOptions struct {
	// corruptEvery, when positive, makes the server damage every n-th
	// reply. Only the smoke test sets it.
	corruptEvery int
}

var workloads = []workload{
	{name: "call_gateway_tcp", unit: "calls", boot: bootCallGateway, gateway: true, clientNet: "access", traversals: 4},
	{name: "stream_burst_tcp", unit: "msgs", boot: bootStreamBurst, clientNet: "lan", traversals: 2},
	{name: "packed_call_mem", unit: "calls", boot: bootPackedCall, clientNet: "net", traversals: 2},
	{name: "ursa_query_tcp", unit: "queries", boot: bootURSA, gateway: true, clientNet: "access", traversals: 4},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// firstOps completes and verifies iteration 0 on every caller: the "one
// verified op per circuit" that ends a boot.
func (in *instance) firstOps(ctx context.Context) error {
	for c, cl := range in.callers {
		if _, err := cl.iter(ctx, 0, tracer{parent: noParent}); err != nil {
			return fmt.Errorf("caller %d first op: %w", c, err)
		}
	}
	return nil
}

// corrupter damages every n-th reply when the test hook is on.
type corrupter struct {
	every, n int
}

func (c *corrupter) hit() bool {
	if c.every <= 0 {
		return false
	}
	c.n++
	return c.n%c.every == 0
}

// --- call_gateway_tcp -------------------------------------------------------

const (
	echoBytes    = 64
	payloadCount = 256 // distinct seeded payloads a caller cycles through
)

type echoCaller struct {
	m        *module
	dst      uadd
	payloads [][]byte
	out      []byte
}

func (c *echoCaller) iter(ctx context.Context, i int, tr tracer) (int, error) {
	p := c.payloads[i%len(c.payloads)]
	binary.BigEndian.PutUint64(p, uint64(i)) // ties the echo to this request
	c.out = c.out[:0]
	s := tr.begin(spanCoreCall)
	err := call(ctx, c.m, c.dst, "echo", p, &c.out)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(c.out, p) {
		return 0, corruptf("echo of request %d differs", i)
	}
	return 1, nil
}

func seededPayloads(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func bootCallGateway(ctx context.Context, seed int64, opt bootOptions) (*instance, error) {
	in := &instance{w: newWorld()}
	w := in.w
	w.tcpNetwork("backbone")
	w.tcpNetwork("access")
	if err := w.nameServer("backbone"); err != nil {
		return in.fail(err)
	}
	if err := w.gateway("backbone", "access"); err != nil {
		return in.fail(err)
	}
	server, err := w.attach("echo", sun68k, "backbone")
	if err != nil {
		return in.fail(err)
	}
	bad := corrupter{every: opt.corruptEvery}
	in.serve(server, func(d *delivery) {
		if !d.IsCall() {
			return
		}
		var b []byte
		if err := d.Decode(&b); err != nil {
			_ = replyError(server, d, err.Error())
			return
		}
		if bad.hit() && len(b) > 0 {
			b[len(b)-1] ^= 0xFF
		}
		_ = reply(server, d, "echo", b)
	})
	err = in.attachClients(ctx, "client", vax, "access", "echo", seed, func(m *module, dst uadd, rng *rand.Rand) caller {
		return &echoCaller{m: m, dst: dst, payloads: seededPayloads(rng, payloadCount, echoBytes)}
	})
	if err != nil {
		return in.fail(err)
	}
	body := append([]byte(nil), in.callers[0].(*echoCaller).payloads[0]...)
	in.ladder = opaqueLadder("echo", "echo", body, body)
	return in.verified(ctx)
}

// attachClients attaches the two client modules, each on a host of its own,
// locates the server from each and builds its caller with its own seeded
// generator.
func (in *instance) attachClients(ctx context.Context, prefix string, mt mtype, net, server string, seed int64,
	mk func(m *module, dst uadd, rng *rand.Rand) caller) error {
	for c := 0; c < callers; c++ {
		m, err := in.w.attach(fmt.Sprintf("%s-%d", prefix, c), mt, net)
		if err != nil {
			return err
		}
		dst, err := locate(ctx, m, server)
		if err != nil {
			return err
		}
		in.clients[c] = m
		in.callers[c] = mk(m, dst, rand.New(rand.NewSource(seed*7919+int64(c))))
	}
	return nil
}

// verified ends a boot with the first ops.
func (in *instance) verified(ctx context.Context) (*instance, error) {
	if err := in.firstOps(ctx); err != nil {
		return in.fail(err)
	}
	return in, nil
}

// fail closes a half-built world and passes the error on.
func (in *instance) fail(err error) (*instance, error) {
	in.close()
	return nil, err
}

// --- stream_burst_tcp -------------------------------------------------------

const (
	streamBytes = 256
	burstLen    = 64
)

// streamCaller sends bursts of one-way messages. Each message carries the
// sender's running sequence number; the barrier call that ends a burst
// returns how many messages the receiver has taken from this sender and
// how many arrived out of order.
type streamCaller struct {
	m        *module
	dst      uadd
	payloads [][]byte
	sent     uint64
	reply    []byte
}

func (c *streamCaller) iter(ctx context.Context, i int, tr tracer) (int, error) {
	for k := 0; k < burstLen; k++ {
		p := c.payloads[(i*burstLen+k)%len(c.payloads)]
		binary.BigEndian.PutUint64(p, c.sent)
		s := tr.begin(spanCoreSend)
		err := sendNoCopy(ctx, c.m, c.dst, "data", p)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		c.sent++
	}
	c.reply = c.reply[:0]
	s := tr.begin(spanCoreCall)
	err := call(ctx, c.m, c.dst, "barrier", []byte{}, &c.reply)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if len(c.reply) != 16 {
		return 0, corruptf("barrier reply of %d bytes", len(c.reply))
	}
	got, misordered := binary.BigEndian.Uint64(c.reply), binary.BigEndian.Uint64(c.reply[8:])
	if got != c.sent || misordered != 0 {
		return 0, corruptf("receiver took %d of %d messages, %d out of order", got, c.sent, misordered)
	}
	return burstLen, nil
}

type streamPeer struct{ taken, misordered uint64 }

func bootStreamBurst(ctx context.Context, seed int64, opt bootOptions) (*instance, error) {
	in := &instance{w: newWorld()}
	w := in.w
	w.tcpNetwork("lan")
	if err := w.nameServer("lan"); err != nil {
		return in.fail(err)
	}
	sink, err := w.attach("sink", sun68k, "lan")
	if err != nil {
		return in.fail(err)
	}
	peers := map[uadd]*streamPeer{}
	bad := corrupter{every: opt.corruptEvery}
	var body []byte
	in.serve(sink, func(d *delivery) {
		p := peers[d.Src()]
		if p == nil {
			p = &streamPeer{}
			peers[d.Src()] = p
		}
		if d.IsCall() {
			var out [16]byte
			binary.BigEndian.PutUint64(out[:], p.taken)
			binary.BigEndian.PutUint64(out[8:], p.misordered)
			if bad.hit() {
				out[7] ^= 0xFF
			}
			_ = reply(sink, d, "barrier", out[:])
			return
		}
		body = body[:0]
		if err := d.Decode(&body); err != nil || len(body) != streamBytes || binary.BigEndian.Uint64(body) != p.taken {
			p.misordered++
		}
		p.taken++
	})
	err = in.attachClients(ctx, "sender", vax, "lan", "sink", seed, func(m *module, dst uadd, rng *rand.Rand) caller {
		return &streamCaller{m: m, dst: dst, payloads: seededPayloads(rng, payloadCount, streamBytes)}
	})
	if err != nil {
		return in.fail(err)
	}
	msg := append([]byte(nil), in.callers[0].(*streamCaller).payloads[0]...)
	in.ladder = opaqueLadder("sink", "barrier", []byte{}, msg)
	return in.verified(ctx)
}

// --- packed_call_mem --------------------------------------------------------

// packedBody is the benchmark's own structured message, about 3 KB in the
// packed representation. Between a VAX and a Sun68K it can only travel
// converted, through the default compiled-plan codec.
type packedBody struct {
	Seq     int64
	Flags   uint32
	Load    float64
	OK      bool
	Name    string
	Samples []int64
	Items   []packedItem
	Attrs   map[string]string
	Nested  packedNested
}

type packedItem struct {
	ID     int64
	Label  string
	Weight float64
	On     bool
}

type packedNested struct {
	Origin string
	Rev    uint32
	Tags   []string
}

func seededWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func seededBody(rng *rand.Rand) packedBody {
	b := packedBody{
		Flags: rng.Uint32(), Load: rng.Float64() * 100, OK: rng.Intn(2) == 0,
		Name:    seededWord(rng, 24),
		Samples: make([]int64, 64),
		Items:   make([]packedItem, 32),
		Attrs:   make(map[string]string, 8),
		Nested:  packedNested{Origin: seededWord(rng, 16), Rev: rng.Uint32(), Tags: make([]string, 4)},
	}
	for i := range b.Samples {
		b.Samples[i] = rng.Int63n(1<<40) - 1<<39
	}
	for i := range b.Items {
		b.Items[i] = packedItem{ID: rng.Int63n(1 << 32), Label: seededWord(rng, 12), Weight: rng.Float64(), On: rng.Intn(2) == 0}
	}
	for len(b.Attrs) < 8 {
		b.Attrs[seededWord(rng, 8)] = seededWord(rng, 16)
	}
	for i := range b.Nested.Tags {
		b.Nested.Tags[i] = seededWord(rng, 10)
	}
	return b
}

func (a *packedBody) equal(b *packedBody) bool {
	if a.Seq != b.Seq || a.Flags != b.Flags || a.Load != b.Load || a.OK != b.OK || a.Name != b.Name ||
		len(a.Samples) != len(b.Samples) || len(a.Items) != len(b.Items) || len(a.Attrs) != len(b.Attrs) ||
		a.Nested.Origin != b.Nested.Origin || a.Nested.Rev != b.Nested.Rev || len(a.Nested.Tags) != len(b.Nested.Tags) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	for k, v := range a.Attrs {
		if bv, ok := b.Attrs[k]; !ok || bv != v {
			return false
		}
	}
	for i := range a.Nested.Tags {
		if a.Nested.Tags[i] != b.Nested.Tags[i] {
			return false
		}
	}
	return true
}

type packedCaller struct {
	m    *module
	dst  uadd
	body packedBody
}

func (c *packedCaller) iter(ctx context.Context, i int, tr tracer) (int, error) {
	c.body.Seq = int64(i)
	var out packedBody
	s := tr.begin(spanCoreCall)
	err := call(ctx, c.m, c.dst, "pack", c.body, &out)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if !c.body.equal(&out) {
		return 0, corruptf("packed echo of request %d differs", i)
	}
	return 1, nil
}

func bootPackedCall(ctx context.Context, seed int64, opt bootOptions) (*instance, error) {
	in := &instance{w: newWorld()}
	w := in.w
	w.memNetwork("net")
	if err := w.nameServer("net"); err != nil {
		return in.fail(err)
	}
	server, err := w.attach("pack-echo", sun68k, "net")
	if err != nil {
		return in.fail(err)
	}
	bad := corrupter{every: opt.corruptEvery}
	in.serve(server, func(d *delivery) {
		if !d.IsCall() {
			return
		}
		var b packedBody
		if err := d.Decode(&b); err != nil {
			_ = replyError(server, d, err.Error())
			return
		}
		if bad.hit() {
			b.Samples[len(b.Samples)-1]++
		}
		_ = reply(server, d, "pack", b)
	})
	err = in.attachClients(ctx, "client", vax, "net", "pack-echo", seed, func(m *module, dst uadd, rng *rand.Rand) caller {
		return &packedCaller{m: m, dst: dst, body: seededBody(rng)}
	})
	if err != nil {
		return in.fail(err)
	}
	body := in.callers[0].(*packedCaller).body
	packed, err := packMarshal(body)
	if err != nil {
		return in.fail(err)
	}
	in.ladder = ladderSpec{
		server: "pack-echo", msgType: "pack",
		request:  body,
		newReply: func() any { return new(packedBody) },
		envelope: envelopePacked("pack", packed),
		encode:   func() ([]byte, error) { return packMarshal(body) },
		decode:   func(b []byte) error { return packUnmarshal(b, new(packedBody)) },
	}
	return in.verified(ctx)
}

// --- ursa_query_tcp ---------------------------------------------------------

const (
	ursaDocs    = 200
	ursaQueryN  = 200
	ursaLimit   = 5
	ursaDocSeed = 97 // query texts use seed+97, as the serving bench does
)

type ursaCaller struct {
	m       *module
	dst     uadd
	queries []string
	offset  int
	titles  map[int64]string
}

func (c *ursaCaller) iter(ctx context.Context, i int, tr tracer) (int, error) {
	q := c.queries[(c.offset+i)%len(c.queries)]
	var rep ursaReply
	s := tr.begin(spanCoreCall)
	err := call(ctx, c.m, c.dst, ursaMsgSearch, ursaRequest{Query: q, Limit: ursaLimit}, &rep)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if len(rep.Hits) == 0 || len(rep.Hits) > ursaLimit {
		return 0, corruptf("query %q returned %d hits", q, len(rep.Hits))
	}
	for _, h := range rep.Hits {
		if want, ok := c.titles[h.DocID]; !ok || want != h.Title {
			return 0, corruptf("query %q: document %d titled %q", q, h.DocID, h.Title)
		}
	}
	return 1, nil
}

func bootURSA(ctx context.Context, seed int64, opt bootOptions) (*instance, error) {
	in := &instance{w: newWorld()}
	w := in.w
	w.tcpNetwork("backbone")
	w.tcpNetwork("access")
	if err := w.nameServer("backbone"); err != nil {
		return in.fail(err)
	}
	if err := w.gateway("backbone", "access"); err != nil {
		return in.fail(err)
	}
	if err := w.ursaDeploy("backbone"); err != nil {
		return in.fail(err)
	}
	docs := ursaCorpus(ursaDocs, seed)
	titles := make(map[int64]string, len(docs))
	for _, d := range docs {
		titles[d.ID] = d.Title
	}
	queries := ursaQueries(ursaQueryN, seed+ursaDocSeed)
	for c := 0; c < callers; c++ {
		m, err := w.attach(fmt.Sprintf("user-%d", c), sun68k, "access")
		if err != nil {
			return in.fail(err)
		}
		if err := ursaConverters(m); err != nil {
			return in.fail(err)
		}
		if c == 0 {
			for _, name := range []string{ursaIndexName, ursaDocsName} {
				u, err := locate(ctx, m, name)
				if err != nil {
					return in.fail(err)
				}
				if err := ursaIngest(ctx, m, u, docs); err != nil {
					return in.fail(fmt.Errorf("ingest into %s: %w", name, err))
				}
			}
		}
		dst, err := locate(ctx, m, ursaSearchName)
		if err != nil {
			return in.fail(err)
		}
		in.clients[c] = m
		in.callers[c] = &ursaCaller{m: m, dst: dst, queries: queries, offset: c * len(queries) / callers, titles: titles}
	}
	req := ursaRequest{Query: queries[0], Limit: ursaLimit}
	var rep ursaReply
	if err := call(ctx, in.clients[0], in.callers[0].(*ursaCaller).dst, ursaMsgSearch, req, &rep); err != nil {
		return in.fail(err)
	}
	in.ladder = ladderSpec{
		server: ursaSearchName, msgType: ursaMsgSearch,
		request:  req,
		newReply: func() any { return new(ursaReply) },
		envelope: envelopePacked(ursaMsgSearch, ursaPackRequest(&req)),
		encode:   func() ([]byte, error) { return ursaPackReply(&rep), nil },
		decode:   func(b []byte) error { return ursaUnpackReply(b, new(ursaReply)) },
		ursa:     &ursaLadder{queries: queries},
	}
	if err := in.firstOps(ctx); err != nil {
		return in.fail(err)
	}
	if opt.corruptEvery > 0 {
		// The URSA servers are the program's own, so the hook damages the
		// expectation instead of the reply.
		for id := range titles {
			if id%int64(opt.corruptEvery) == 0 {
				titles[id] += "!"
			}
		}
	}
	return in, nil
}
