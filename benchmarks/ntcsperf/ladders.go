package main

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Ladders. After the traced window one caller times the same operation at
// each layer's public functions, from the ComMod down to the bare
// substrate. A rung's time contains the rungs below it, so a layer's self
// time is its rung minus the next one.

// ladderSpec is what a workload tells the ladders about its own operation.
type ladderSpec struct {
	server   string     // logical name the callers call
	msgType  string     // message type of the ladder's call
	request  any        // its body
	newReply func() any // a fresh decode target
	envelope []byte     // the same request, pre-encoded for the LCM rung
	// encode and decode run the workload's larger message through the
	// codec the workload uses (the pack rungs).
	encode func() ([]byte, error)
	decode func([]byte) error
	ursa   *ursaLadder
}

type ursaLadder struct{ queries []string }

// opaqueLadder is the spec of the two opaque-bytes workloads: the call
// carries callBody, the pack rungs run wireBody through pack.Marshal.
func opaqueLadder(server, msgType string, callBody, wireBody []byte) ladderSpec {
	return ladderSpec{
		server: server, msgType: msgType,
		request:  callBody,
		newReply: func() any { return new([]byte) },
		envelope: envelopeOpaque(msgType, callBody),
		encode:   func() ([]byte, error) { return packMarshal(wireBody) },
		decode:   func(b []byte) error { return packUnmarshal(b, new([]byte)) },
	}
}

// ladderCounts are the fixed iteration counts.
type ladderCounts struct {
	calls    int // rungs that wait for a reply; also bounded by callBudget
	sends    int // one-way rungs
	small    int // pack and wire rungs
	resolves int
}

var (
	fullLadder  = ladderCounts{calls: 20000, sends: 20000, small: 20000, resolves: 2000}
	shortLadder = ladderCounts{calls: 40, sends: 256, small: 400, resolves: 20}
)

// callBudget ends a reply-waiting rung early: 20 000 URSA queries would
// take half a minute. The span file says how many iterations a rung made.
const callBudget = time.Second

const (
	ladderSendBytes = streamBytes
	// The send ladder queues four frames a round at a sink whose inbox holds
	// 256 (the LCM's default) and drops what does not fit. A barrier every
	// 32 rounds keeps it at most half full, however late the sink runs.
	ladderBurst = 32
	packBatch   = 100  // calls per span on the pack rungs
	wireBatch   = 1000 // calls per span on the wire rungs
)

type ladders struct {
	ctx    context.Context
	in     *instance
	wl     workload
	n      ladderCounts
	buf    *spanBuf
	root   int32
	allocs map[spanName]float64 // mallocs per call, pack rungs
	bytes  int                  // pack.msg_bytes
}

// rung is one timed call of a ladder.
type rung struct {
	name spanName
	fn   func(i int) error
}

// timed runs the rungs round-robin, count times each, one span per call, so
// that every rung of a ladder sees the same stretch of host weather and the
// difference between two rungs is the layer between them. Each round starts
// one rung further on: the first send of a round finds the receiver asleep
// and pays for waking it, and no rung should pay that every time. After
// every ladderBurst rounds it runs pace, outside any span. A positive budget
// ends the ladder early.
func (l *ladders) timed(rungs []rung, count int, budget time.Duration, pace func() error) error {
	start := time.Now()
	for i := 0; i < count; i++ {
		for k := range rungs {
			r := rungs[(i+k)%len(rungs)]
			s := l.buf.begin(r.name, l.root, int64(i))
			err := r.fn(i)
			l.buf.end(s)
			if err != nil {
				return fmt.Errorf("%s rung, iteration %d: %w", spanNames[r.name], i, err)
			}
		}
		if pace != nil && i%ladderBurst == ladderBurst-1 {
			if err := pace(); err != nil {
				return fmt.Errorf("pacing after iteration %d: %w", i, err)
			}
		}
		if budget > 0 && i%16 == 15 && time.Since(start) > budget {
			break
		}
	}
	return nil
}

// batched times fn in batches of size under one span per batch and returns
// mallocs per call.
func (l *ladders) batched(name spanName, count, size int, fn func() error) (float64, error) {
	before := readMallocs()
	for done := 0; done < count; done += size {
		s := l.buf.begin(name, l.root, int64(done))
		for k := 0; k < size; k++ {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s rung: %w", spanNames[name], err)
			}
		}
		l.buf.endN(s, size)
	}
	return float64(readMallocs()-before) / float64(count), nil
}

// runLadders runs every rung on a live instance whose callers are stopped.
func runLadders(ctx context.Context, in *instance, wl workload, n ladderCounts, buf *spanBuf) (*ladders, error) {
	l := &ladders{ctx: ctx, in: in, wl: wl, n: n, buf: buf, allocs: map[spanName]float64{}}
	buf.setOn(true)
	l.root = buf.begin(spanLadder, noParent, 0)
	defer func() { buf.end(l.root) }()
	for _, step := range []func() error{l.callLadder, l.sendLadder, l.packRungs, l.wireRungs, l.nspRungs, l.ursaRungs} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *ladders) callLadder() error {
	m, spec := l.in.clients[0], l.in.ladder
	dst, err := locate(l.ctx, m, spec.server)
	if err != nil {
		return err
	}
	// The floor: the same bytes echoed over a bare connection of the
	// substrate the clients sit on.
	frame, err := wireAppendFrame(nil, dataHeader(m, dst, 1), spec.envelope)
	if err != nil {
		return err
	}
	echo, err := newRawEcho(l.in.w.nets[l.wl.clientNet], true)
	if err != nil {
		return err
	}
	defer echo.close()
	return l.timed([]rung{
		{spanCoreCall, func(int) error { return call(l.ctx, m, dst, spec.msgType, spec.request, spec.newReply()) }},
		{spanLCMCall, func(int) error { _, err := lcmCall(l.ctx, m, dst, spec.envelope); return err }},
		{spanIPCSRTT, func(int) error { return echo.roundTrip(frame) }},
	}, l.n.calls, 3*callBudget, nil)
}

func (l *ladders) sendLadder() error {
	m, w := l.in.clients[0], l.in.w
	sink, err := w.attach("ladder-sink", sun68k, l.wl.clientNet)
	if err != nil {
		return err
	}
	l.in.serve(sink, func(d *delivery) {
		if d.IsCall() {
			_ = reply(sink, d, "barrier", []byte{})
		}
	})
	dst, err := locate(l.ctx, m, "ladder-sink")
	if err != nil {
		return err
	}
	barrier := func() error { return call(l.ctx, m, dst, "barrier", []byte{}, new([]byte)) }
	if err := barrier(); err != nil { // establishes the circuit
		return err
	}
	body := make([]byte, ladderSendBytes)
	env := envelopeOpaque("data", body)
	lvc, err := establishedLVC(m, dst)
	if err != nil {
		return err
	}
	frame, err := wireAppendFrame(nil, dataHeader(m, dst, 1), env)
	if err != nil {
		return err
	}
	raw, err := newRawEcho(w.nets[l.wl.clientNet], false)
	if err != nil {
		return err
	}
	defer raw.close()
	// Every ladderBurst rounds a barrier drains the sink and the raw
	// connection, so a rung times the sender's path and never a wait for
	// credit, and the sink's inbox never overflows: at most 4 x ladderBurst
	// frames are ever queued there.
	return l.timed([]rung{
		{spanCoreSend, func(int) error { return sendNoCopy(l.ctx, m, dst, "data", body) }},
		{spanLCMSend, func(int) error { return lcmSend(l.ctx, m, dst, env) }},
		{spanIPSend, func(i int) error { return ipSend(l.ctx, m, dst, dataHeader(m, dst, uint32(i)), env) }},
		{spanNDSend, func(i int) error { return ndSend(lvc, dataHeader(m, dst, uint32(i)), env) }},
		{spanIPCSSend, func(int) error { return raw.c.Send(frame) }},
	}, l.n.sends, 0, func() error {
		if err := barrier(); err != nil {
			return err
		}
		return raw.roundTrip(rawBarrier)
	})
}

func (l *ladders) packRungs() error {
	spec := l.in.ladder
	msg, err := spec.encode()
	if err != nil {
		return err
	}
	l.bytes = len(msg)
	if l.allocs[spanPackEncode], err = l.batched(spanPackEncode, l.n.small, packBatch, func() error {
		_, err := spec.encode()
		return err
	}); err != nil {
		return err
	}
	l.allocs[spanPackDecode], err = l.batched(spanPackDecode, l.n.small, packBatch, func() error { return spec.decode(msg) })
	return err
}

func (l *ladders) wireRungs() error {
	m, spec := l.in.clients[0], l.in.ladder
	h := dataHeader(m, m.UAdd(), 7)
	frame, err := wireAppendFrame(nil, h, spec.envelope)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(frame))
	if _, err := l.batched(spanWireAppend, l.n.small, wireBatch, func() error {
		_, err := wireAppendFrame(buf[:0], h, spec.envelope)
		return err
	}); err != nil {
		return err
	}
	if _, err := l.batched(spanWireUnmarshal, l.n.small, wireBatch, func() error {
		_, err := wireUnmarshal(frame)
		return err
	}); err != nil {
		return err
	}
	circuit := uint32(0)
	_, err = l.batched(spanWirePatch, l.n.small, wireBatch, func() error {
		circuit++
		return wirePatchRelay(frame, circuit)
	})
	return err
}

func (l *ladders) nspRungs() error {
	m, spec := l.in.clients[0], l.in.ladder
	cold := []rung{{spanNSPCold, func(int) error { return nspResolve(m, spec.server) }}}
	if err := l.timed(cold, l.n.resolves, 0, nil); err != nil {
		return err
	}
	leased, err := l.in.w.attachLeased("ladder-leased", m.Machine(), l.wl.clientNet)
	if err != nil {
		return err
	}
	if err := nspResolve(leased, spec.server); err != nil { // takes the lease
		return err
	}
	_, err = l.batched(spanNSPLeased, l.n.resolves, packBatch, func() error { return nspResolve(leased, spec.server) })
	return err
}

// ursaRungs times the search server's two kinds of sub-call from a probe
// module beside it on the backbone, and the search itself from the same
// place, so that the search server's self time can be derived.
func (l *ladders) ursaRungs() error {
	u := l.in.ladder.ursa
	if u == nil {
		return nil
	}
	probe, err := l.in.w.attach("ladder-probe", vax, "backbone")
	if err != nil {
		return err
	}
	if err := ursaConverters(probe); err != nil {
		return err
	}
	var dst [3]uadd
	for i, name := range []string{ursaSearchName, ursaIndexName, ursaDocsName} {
		if dst[i], err = locate(l.ctx, probe, name); err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; i < l.n.calls && time.Since(start) < 2*callBudget; i++ {
		q := u.queries[i%len(u.queries)]
		var rep ursaReply
		s := l.buf.begin(spanURSASearch, l.root, int64(i))
		err := call(l.ctx, probe, dst[0], ursaMsgSearch, ursaRequest{Query: q, Limit: ursaLimit}, &rep)
		l.buf.end(s)
		if err != nil {
			return err
		}
		for _, term := range ursaTokenize(q) {
			c := l.buf.begin(spanURSAIndex, s, int64(i))
			n, err := ursaIndexLookup(l.ctx, probe, dst[1], term)
			l.buf.end(c)
			if err != nil || n == 0 {
				return errors.Join(fmt.Errorf("index lookup %q: %d postings", term, n), err)
			}
		}
		for _, h := range rep.Hits {
			c := l.buf.begin(spanURSAFetch, s, int64(i))
			title, err := ursaDocFetch(l.ctx, probe, dst[2], h.DocID)
			l.buf.end(c)
			if err != nil || title != h.Title {
				return errors.Join(fmt.Errorf("fetch of document %d: title %q, want %q", h.DocID, title, h.Title), err)
			}
		}
	}
	return nil
}

// rawEcho is a bare connection of one substrate: the floor under the
// NTCS. The far end echoes one-byte messages (barriers) and, when
// echoFrames is set, everything else too; otherwise it drops frames.
type rawEcho struct {
	ln   interface{ Close() error }
	c    conn
	back chan int // length of each message that came back, -1 once closed
}

var rawBarrier = []byte{0}

func newRawEcho(net network, echoFrames bool) (*rawEcho, error) {
	ln, err := net.Listen("")
	if err != nil {
		return nil, err
	}
	// One message is in flight at a time, plus the terminal -1.
	e := &rawEcho{ln: ln, back: make(chan int, 2)}
	go func() {
		far, err := ln.Accept()
		if err != nil {
			return
		}
		far.Start(func(msg []byte, err error) {
			if err != nil {
				_ = far.Close()
				return
			}
			if echoFrames || len(msg) == 1 {
				_ = far.Send(msg)
			}
		})
	}()
	if e.c, err = net.Dial(ln.Addr()); err != nil {
		_ = ln.Close()
		return nil, err
	}
	e.c.Start(func(msg []byte, err error) {
		if err != nil {
			e.back <- -1
			return
		}
		e.back <- len(msg)
	})
	return e, nil
}

func (e *rawEcho) roundTrip(msg []byte) error {
	if err := e.c.Send(msg); err != nil {
		return err
	}
	if n := <-e.back; n != len(msg) {
		return fmt.Errorf("raw echo returned %d of %d bytes", n, len(msg))
	}
	return nil
}

func (e *rawEcho) close() {
	_ = e.c.Close()
	_ = e.ln.Close()
}
