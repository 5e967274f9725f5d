package core

import (
	"context"

	"ntcs/internal/addr"
	"ntcs/internal/lcm"
	"ntcs/internal/pack"
	"ntcs/internal/trace"
)

// Calls is a set of calls in flight from one goroutine: CallContext split
// into its two halves. Start sends a call and returns at once; Next waits
// for whichever reply arrives first and decodes it. Every reply lands on
// the set's one channel, as net/rpc's Client.Go does with a shared done
// channel, so one goroutine keeps several calls in flight without starting
// a goroutine for each. A Calls belongs to the goroutine that uses it.
type Calls struct {
	m   *Module
	set *lcm.CallSet[callTag]
}

// callTag is what a call in the set carries until its reply is collected.
type callTag struct {
	tag int
	out any
}

// NewCalls makes a set with room for size calls in flight.
func (m *Module) NewCalls(size int) *Calls {
	return &Calls{m: m, set: lcm.NewCallSet[callTag](m.nuc.LCM, size)}
}

// Len reports how many calls are in flight.
func (c *Calls) Len() int { return c.set.Len() }

// Full reports whether Start would refuse for want of room: collect a
// reply with Next first.
func (c *Calls) Full() bool { return c.set.Full() }

// Start sends a call as CallContext does, without waiting for the reply.
// Next decodes the reply into replyOut (which may be nil to discard it)
// and returns tag with it. ctx bounds establishment and any credit wait.
// A call Start fails to send is not in the set.
func (c *Calls) Start(ctx context.Context, tag int, dst addr.UAdd, msgType string, body, replyOut any, opts ...SendOption) (err error) {
	m := c.m
	o := fold(opts)
	span := m.nuc.LCM.NewSpan()
	exit := trace.NopExit
	if m.tracer.On() {
		exit = m.tracer.Enter(trace.LayerALI, "call", msgType+" to "+dst.String(), "app")
		m.tracer.Span(span, trace.LayerALI, "call", msgType)
	}
	defer func() { exit(err) }()
	mode, payload, enc, err := m.prepare(dst, msgType, body)
	if err != nil {
		return err
	}
	err = c.set.Start(ctx, span, dst, mode, o.sendFlags(), payload, callTag{tag: tag, out: replyOut})
	pack.PutEncoder(enc)
	return err
}

// Next waits for whichever call's reply arrives first, decodes it into
// that call's replyOut and returns the call's tag: with a nil error, or
// with the call's error (a *RemoteError, ErrCallTimeout once the module's
// CallTimeout has passed since the call started, or the decode's). When
// ctx ends first, every call in the set is given up and Next returns
// ctx.Err() with tag -1; with no call in flight it returns tag -1 and
// lcm.ErrNoCalls.
func (c *Calls) Next(ctx context.Context) (tag int, err error) {
	t, d, err := c.set.Next(ctx)
	switch {
	case err == nil:
		return t.tag, c.m.decodeReply(d, t.out)
	case err == lcm.ErrNoCalls || err == ctx.Err():
		return -1, err
	}
	return t.tag, err
}

// Abandon gives up every call in flight; their replies are dropped.
func (c *Calls) Abandon() { c.set.Abandon() }
