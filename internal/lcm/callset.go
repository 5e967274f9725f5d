package lcm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/wire"
)

// ErrCallSetFull is Start's refusal when the set already holds as many
// calls as it was made for: collect one with Next first.
var ErrCallSetFull = errors.New("lcm: call set full")

// ErrNoCalls is Next's answer when the set holds no call.
var ErrNoCalls = errors.New("lcm: no call in flight")

// A CallSet is a set of calls in flight from one goroutine: the call split
// into its two halves. Start registers a call and sends it, and returns at
// once; Next waits for whichever reply lands first. All replies land on the
// set's one channel, as net/rpc's Client.Go does with a shared done
// channel, so one goroutine keeps several calls in flight without a
// goroutine per call. Each call carries a tag the caller chooses, handed
// back with its reply. A CallSet belongs to one goroutine.
type CallSet[T any] struct {
	l       *Layer
	w       callWaiter
	pending []pendingCall[T] // in start order: the first is the oldest
}

type pendingCall[T any] struct {
	seq   uint32
	dst   addr.UAdd
	start time.Time
	tag   T
}

// NewCallSet makes a set on l with room for size calls in flight.
func NewCallSet[T any](l *Layer, size int) *CallSet[T] {
	size = max(size, 1)
	return &CallSet[T]{
		l:       l,
		w:       callWaiter{ch: make(chan Delivery, size)},
		pending: make([]pendingCall[T], 0, size),
	}
}

// Len reports how many calls are in flight.
func (s *CallSet[T]) Len() int { return len(s.pending) }

// Full reports whether Start would refuse: the set's channel has no room
// for another reply.
func (s *CallSet[T]) Full() bool { return len(s.pending)+s.w.owed >= cap(s.w.ch) }

// Start sends a call, as CallSpan does, without waiting for the reply: Next
// returns it, with tag. A call that could not be sent is not in the set.
func (s *CallSet[T]) Start(ctx context.Context, span uint32, dst addr.UAdd, mode wire.Mode, flags uint16, payload []byte, tag T) error {
	if s.Full() {
		return ErrCallSetFull
	}
	start := time.Now()
	seq, err := s.l.start(ctx, span, dst, mode, flags, payload, &s.w)
	if err != nil {
		s.settle()
		return err
	}
	s.pending = append(s.pending, pendingCall[T]{seq: seq, dst: dst, start: start, tag: tag})
	return nil
}

// Next waits for whichever call's reply lands first, takes that call out of
// the set and returns its tag with the reply. A reply the callee sent as an
// error returns a *RemoteError. A call still unanswered CallTimeout after
// it started is given up: Next returns its tag with ErrCallTimeout. When
// ctx ends, every call in the set is given up and Next returns ctx.Err()
// with the zero tag; with no call in the set it returns ErrNoCalls.
func (s *CallSet[T]) Next(ctx context.Context) (tag T, d Delivery, err error) {
	for len(s.pending) > 0 {
		select {
		case d = <-s.w.ch:
		default:
			d, err = await(ctx, &s.w, time.Until(s.pending[0].start.Add(s.l.cfg.CallTimeout)))
		}
		switch {
		case err == ErrCallTimeout:
			p := s.take(0)
			s.l.abandonWaiter(p.seq, &s.w)
			s.settle()
			return p.tag, Delivery{}, fmt.Errorf("%w: %v seq %d", ErrCallTimeout, p.dst, p.seq)
		case err != nil:
			s.Abandon()
			return tag, Delivery{}, err
		}
		i := s.index(d.Header.Seq)
		if i < 0 {
			// The reply to a call given up earlier, claimed by its
			// deliverer before the caller could withdraw it.
			s.w.owed--
			continue
		}
		p := s.take(i)
		if s.l.hCall.Enabled() {
			s.l.hCall.Observe(time.Since(p.start))
		}
		s.settle()
		d, err = result(d)
		return p.tag, d, err
	}
	return tag, Delivery{}, ErrNoCalls
}

// Abandon gives up every call in the set. When it returns, the set is
// empty and its channel clear.
func (s *CallSet[T]) Abandon() {
	for _, p := range s.pending {
		s.l.abandonWaiter(p.seq, &s.w)
	}
	clear(s.pending)
	s.pending = s.pending[:0]
	s.settle()
}

// index returns the position of the pending call seq, or -1.
func (s *CallSet[T]) index(seq uint32) int {
	for i := range s.pending {
		if s.pending[i].seq == seq {
			return i
		}
	}
	return -1
}

// take removes and returns pending call i.
func (s *CallSet[T]) take(i int) pendingCall[T] {
	p := s.pending[i]
	s.pending = slices.Delete(s.pending, i, i+1)
	return p
}

// settle clears the channel of owed replies once no call is in flight, so
// that a set at rest holds nothing. With no call in flight everything on
// the channel is owed, and an owed reply not yet there is one whose
// deliverer has claimed it and is sending it into room it is sure to find:
// the wait is short and bounded.
func (s *CallSet[T]) settle() {
	if len(s.pending) > 0 {
		return
	}
	for ; s.w.owed > 0; s.w.owed-- {
		<-s.w.ch
	}
}
