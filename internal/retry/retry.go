// Package retry provides the Nucleus-wide retry discipline: bounded,
// jittered exponential backoff with per-layer budgets, interruptible by
// a context or a layer's close signal.
//
// The 1986 NTCS retried with fixed, uninterruptible delays ("retry on
// open", §2.2) — adequate on an idle Apollo ring, pathological under
// load: synchronized retries stampede a recovering module, and a closing
// Nucleus blocks behind the full retry budget. Every failure path in
// this reproduction retries through a Policy instead: delays grow
// exponentially, full jitter decorrelates concurrent retriers, a total
// time budget bounds how long a caller can be held, and every wait
// selects on cancellation.
//
// The package also owns the pooled timeout timers shared by the warm
// paths (LCM call/recv, IP open, ND handshake), so no timeout wait
// allocates a timer under churn.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"ntcs/internal/stats"
)

// Errors reported by a Backoff.
var (
	// ErrBudgetExhausted means the policy's total time budget ran out
	// before the operation succeeded.
	ErrBudgetExhausted = errors.New("retry: time budget exhausted")
	// ErrStopped means the stop channel closed mid-wait (the owning
	// layer is shutting down).
	ErrStopped = errors.New("retry: stopped")
)

// Policy describes one layer's retry discipline. The zero value performs
// a single attempt with no waiting.
type Policy struct {
	// Attempts bounds how many times the operation runs; <= 0 means 1.
	Attempts int
	// BaseDelay is the wait before the second attempt; later waits grow
	// by Multiplier. Zero means no wait between attempts.
	BaseDelay time.Duration
	// MaxDelay caps each individual wait; 0 = uncapped.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor; values <= 1 select
	// the default of 2.
	Multiplier float64
	// Jitter spreads each wait uniformly over [d·(1−J), d·(1+J)] to
	// decorrelate concurrent retriers; 0 = deterministic delays.
	// Values outside [0, 1] are clamped.
	Jitter float64
	// Budget bounds the total elapsed time of the whole sequence
	// (attempts plus waits); 0 = unlimited.
	Budget time.Duration
	// Rand overrides the jitter source with a function returning a
	// value in [0, 1); nil selects the package's seeded source. Tests
	// use it for deterministic jitter.
	Rand func() float64

	// Retries and GiveUps, when set, meter the budget: Retries counts
	// every granted attempt after the first, GiveUps every Do sequence
	// that ended without success. Pure instruments — they never change
	// retry behavior.
	Retries *stats.Counter
	GiveUps *stats.Counter
}

// jitterMu guards the package-level jitter source: retries are cold
// paths, so one lock is cheaper than per-policy RNG state.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func defaultRand() float64 {
	jitterMu.Lock()
	f := jitterRng.Float64()
	jitterMu.Unlock()
	return f
}

// attempts normalizes the attempt bound.
func (p Policy) attempts() int {
	if p.Attempts <= 0 {
		return 1
	}
	return p.Attempts
}

// BaseDelayFor returns the pre-jitter wait after the given 0-based
// attempt: BaseDelay·Multiplier^attempt, capped at MaxDelay.
func (p Policy) BaseDelayFor(attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// jittered applies the jitter band to a base delay.
func (p Policy) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	j := p.Jitter
	if j <= 0 {
		return d
	}
	if j > 1 {
		j = 1
	}
	r := p.Rand
	if r == nil {
		r = defaultRand
	}
	// Uniform over [d·(1−j), d·(1+j)].
	f := 1 - j + 2*j*r()
	return time.Duration(float64(d) * f)
}

// Backoff is one in-progress retry sequence.
type Backoff struct {
	p       Policy
	attempt int
	started time.Time
	err     error
}

// Start begins a retry sequence; the budget clock starts now.
func (p Policy) Start() *Backoff {
	return &Backoff{p: p, started: time.Now()}
}

// Attempt reports how many attempts have been granted so far.
func (b *Backoff) Attempt() int { return b.attempt }

// Err reports why Next returned false: nil when attempts simply ran
// out, ErrBudgetExhausted, ErrStopped, or the context's error.
func (b *Backoff) Err() error { return b.err }

// Next reports whether the caller may run another attempt, first
// sleeping the jittered backoff delay (no sleep before the first
// attempt). The wait is interruptible: ctx cancellation or a close of
// stop ends the sequence immediately. Either channel may be nil.
func (b *Backoff) Next(ctx context.Context, stop <-chan struct{}) bool {
	if b.err != nil {
		return false
	}
	if b.attempt >= b.p.attempts() {
		return false
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			b.err = err
			return false
		}
	}
	if b.attempt > 0 {
		d := b.p.jittered(b.p.BaseDelayFor(b.attempt - 1))
		if b.p.Budget > 0 {
			remaining := b.p.Budget - time.Since(b.started)
			if remaining <= 0 || d > remaining {
				b.err = ErrBudgetExhausted
				return false
			}
		}
		if err := Wait(ctx, stop, d); err != nil {
			b.err = err
			return false
		}
	} else if b.p.Budget > 0 && time.Since(b.started) >= b.p.Budget {
		b.err = ErrBudgetExhausted
		return false
	}
	b.attempt++
	if b.attempt > 1 {
		b.p.Retries.Inc()
	}
	return true
}

// Do runs op under the policy: it retries failed attempts with backoff
// until op succeeds, attempts or budget run out, ctx is canceled, or
// stop closes. It returns nil on success; the last op error when the
// policy is exhausted; and the interruption error (ctx.Err, ErrStopped,
// ErrBudgetExhausted) when the sequence was cut short before op could
// be retried — wrapped around the last op error, if any, so fault
// classification still sees the underlying cause.
func (p Policy) Do(ctx context.Context, stop <-chan struct{}, op func() error) error {
	b := p.Start()
	var lastErr error
	for b.Next(ctx, stop) {
		lastErr = op()
		if lastErr == nil {
			return nil
		}
	}
	if berr := b.Err(); berr != nil {
		p.GiveUps.Inc()
		if lastErr != nil {
			return &interruptError{cause: lastErr, interrupt: berr}
		}
		return berr
	}
	if lastErr != nil {
		p.GiveUps.Inc()
	}
	return lastErr
}

// interruptError marks a retry sequence cut short mid-recovery: the
// interruption (ctx error, ErrStopped, ErrBudgetExhausted) and the last
// operation error are both visible to errors.Is/As.
type interruptError struct {
	cause     error
	interrupt error
}

func (e *interruptError) Error() string {
	return e.interrupt.Error() + ": " + e.cause.Error()
}

func (e *interruptError) Unwrap() []error { return []error{e.interrupt, e.cause} }

// Wait sleeps d, interruptible by ctx or stop (either may be nil). A
// non-positive d returns immediately (after a cancellation check). The
// timer comes from the shared pool, so waits allocate nothing.
func Wait(ctx context.Context, stop <-chan struct{}, d time.Duration) error {
	var ctxDone <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		ctxDone = ctx.Done()
	}
	select {
	case <-stop:
		return ErrStopped
	default:
	}
	if d <= 0 {
		return nil
	}
	t := GetTimer(d)
	defer PutTimer(t)
	select {
	case <-t.C:
		return nil
	case <-ctxDone:
		return ctx.Err()
	case <-stop:
		return ErrStopped
	}
}

// timerPool recycles timeout timers across the Nucleus: call waits,
// open handshakes, ping probes. Requires the go1.23+ timer semantics
// (Reset/Stop without draining).
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// GetTimer returns a pooled timer armed for d.
func GetTimer(d time.Duration) *time.Timer {
	t := timerPool.Get().(*time.Timer)
	t.Reset(d)
	return t
}

// PutTimer stops a timer and returns it to the pool.
func PutTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}
