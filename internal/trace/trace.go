// Package trace is the debugging aid paper §6.2 calls for but the 1986
// implementation never adequately built: "One must also know *why* a layer
// is being called, and *who* is calling it. However, adequate *selectivity*
// in observing this information is equally important."
//
// Every NTCS layer reports entry and exit to a per-module Tracer with its
// identity, its caller, and the reason for the call. The tracer records a
// bounded ring of events with nesting depth, supports selective filters,
// and can render the recursion tree of a flow — making the §6.1 scenario
// (and the §6.3 pathology) directly observable.
//
// A nil *Tracer is valid and free: every method no-ops, so layers carry a
// tracer unconditionally.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layer identifies which part of the NTCS reported an event.
type Layer string

// The layers of Figures 2-2 and 2-4, plus the DRTS services.
const (
	LayerALI     Layer = "ali"     // application level interface
	LayerNSP     Layer = "nsp"     // naming service protocol
	LayerLCM     Layer = "lcm"     // logical connection maintenance
	LayerIP      Layer = "ip"      // internet protocol layer
	LayerND      Layer = "nd"      // network dependent layer
	LayerGateway Layer = "gateway" // gateway relay
	LayerNS      Layer = "ns"      // name server module
	LayerDRTS    Layer = "drts"    // monitor / time / process control
	LayerApp     Layer = "app"     // the application itself
)

// Event is one recorded layer entry.
type Event struct {
	Seq    int           // global order within the tracer
	Depth  int           // nesting depth at entry (0 = outermost)
	Layer  Layer         // who is being called
	Op     string        // what is being done
	Reason string        // why the layer is being called
	Who    string        // who is calling it
	Err    string        // error at exit, "" on success
	Start  time.Time     // entry time
	Dur    time.Duration // set at exit
}

// SpanEvent is one structured span record: the moment a message carrying
// the given span ID crossed a layer. Span IDs travel in the shift-mode
// header's reserved word, so the events for one ID — collected from the
// tracers of every module the message touched — reconstruct its
// ALI→NSP→LCM→IP→ND path across machines.
type SpanEvent struct {
	Span  uint32    // header span ID (0 is never recorded)
	Layer Layer     // layer the message crossed
	Op    string    // what happened: send, call, relay, recv, reply...
	Note  string    // free-form detail (destination, circuit, error)
	Time  time.Time // when
}

// Tracer records the causal flow through one module's ComMod.
//
// Depth tracking is a simple nesting counter: exact for the synchronous
// single-flow call chains the recursion analysis cares about, approximate
// when multiple goroutines trace concurrently.
type Tracer struct {
	mu       sync.Mutex
	module   string
	enabled  atomic.Bool
	capacity int
	events   []Event
	start    int // ring start index
	count    int
	seq      int
	depth    int
	maxDepth int
	filter   func(Layer, string) bool

	spanMu    sync.Mutex
	spans     []SpanEvent // bounded ring, same capacity as events
	spanStart int
	spanCount int
}

// New creates a tracer for the named module, retaining the newest 4096
// events. Recording starts DISABLED — §6.2 is about *selectivity*, so
// tracing costs nothing until an observer turns it on with
// SetEnabled(true).
func New(module string) *Tracer { return newTracer(module, 4096) }

func newTracer(module string, capacity int) *Tracer {
	return &Tracer{
		module:   module,
		capacity: capacity,
		events:   make([]Event, capacity),
	}
}

// SetEnabled turns recording on or off.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled.Store(on)
}

// On reports whether recording is active; nil-safe and lock-free. Hot
// paths use it to skip building reason/who strings entirely when nobody
// is watching.
func (t *Tracer) On() bool {
	return t != nil && t.enabled.Load()
}

// NopExit is the exit function Enter hands back when recording is off —
// shared, so the disabled path allocates nothing.
var NopExit = func(error) {}

// SetFilter installs a selective filter: only calls for which keep returns
// true are recorded (depth accounting still covers everything, so the
// recursion shape stays truthful).
func (t *Tracer) SetFilter(keep func(layer Layer, op string) bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.filter = keep
}

// Enter records a layer entry and returns the exit function, which must be
// called (usually deferred) with the operation's error.
func (t *Tracer) Enter(layer Layer, op, reason, who string) func(err error) {
	if !t.On() {
		return NopExit
	}
	t.mu.Lock()
	if !t.enabled.Load() {
		t.mu.Unlock()
		return NopExit
	}
	depth := t.depth
	t.depth++
	if t.depth > t.maxDepth {
		t.maxDepth = t.depth
	}
	record := t.filter == nil || t.filter(layer, op)
	var idx = -1
	if record {
		ev := Event{
			Seq:    t.seq,
			Depth:  depth,
			Layer:  layer,
			Op:     op,
			Reason: reason,
			Who:    who,
			Start:  time.Now(),
		}
		idx = t.push(ev)
	}
	t.seq++
	t.mu.Unlock()

	return func(err error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.depth > 0 {
			t.depth--
		}
		if idx >= 0 {
			ev := t.at(idx)
			if ev != nil {
				ev.Dur = time.Since(ev.Start)
				if err != nil {
					ev.Err = err.Error()
				}
			}
		}
	}
}

// Span records a structured span event. Like Enter it is gated on the
// enabled switch, so an untraced module pays one atomic load; span 0
// (an untraced or pre-span frame) is never recorded.
func (t *Tracer) Span(span uint32, layer Layer, op, note string) {
	if span == 0 || !t.On() {
		return
	}
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	ev := SpanEvent{Span: span, Layer: layer, Op: op, Note: note, Time: time.Now()}
	if t.spanCount < t.capacity {
		if t.spans == nil {
			t.spans = make([]SpanEvent, t.capacity)
		}
		t.spans[(t.spanStart+t.spanCount)%t.capacity] = ev
		t.spanCount++
		return
	}
	t.spans[t.spanStart] = ev
	t.spanStart = (t.spanStart + 1) % t.capacity
}

// Spans returns a copy of the recorded span events in order.
func (t *Tracer) Spans() []SpanEvent {
	if t == nil {
		return nil
	}
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	out := make([]SpanEvent, 0, t.spanCount)
	for i := 0; i < t.spanCount; i++ {
		out = append(out, t.spans[(t.spanStart+i)%t.capacity])
	}
	return out
}

// SpansFor returns the recorded events for one span ID, in order.
func (t *Tracer) SpansFor(span uint32) []SpanEvent {
	var out []SpanEvent
	for _, ev := range t.Spans() {
		if ev.Span == span {
			out = append(out, ev)
		}
	}
	return out
}

// push appends to the ring, returning a stable slot index usable with at.
func (t *Tracer) push(ev Event) int {
	if t.count < t.capacity {
		i := (t.start + t.count) % t.capacity
		t.events[i] = ev
		t.count++
		return i
	}
	i := t.start
	t.events[i] = ev
	t.start = (t.start + 1) % t.capacity
	return i
}

// at returns the event in the given ring slot if it is still live.
func (t *Tracer) at(i int) *Event {
	if t.count == 0 {
		return nil
	}
	return &t.events[i]
}

// Events returns a copy of the recorded events in order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.count)
	for i := 0; i < t.count; i++ {
		out = append(out, t.events[(t.start+i)%t.capacity])
	}
	return out
}

// Clear discards recorded events and resets depth statistics.
func (t *Tracer) Clear() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.start, t.count, t.seq, t.maxDepth = 0, 0, 0, 0
	t.mu.Unlock()
	t.spanMu.Lock()
	t.spanStart, t.spanCount = 0, 0
	t.spanMu.Unlock()
}

// MaxDepth reports the deepest nesting observed — the recursion depth of
// the §6.1 scenario.
func (t *Tracer) MaxDepth() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxDepth
}

// CountLayer returns how many recorded calls entered the given layer.
func (t *Tracer) CountLayer(layer Layer) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, ev := range t.Events() {
		if ev.Layer == layer {
			n++
		}
	}
	return n
}

// CountOp returns how many recorded calls match layer and op.
func (t *Tracer) CountOp(layer Layer, op string) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, ev := range t.Events() {
		if ev.Layer == layer && ev.Op == op {
			n++
		}
	}
	return n
}

// Tree renders the recorded flow as an indented call tree: one line per
// event, indented by nesting depth, annotated with who called and why.
func (t *Tracer) Tree() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	t.mu.Lock()
	module := t.module
	t.mu.Unlock()
	fmt.Fprintf(&b, "module %s:\n", module)
	for _, ev := range t.Events() {
		fmt.Fprintf(&b, "%s%s.%s", strings.Repeat("  ", ev.Depth+1), ev.Layer, ev.Op)
		if ev.Who != "" {
			fmt.Fprintf(&b, " <- %s", ev.Who)
		}
		if ev.Reason != "" {
			fmt.Fprintf(&b, " (%s)", ev.Reason)
		}
		if ev.Err != "" {
			fmt.Fprintf(&b, " !%s", ev.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LayerSequence returns the distinct layers entered, in first-entry order —
// the traversal order asserted by the figure tests.
func (t *Tracer) LayerSequence() []Layer {
	if t == nil {
		return nil
	}
	var seq []Layer
	seen := make(map[Layer]bool)
	for _, ev := range t.Events() {
		if !seen[ev.Layer] {
			seen[ev.Layer] = true
			seq = append(seq, ev.Layer)
		}
	}
	return seq
}
