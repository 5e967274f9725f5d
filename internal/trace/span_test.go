package trace

import (
	"errors"
	"testing"
)

func TestSpanEventsRecorded(t *testing.T) {
	tr := newTracer("m", 16)
	tr.SetEnabled(true)
	tr.Span(7, LayerALI, "send", "q")
	tr.Span(7, LayerLCM, "send", "u1")
	tr.Span(9, LayerLCM, "recv", "u2")
	tr.Span(0, LayerND, "frame-in", "never") // span 0 is never recorded

	all := tr.Spans()
	if len(all) != 3 {
		t.Fatalf("recorded %d span events, want 3: %+v", len(all), all)
	}
	got := tr.SpansFor(7)
	if len(got) != 2 || got[0].Layer != LayerALI || got[1].Layer != LayerLCM {
		t.Errorf("SpansFor(7) = %+v", got)
	}
	tr.Clear()
	if len(tr.Spans()) != 0 {
		t.Error("Clear left span events behind")
	}
}

func TestSpanDisabledAndNil(t *testing.T) {
	var nilT *Tracer
	nilT.Span(1, LayerALI, "send", "x") // must not panic
	if nilT.Spans() != nil || nilT.SpansFor(1) != nil {
		t.Error("nil tracer returned spans")
	}
	tr := newTracer("m", 4)
	tr.Span(1, LayerALI, "send", "x") // disabled: dropped
	if len(tr.Spans()) != 0 {
		t.Error("disabled tracer recorded a span event")
	}
}

func TestSpanRingOverflow(t *testing.T) {
	tr := newTracer("m", 4)
	tr.SetEnabled(true)
	for i := uint32(1); i <= 6; i++ {
		tr.Span(i, LayerLCM, "send", "")
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	if got[0].Span != 3 || got[3].Span != 6 {
		t.Errorf("ring kept %d..%d, want 3..6", got[0].Span, got[3].Span)
	}
}

// TestExitSurvivesPanic is the regression test for the panic-safety fix:
// every layer now calls its exit function from a defer, so an op that
// panics (and is recovered above, as the nameserver's per-request
// goroutines and the chaos harness do) still unwinds the tracer's depth
// accounting instead of leaving the tree permanently indented.
func TestExitSurvivesPanic(t *testing.T) {
	tr := newTracer("m", 16)
	tr.SetEnabled(true)

	op := func() (err error) {
		exit := tr.Enter(LayerLCM, "send", "about to blow", "test")
		defer func() { exit(err) }()
		panic("kaboom")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("op did not panic")
			}
		}()
		_ = op()
	}()

	// The deferred exit must have run: depth is back to zero, so a
	// subsequent call is recorded at the outermost level.
	exit := tr.Enter(LayerALI, "send", "after the panic", "test")
	exit(errors.New("x"))
	evs := tr.Events()
	last := evs[len(evs)-1]
	if last.Depth != 0 {
		t.Errorf("depth after recovered panic = %d, want 0 (events: %+v)", last.Depth, evs)
	}
	if tr.MaxDepth() != 1 {
		t.Errorf("maxDepth = %d, want 1", tr.MaxDepth())
	}
}
