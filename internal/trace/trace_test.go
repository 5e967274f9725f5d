package trace

import (
	"errors"
	"strings"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	exit := tr.Enter(LayerND, "open", "r", "w")
	exit(nil)
	tr.SetEnabled(true)
	tr.SetFilter(nil)
	tr.Clear()
	if tr.Events() != nil || tr.MaxDepth() != 0 || tr.CountLayer(LayerND) != 0 {
		t.Error("nil tracer must report nothing")
	}
	if tr.Tree() != "" || tr.LayerSequence() != nil || tr.CountOp(LayerND, "open") != 0 {
		t.Error("nil tracer must render nothing")
	}
}

func TestEnterExitDepth(t *testing.T) {
	tr := New("m1")
	tr.SetEnabled(true)
	exitA := tr.Enter(LayerALI, "send", "app send", "app")
	exitB := tr.Enter(LayerLCM, "send", "forwarding", "ali")
	exitC := tr.Enter(LayerND, "open", "no circuit", "lcm")
	exitC(nil)
	exitB(errors.New("boom"))
	exitA(nil)

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	wantDepth := []int{0, 1, 2}
	for i, ev := range evs {
		if ev.Depth != wantDepth[i] {
			t.Errorf("event %d depth = %d, want %d", i, ev.Depth, wantDepth[i])
		}
	}
	if tr.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d, want 3", tr.MaxDepth())
	}
	if evs[1].Err != "boom" {
		t.Errorf("error not recorded: %+v", evs[1])
	}
	if evs[0].Err != "" {
		t.Errorf("spurious error: %+v", evs[0])
	}
}

func TestSequentialCallsShareNoDepth(t *testing.T) {
	tr := New("m1")
	tr.SetEnabled(true)
	exit := tr.Enter(LayerLCM, "send", "", "")
	exit(nil)
	exit = tr.Enter(LayerLCM, "send", "", "")
	exit(nil)
	for i, ev := range tr.Events() {
		if ev.Depth != 0 {
			t.Errorf("event %d depth = %d, want 0", i, ev.Depth)
		}
	}
	if tr.MaxDepth() != 1 {
		t.Errorf("MaxDepth = %d, want 1", tr.MaxDepth())
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	tr := New("m1")
	tr.SetEnabled(false)
	exit := tr.Enter(LayerND, "open", "", "")
	exit(nil)
	if len(tr.Events()) != 0 {
		t.Error("disabled tracer recorded events")
	}
	tr.SetEnabled(true)
	exit = tr.Enter(LayerND, "open", "", "")
	exit(nil)
	if len(tr.Events()) != 1 {
		t.Error("re-enabled tracer should record")
	}
}

func TestSelectiveFilter(t *testing.T) {
	tr := New("m1")
	tr.SetEnabled(true)
	tr.SetFilter(func(l Layer, op string) bool { return l == LayerND })
	tr.Enter(LayerALI, "send", "", "")(nil)
	tr.Enter(LayerND, "open", "", "")(nil)
	tr.Enter(LayerLCM, "send", "", "")(nil)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Layer != LayerND {
		t.Errorf("filter failed: %+v", evs)
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	tr := newTracer("m1", 4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Enter(LayerND, "op", "", "")(nil)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Errorf("ring kept wrong window: seqs %d..%d", evs[0].Seq, evs[3].Seq)
	}
}

func TestCountsAndSequence(t *testing.T) {
	tr := New("m1")
	tr.SetEnabled(true)
	tr.Enter(LayerALI, "send", "", "")(nil)
	tr.Enter(LayerLCM, "send", "", "")(nil)
	tr.Enter(LayerLCM, "recv", "", "")(nil)
	tr.Enter(LayerND, "open", "", "")(nil)
	if got := tr.CountLayer(LayerLCM); got != 2 {
		t.Errorf("CountLayer(LCM) = %d", got)
	}
	if got := tr.CountOp(LayerLCM, "send"); got != 1 {
		t.Errorf("CountOp(LCM, send) = %d", got)
	}
	seq := tr.LayerSequence()
	want := []Layer{LayerALI, LayerLCM, LayerND}
	if len(seq) != len(want) {
		t.Fatalf("LayerSequence = %v", seq)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Errorf("LayerSequence[%d] = %v, want %v", i, seq[i], want[i])
		}
	}
}

func TestTreeRendering(t *testing.T) {
	tr := New("host-a/searcher")
	tr.SetEnabled(true)
	exitA := tr.Enter(LayerALI, "send", "app message", "app")
	exitB := tr.Enter(LayerNSP, "resolve", "first send to name", "ali")
	exitB(errors.New("ns unreachable"))
	exitA(nil)
	tree := tr.Tree()
	for _, want := range []string{"host-a/searcher", "ali.send", "nsp.resolve", "<- ali", "(first send to name)", "!ns unreachable"} {
		if !strings.Contains(tree, want) {
			t.Errorf("Tree missing %q:\n%s", want, tree)
		}
	}
	// Nesting is visible: nsp line indented deeper than ali line.
	lines := strings.Split(tree, "\n")
	var aliIndent, nspIndent int
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		switch {
		case strings.HasPrefix(trimmed, "ali."):
			aliIndent = len(l) - len(trimmed)
		case strings.HasPrefix(trimmed, "nsp."):
			nspIndent = len(l) - len(trimmed)
		}
	}
	if nspIndent <= aliIndent {
		t.Errorf("nsp (%d) should be indented deeper than ali (%d)", nspIndent, aliIndent)
	}
}

func TestClear(t *testing.T) {
	tr := New("m1")
	tr.SetEnabled(true)
	tr.Enter(LayerND, "op", "", "")(nil)
	tr.Clear()
	if len(tr.Events()) != 0 || tr.MaxDepth() != 0 {
		t.Error("Clear did not reset")
	}
}

func TestConcurrentUse(t *testing.T) {
	tr := newTracer("m1", 128)
	tr.SetEnabled(true)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				exit := tr.Enter(LayerLCM, "send", "", "")
				exit(nil)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := len(tr.Events()); got != 128 {
		t.Errorf("ring should be full: %d", got)
	}
}
