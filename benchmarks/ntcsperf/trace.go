package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// The traced run records spans around the harness's own calls into each
// layer. The program's tracer stays off: spans inside the program are a
// later change. Spans live in memory and are written out when the run ends.

type spanName uint8

const (
	spanOp spanName = iota
	spanCoreCall
	spanCoreSend
	spanLCMCall
	spanLCMSend
	spanIPSend
	spanNDSend
	spanIPCSSend
	spanIPCSRTT
	spanPackEncode
	spanPackDecode
	spanWireAppend
	spanWireUnmarshal
	spanWirePatch
	spanNSPCold
	spanNSPLeased
	spanURSAIndex
	spanURSAFetch
	spanURSASearch
	spanLadder
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "core.call", "core.send", "lcm.call", "lcm.send", "iplayer.send",
	"ndlayer.send", "ipcs.send", "ipcs.rtt", "pack.encode", "pack.decode",
	"wire.append_frame", "wire.unmarshal", "wire.patch_relay",
	"nsp.resolve_cold", "nsp.resolve_leased",
	"ursa.index_lookup", "ursa.doc_fetch", "ursa.search_direct", "ladder",
}

const noParent = int32(-1)

// span is one recorded interval. N is how many calls it covers: rungs that
// take well under a microsecond are timed in batches, because two clock
// reads would cost more than the call.
type span struct {
	Name   spanName
	Parent int32 // index into the same buffer, or noParent
	N      int32
	Op     int64
	Start  int64 // ns since the process started
	End    int64
}

var processStart = time.Now()

func sinceStart() int64 { return int64(time.Since(processStart)) }

// maxSpans bounds one buffer; spans past it are counted, not kept.
const maxSpans = 1 << 20

// spanBuf is one goroutine's span store. A nil *spanBuf records nothing,
// so the untraced run pays one nil check per call site.
type spanBuf struct {
	caller  int
	on      atomic.Bool
	spans   []span
	dropped int64
}

// newSpanBuf sizes the buffer for the busiest segment there is: a second
// of stream_burst_tcp is about 60 000 spans per caller.
func newSpanBuf(caller int) *spanBuf {
	return &spanBuf{caller: caller, spans: make([]span, 0, 1<<17)}
}

func (b *spanBuf) setOn(on bool) {
	if b != nil {
		b.on.Store(on)
	}
}

// begin opens a span and returns its index, or noParent when not recording.
func (b *spanBuf) begin(name spanName, parent int32, op int64) int32 {
	if b == nil || !b.on.Load() {
		return noParent
	}
	if len(b.spans) >= maxSpans {
		b.dropped++
		return noParent
	}
	b.spans = append(b.spans, span{Name: name, Parent: parent, N: 1, Op: op, Start: sinceStart()})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if i != noParent {
		b.spans[i].End = sinceStart()
	}
}

// endN closes a span that covered n calls.
func (b *spanBuf) endN(i int32, n int) {
	if i != noParent {
		b.spans[i].End = sinceStart()
		b.spans[i].N = int32(n)
	}
}

// tracer is what an iteration gets: the buffer plus the op span to hang
// child spans under.
type tracer struct {
	b      *spanBuf
	parent int32
}

func (b *spanBuf) under(parent int32) tracer { return tracer{b: b, parent: parent} }

func (t tracer) begin(name spanName) int32 {
	if t.parent == noParent {
		return noParent
	}
	return t.b.begin(name, t.parent, t.b.spans[t.parent].Op)
}

func (t tracer) end(i int32) { t.b.end(i) }

// perCallNS returns each span's duration per covered call, in ns, for one
// name, in recording order.
func perCallNS(spans []span, name spanName) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End > 0 && s.N > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.N))
		}
	}
	return out
}

// selfNS is a span's duration minus the part its children cover. Children
// of one parent are recorded on one goroutine and never overlap.
func selfNS(spans []span) map[spanName][]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent != noParent && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[spanName][]float64{}
	for i, s := range spans {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i]))
		}
	}
	return out
}

// spanFile is what the traced run writes to benchmarks/out/.
type spanFile struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Names    []string        `json:"names"`
	Summary  []spanSummary   `json:"summary"`
	Dropped  int64           `json:"dropped"`
	Kept     string          `json:"kept"`
	Spans    []spanFileEntry `json:"spans"`
}

type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MedianNS float64 `json:"median_ns"`
	SelfNS   float64 `json:"median_self_ns"`
}

type spanFileEntry struct {
	Caller int    `json:"caller"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	N      int32  `json:"n"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spansKeptPerName bounds the span file: it keeps the first spans of every
// name per buffer and summarises all of them.
const spansKeptPerName = 200

// spanDigest is what is kept of the span buffers: the entries the file
// will hold and every span's duration and self time by name. A segment's
// buffers are digested and dropped as soon as the segment ends, so a traced
// run does not carry a million spans through the segments that follow.
type spanDigest struct {
	entries []spanFileEntry
	durs    [numSpanNames][]float64
	selfs   [numSpanNames][]float64
	dropped int64
}

func (d *spanDigest) absorb(b *spanBuf) {
	d.dropped += b.dropped
	for n, v := range selfNS(b.spans) {
		d.selfs[n] = append(d.selfs[n], v...)
	}
	var kept [numSpanNames]int
	for i, s := range b.spans {
		if s.End == 0 {
			continue
		}
		d.durs[s.Name] = append(d.durs[s.Name], float64(s.End-s.Start))
		if kept[s.Name] < spansKeptPerName {
			kept[s.Name]++
			d.entries = append(d.entries, spanFileEntry{Caller: b.caller, ID: int32(i), Parent: s.Parent,
				Name: spanNames[s.Name], Op: s.Op, N: s.N, Start: s.Start, End: s.End})
		}
	}
}

func (d *spanDigest) write(path, workload string, seed int64) error {
	f := spanFile{Workload: workload, Seed: seed, Names: spanNames[:], Dropped: d.dropped, Spans: d.entries,
		Kept: "first 200 spans of each name per buffer; the summary covers every span"}
	for n := spanName(0); n < numSpanNames; n++ {
		if len(d.durs[n]) > 0 {
			f.Summary = append(f.Summary, spanSummary{Name: spanNames[n], Count: len(d.durs[n]),
				MedianNS: median(d.durs[n]), SelfNS: median(d.selfs[n])})
		}
	}
	sort.Slice(f.Summary, func(i, j int) bool { return f.Summary[i].Name < f.Summary[j].Name })
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
