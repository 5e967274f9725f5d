package main

// adapter.go is the only file of the benchmark that imports the program.
// The workloads reach it through the non-deprecated application entry
// points (SendMsg, CallContext, Recv, Reply, LocateContext and the
// sim.World builders); the traced run's ladders additionally call the
// public functions of each layer below the ComMod. Keeping both here means
// an API pruning in the program breaks this one file, at compile time.

import (
	"context"
	"fmt"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/ndlayer"
	"ntcs/internal/pack"
	"ntcs/internal/stats"
	"ntcs/internal/ursa"
	"ntcs/internal/wire"
	"ntcs/sim"
)

type (
	module   = core.Module
	delivery = core.Delivery
	uadd     = addr.UAdd
	host     = sim.Host
	network  = ipcs.Network
	conn     = ipcs.Conn
	mtype    = machine.Type
)

const (
	vax    = machine.VAX
	sun68k = machine.Sun68K
	apollo = machine.Apollo
)

// --- world builders -------------------------------------------------------

// world is one booted topology. Every module is attached with the
// zero-value configuration: only names and networks are set.
type world struct {
	w    *sim.World
	nets map[string]network
}

func newWorld() *world {
	return &world{w: sim.NewWorld(), nets: map[string]network{}}
}

func (w *world) tcpNetwork(id string) { w.nets[id] = w.w.AddTCPNetwork(id) }
func (w *world) memNetwork(id string) { w.nets[id] = w.w.AddNetwork(id, memnet.Options{}) }

func (w *world) host(name string, m mtype, nets ...string) (*host, error) {
	return w.w.AddHost(name, m, nets...)
}

// nameServer boots the single name server on its own Apollo host.
func (w *world) nameServer(net string) error {
	h, err := w.host("ns-host", apollo, net)
	if err != nil {
		return err
	}
	_, err = w.w.StartNameServer(h, "ns")
	return err
}

// gateway boots the prime gateway joining the two networks.
func (w *world) gateway(netA, netB string) error {
	h, err := w.host("gw-host", apollo, netA, netB)
	if err != nil {
		return err
	}
	_, err = w.w.StartGateway(h, "gw")
	return err
}

// attach binds an application module on a host of its own.
func (w *world) attach(name string, m mtype, net string) (*module, error) {
	h, err := w.host(name+"-host", m, net)
	if err != nil {
		return nil, err
	}
	return w.w.Attach(h, name, nil)
}

// attachLeased is attach with the NSP record lease on: the one non-zero
// setting the benchmark uses, and only for the nsp.resolve_leased_us
// ladder rung, never in a measured window.
func (w *world) attachLeased(name string, m mtype, net string) (*module, error) {
	h, err := w.host(name+"-host", m, net)
	if err != nil {
		return nil, err
	}
	return w.w.AttachConfig(h, core.Config{Name: name, ResolveTTL: time.Hour})
}

func (w *world) close() { w.w.Close() }

// counters is the world-wide sum of every per-module counter. The plan
// cache and the dispatch pool are process-global and every module's
// registry mirrors them, so the sum would count them once per module; they
// are set to their one true value.
func (w *world) counters() map[string]uint64 {
	c := w.w.StatsTotals().Counters
	c[stats.PackCompiles], c[stats.PackPlanHits] = pack.Compiles(), pack.PlanHits()
	c[stats.IPCSPollerWakeups], c[stats.IPCSPollerDispatches] = ipcs.PollerWakeups(), ipcs.PollerDispatches()
	c[stats.IPCSPollerPolls], c[stats.IPCSPollerFullBatches] = ipcs.PollerPolls(), ipcs.PollerFullBatches()
	return c
}

// --- application entry points --------------------------------------------

func locate(ctx context.Context, m *module, name string) (uadd, error) {
	return m.LocateContext(ctx, name)
}

func call(ctx context.Context, m *module, dst uadd, msgType string, body, out any) error {
	return m.CallContext(ctx, dst, msgType, body, out)
}

func sendNoCopy(ctx context.Context, m *module, dst uadd, msgType string, body []byte) error {
	return m.SendMsg(ctx, dst, msgType, body, core.WithNoCopy)
}

func recv(m *module) (*delivery, error) { return m.Recv(time.Hour) }

func reply(m *module, d *delivery, msgType string, body any) error {
	return m.Reply(d, msgType, body)
}

func replyError(m *module, d *delivery, msg string) error { return m.ReplyError(d, msg) }

// --- URSA -----------------------------------------------------------------

type (
	ursaDocument = ursa.Document
	ursaRequest  = ursa.SearchRequest
	ursaReply    = ursa.SearchReply
)

const (
	ursaSearchName = ursa.SearchServerName
	ursaIndexName  = ursa.IndexServerName
	ursaDocsName   = ursa.DocServerName
	ursaMsgSearch  = ursa.MsgSearch
)

func ursaCorpus(n int, seed int64) []ursaDocument { return ursa.GenerateCorpus(n, seed) }
func ursaQueries(n int, seed int64) []string      { return ursa.Queries(n, seed) }
func ursaTokenize(q string) []string              { return ursa.Tokenize(q) }

// ursaDeploy starts index, docs and search on one VAX host.
func (w *world) ursaDeploy(net string) error {
	h, err := w.host("ursa-host", vax, net)
	if err != nil {
		return err
	}
	_, err = ursa.Deploy(w.w, h, h, h)
	return err
}

func ursaConverters(m *module) error { return ursa.RegisterGeneratedConverters(m) }

// ursaIngest loads the corpus into one backend and checks the count.
func ursaIngest(ctx context.Context, m *module, dst uadd, docs []ursaDocument) error {
	var ack ursa.IngestReply
	if err := call(ctx, m, dst, ursa.MsgIngest, ursa.IngestRequest{Docs: docs}, &ack); err != nil {
		return err
	}
	if ack.Count != int64(len(docs)) {
		return fmt.Errorf("ingested %d of %d documents", ack.Count, len(docs))
	}
	return nil
}

// ursaIndexLookup and ursaDocFetch are the search server's two sub-calls,
// issued by the client directly for the ursa.* ladder rungs.
func ursaIndexLookup(ctx context.Context, m *module, dst uadd, term string) (int, error) {
	var rep ursa.IndexLookupReply
	err := call(ctx, m, dst, ursa.MsgIndexLookup, ursa.IndexLookupRequest{Term: term}, &rep)
	return len(rep.Postings), err
}

func ursaDocFetch(ctx context.Context, m *module, dst uadd, id int64) (string, error) {
	var doc ursa.Document
	err := call(ctx, m, dst, ursa.MsgFetch, ursa.FetchRequest{DocID: id}, &doc)
	return doc.Title, err
}

func ursaPackRequest(r *ursaRequest) []byte { return ursa.MarshalSearchRequest(r) }
func ursaPackReply(r *ursaReply) []byte     { return ursa.MarshalSearchReply(r) }
func ursaUnpackReply(b []byte, r *ursaReply) error {
	return ursa.UnmarshalSearchReply(b, r)
}

// --- layer access for the traced run ---------------------------------------

func setHistograms(m *module, on bool) { m.Stats().SetHistograms(on) }

type histView = stats.HistogramView

// callHistogram is the module's cumulative lcm.call_latency histogram.
func callHistogram(m *module) histView {
	return m.Stats().Snapshot().Histograms[stats.LCMCallLatency]
}

// histCombine adds (sign +1) or subtracts (sign -1) b's counts to a's.
func histCombine(a, b histView, sign int64) histView {
	out := histView{Count: a.Count + uint64(sign)*b.Count, SumNanos: a.SumNanos + sign*b.SumNanos}
	out.Buckets = make([]uint64, max(len(a.Buckets), len(b.Buckets)))
	copy(out.Buckets, a.Buckets)
	for i, n := range b.Buckets {
		out.Buckets[i] += uint64(sign) * n
	}
	return out
}

func histDelta(now, before histView) histView { return histCombine(now, before, -1) }
func histSum(a, b histView) histView          { return histCombine(a, b, +1) }

// envelopeOpaque and envelopePacked build the ComMod's typed payload
// (message type, then body) so the rungs below the ComMod carry frames the
// receiving module can open.
func envelopeOpaque(msgType string, body []byte) []byte {
	e := pack.GetEncoder()
	defer pack.PutEncoder(e)
	e.String(msgType)
	e.NestedBytesField(body)
	return append([]byte(nil), e.Bytes()...)
}

func envelopePacked(msgType string, packed []byte) []byte {
	e := pack.GetEncoder()
	defer pack.PutEncoder(e)
	e.String(msgType)
	e.BytesField(packed)
	return append([]byte(nil), e.Bytes()...)
}

func packMarshal(v any) ([]byte, error)     { return pack.Marshal(v) }
func packUnmarshal(b []byte, out any) error { return pack.Unmarshal(b, out) }

// lcmCall is the LCM rung of the call ladder: the synchronous call with a
// pre-encoded payload, so encode, envelope and decode are left out.
func lcmCall(ctx context.Context, m *module, dst uadd, payload []byte) (int, error) {
	d, err := m.Nucleus().LCM.CallContext(ctx, dst, wire.ModePacked, 0, payload)
	if err != nil {
		return 0, err
	}
	return len(d.Payload), nil
}

func lcmSend(ctx context.Context, m *module, dst uadd, payload []byte) error {
	return m.Nucleus().LCM.SendContext(ctx, dst, wire.ModePacked, 0, payload)
}

// dataHeader is the header the LCM would build for a one-way message.
func dataHeader(m *module, dst uadd, seq uint32) wire.Header {
	return wire.Header{
		Type: wire.TData, Src: m.UAdd(), Dst: dst,
		SrcMachine: m.Machine(), Mode: wire.ModePacked, Seq: seq,
	}
}

func ipSend(ctx context.Context, m *module, dst uadd, h wire.Header, payload []byte) error {
	return m.Nucleus().IP.SendContext(ctx, dst, h, payload)
}

// establishedLVC is the circuit m already holds straight to dst.
func establishedLVC(m *module, dst uadd) (*ndlayer.LVC, error) {
	for _, b := range m.Nucleus().Bindings {
		if v, ok := b.Lookup(dst); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("no established circuit from %s to %v", m.Name(), dst)
}

func ndSend(v *ndlayer.LVC, h wire.Header, payload []byte) error { return v.Send(h, payload) }

// wire rungs.
func wireAppendFrame(dst []byte, h wire.Header, payload []byte) ([]byte, error) {
	return wire.AppendFrame(dst, h, payload)
}

func wireUnmarshal(frame []byte) (int, error) {
	_, p, err := wire.Unmarshal(frame)
	return len(p), err
}

func wirePatchRelay(frame []byte, circuit uint32) error { return wire.PatchRelay(frame, circuit) }

// nspResolve is one naming-service resolution through the module's NSP layer.
func nspResolve(m *module, name string) error {
	_, err := m.NSP().ResolveRecord(name)
	return err
}

// Counter names read from world totals, as the stats package declares them.
const (
	ctrLCMCalls      = stats.LCMCalls
	ctrLCMSends      = stats.LCMSends
	ctrLCMRetries    = stats.LCMRetries
	ctrLCMDestHits   = stats.LCMDestHits
	ctrLCMDestMisses = stats.LCMDestMisses
	ctrIPRelays      = stats.IPRelays
	ctrIPCutThrough  = stats.IPCutThrough
	ctrNDFramesOut   = stats.NDFramesOut
	ctrNDBytesOut    = stats.NDBytesOut
	ctrNDBatches     = stats.NDBatches
	ctrNDPerBatch    = stats.NDFramesPerBatch
	ctrNDWaits       = stats.NDBackpressureWaits
	ctrNDNacks       = stats.NDNacks
	ctrNSPQueries    = stats.NSPQueries
	ctrNSPCacheHits  = stats.NSPCacheHits
	ctrNSPCacheMiss  = stats.NSPCacheMisses
	ctrNSOps         = stats.NSOps
	ctrPackCompiles  = stats.PackCompiles
	ctrPackPlanHits  = stats.PackPlanHits
	ctrPollWakeups   = stats.IPCSPollerWakeups
	ctrPollDispatch  = stats.IPCSPollerDispatches
	ctrPollPolls     = stats.IPCSPollerPolls
	ctrPollFull      = stats.IPCSPollerFullBatches
)
