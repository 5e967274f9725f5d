package main

import (
	"runtime"
	"time"
)

// layerSnapshot is what the traced run reads at a segment's edge: the
// program's public counters, the callers' lcm.call_latency histograms and
// the runtime's GC figures.
type layerSnapshot struct {
	at       time.Time
	counters map[string]uint64
	mem      runtime.MemStats
	hist     [callers]histView
}

func snapshotLayers(in *instance) layerSnapshot {
	s := layerSnapshot{at: time.Now(), counters: in.w.counters()}
	for c, m := range in.clients {
		s.hist[c] = callHistogram(m)
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// layerTotals sums the deltas of every traced-run segment.
type layerTotals struct {
	secs         float64
	counters     map[string]float64
	gcCycles     float64
	gcPauseNS    float64
	calls        histView
	bootCounters map[string]uint64 // a world's counters right after its boot
}

func (t *layerTotals) add(from, to layerSnapshot, bootCounters map[string]uint64) {
	if t.counters == nil {
		t.counters, t.bootCounters = map[string]float64{}, bootCounters
	}
	t.secs += to.at.Sub(from.at).Seconds()
	for name, v := range to.counters {
		t.counters[name] += float64(v - from.counters[name])
	}
	t.gcCycles += float64(to.mem.NumGC - from.mem.NumGC)
	t.gcPauseNS += float64(to.mem.PauseTotalNs - from.mem.PauseTotalNs)
	for c := range to.hist {
		t.calls = histSum(t.calls, histDelta(to.hist[c], from.hist[c]))
	}
}

// ratio is a/b, and 0 when nothing happened to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type layerInputs struct {
	wl          workload
	rec         *record
	stats       []segmentStats
	totals      *layerTotals
	ladders     *ladders
	ladderSpans []span
	firstBootS  float64
	ops         int64
	windowP99US float64
}

// layerValues computes every per-layer metric of one traced run.
func layerValues(li layerInputs) map[string]float64 {
	v := map[string]float64{}
	lt, ops := li.totals, float64(li.ops)
	delta := func(name string) float64 { return lt.counters[name] }

	// Ladder rungs: the median over the rung's calls.
	rung := func(name spanName) float64 { return median(perCallNS(li.ladderSpans, name)) }
	us := func(name spanName) float64 { return rung(name) / 1e3 }
	v["core.call_us"], v["lcm.call_us"], v["ipcs.rtt_us"] = us(spanCoreCall), us(spanLCMCall), us(spanIPCSRTT)
	v["core.send_us"], v["lcm.send_us"] = us(spanCoreSend), us(spanLCMSend)
	v["iplayer.send_us"], v["ndlayer.send_us"], v["ipcs.send_us"] = us(spanIPSend), us(spanNDSend), us(spanIPCSSend)
	// Self time is a rung minus the rung below it. Under the LCM call lie
	// the substrate crossings of one call, at half a raw round trip each.
	v["core.self_us"] = v["core.call_us"] - v["lcm.call_us"]
	v["lcm.self_us"] = v["lcm.call_us"] - float64(li.wl.traversals)*v["ipcs.rtt_us"]/2
	v["iplayer.self_us"] = v["iplayer.send_us"] - v["ndlayer.send_us"]
	v["ndlayer.self_us"] = v["ndlayer.send_us"] - v["ipcs.send_us"]
	v["core.first_boot_ms"] = li.firstBootS * 1e3

	v["pack.encode_ns"], v["pack.decode_ns"] = rung(spanPackEncode), rung(spanPackDecode)
	v["pack.encode_allocs"], v["pack.decode_allocs"] = li.ladders.allocs[spanPackEncode], li.ladders.allocs[spanPackDecode]
	v["pack.msg_bytes"] = float64(li.ladders.bytes)
	compiles, hits := delta(ctrPackCompiles), delta(ctrPackPlanHits)
	v["pack.compiles"] = compiles
	v["pack.plan_hit_share"] = 100 * ratio(hits, hits+compiles)

	v["wire.append_frame_ns"], v["wire.unmarshal_ns"], v["wire.patch_relay_ns"] = rung(spanWireAppend), rung(spanWireUnmarshal), rung(spanWirePatch)

	v["lcm.calls_per_op"] = ratio(delta(ctrLCMCalls), ops)
	v["lcm.sends_per_op"] = ratio(delta(ctrLCMSends), ops)
	dh, dm := delta(ctrLCMDestHits), delta(ctrLCMDestMisses)
	v["lcm.destcache_hit_share"] = 100 * ratio(dh, dh+dm)
	v["lcm.retries_per_kop"] = 1e3 * ratio(delta(ctrLCMRetries), ops)
	v["lcm.call_p50_us"] = float64(lt.calls.Quantile(0.50)) / 1e3
	v["lcm.call_p99_us"] = float64(lt.calls.Quantile(0.99)) / 1e3

	relays := delta(ctrIPRelays)
	v["iplayer.relays_per_op"] = ratio(relays, ops)
	v["iplayer.cutthrough_share"] = 100 * ratio(delta(ctrIPCutThrough), relays)

	v["ndlayer.frames_out_per_op"] = ratio(delta(ctrNDFramesOut), ops)
	v["ndlayer.bytes_out_per_op"] = ratio(delta(ctrNDBytesOut), ops)
	v["ndlayer.frames_per_batch"] = ratio(delta(ctrNDPerBatch), delta(ctrNDBatches))
	v["ndlayer.backpressure_waits_per_kop"] = 1e3 * ratio(delta(ctrNDWaits), ops)
	v["ndlayer.nacks_per_kop"] = 1e3 * ratio(delta(ctrNDNacks), ops)

	v["ipcs.poller_wakeups_per_op"] = ratio(delta(ctrPollWakeups), ops)
	v["ipcs.poller_dispatches_per_op"] = ratio(delta(ctrPollDispatch), ops)
	v["ipcs.poller_polls_per_op"] = ratio(delta(ctrPollPolls), ops)
	v["ipcs.poller_full_batches"] = delta(ctrPollFull)

	v["nsp.resolve_cold_us"], v["nsp.resolve_leased_us"] = us(spanNSPCold), us(spanNSPLeased)
	v["nsp.queries_per_boot"] = float64(lt.bootCounters[ctrNSPQueries])
	v["nameserver.ops_per_boot"] = float64(lt.bootCounters[ctrNSOps])
	v["nsp.queries_per_op"] = ratio(delta(ctrNSPQueries), ops)
	ch, cm := delta(ctrNSPCacheHits), delta(ctrNSPCacheMiss)
	v["nsp.cache_hit_share"] = 100 * ratio(ch, ch+cm)

	if li.ladders.in.ladder.ursa != nil {
		v["ursa.subcalls_per_query"] = v["lcm.calls_per_op"] - 1
		v["ursa.index_lookup_us"], v["ursa.doc_fetch_us"] = us(spanURSAIndex), us(spanURSAFetch)
		v["ursa.search_self_us"] = median(selfNS(li.ladderSpans)[spanURSASearch]) / 1e3
	}

	v["runtime.gc_cycles_per_s"] = ratio(lt.gcCycles, lt.secs)
	v["runtime.gc_pause_us_per_s"] = ratio(lt.gcPauseNS/1e3, lt.secs)
	v["runtime.goroutines"] = float64(runtime.NumGoroutine())

	env := li.rec.Env
	v["host.wake_us_before"], v["host.wake_us_after"] = env.HostBefore.WakeUS, env.HostAfter.WakeUS
	v["host.spin_mops_before"], v["host.spin_mops_after"] = env.HostBefore.SpinMops, env.HostAfter.SpinMops
	v["harness.preroll_s"] = env.PrerollS
	rates := column(li.stats, func(s segmentStats) float64 { return s.OpsPerS })
	q1, q3 := quartiles(rates)
	v["harness.window_iqr_pct"] = 100 * ratio(q3-q1, median(rates))
	// Spans are recorded in every other segment. Each traced segment is
	// held against the mean of its two untraced neighbours, which share its
	// stretch of host weather.
	var overhead, p50, cpu []float64
	for k, s := range li.stats {
		if !s.Traced {
			p50 = append(p50, s.P50US)
			cpu = append(cpu, s.CPUUSPerOp)
		} else if k+1 < len(li.stats) {
			plain := (li.stats[k-1].OpsPerS + li.stats[k+1].OpsPerS) / 2
			overhead = append(overhead, 100*ratio(plain-s.OpsPerS, plain))
		}
	}
	v["harness.trace_overhead_pct"] = median(overhead)
	v["window.lat_p50_us"], v["window.cpu_us_per_op"] = median(p50), median(cpu)
	v["window.lat_p99_us"] = li.windowP99US
	return v
}
