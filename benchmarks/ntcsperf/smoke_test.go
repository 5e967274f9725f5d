package main

import (
	"context"
	"regexp"
	"testing"
)

// The smoke test runs every workload for a second with the smoke sizing, end
// to end and traced, and holds the emitted names to BENCHMARK.json.

const benchmarkJSON = "../../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeRun(t *testing.T, wl workload, trace bool, corruptEvery int) *record {
	t.Helper()
	rec, err := runOnce(context.Background(), runConfig{
		workload: wl, seed: 1, seconds: 1, trace: trace, short: true,
		corruptEvery: corruptEvery, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
	}
	return rec
}

// checkEmitted asserts that rec carries exactly the metrics want names,
// each once (a map cannot hold a name twice) and each with its unit.
func checkEmitted(t *testing.T, rec *record, want []benchMetric) {
	t.Helper()
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s trace=%v emitted %d metrics, BENCHMARK.json names %d", rec.Workload, rec.Trace, len(rec.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%v: metric %s not emitted", rec.Workload, rec.Trace, m.Name)
		case got.Unit == "" || got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	bench, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", len(bench.Workloads), len(workloads))
	}
	for _, m := range append(append([]benchMetric(nil), bench.EndToEnd...), bench.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q has a character outside letters, digits, '_', '.' and '-'", m.Name)
		}
	}
	for _, named := range bench.Workloads {
		if !nameRE.MatchString(named.Name) {
			t.Errorf("workload name %q has a character outside letters, digits, '_', '.' and '-'", named.Name)
		}
		wl, ok := workloadByName(named.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the runner does not have", named.Name)
			continue
		}
		t.Run(wl.name, func(t *testing.T) {
			rec := smokeRun(t, wl, false, 0)
			if rec.Failed != 0 || rec.Corrupted != 0 || !rec.Correct {
				t.Errorf("failed %d corrupted %d: %v", rec.Failed, rec.Corrupted, rec.Failures)
			}
			checkEmitted(t, rec, bench.EndToEnd)
			for name, m := range rec.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above zero", name, m.Value)
				}
			}

			traced := smokeRun(t, wl, true, 0)
			if traced.Failed != 0 || traced.Corrupted != 0 {
				t.Errorf("traced: failed %d corrupted %d: %v", traced.Failed, traced.Corrupted, traced.Failures)
			}
			checkEmitted(t, traced, bench.PerLayer)
			if relays := traced.Metrics["iplayer.relays_per_op"].Value; wl.gateway == (relays == 0) {
				t.Errorf("iplayer.relays_per_op = %v on a workload with gateway=%v", relays, wl.gateway)
			}
			if q := traced.Metrics["nsp.queries_per_op"].Value; q != 0 {
				t.Errorf("nsp.queries_per_op = %v in the window, want 0", q)
			}
		})
	}
}

// TestCorruptedReplyFailsTheRun turns on the hook that damages replies and
// expects the run to count them and the process exit code to be non-zero.
func TestCorruptedReplyFailsTheRun(t *testing.T) {
	for _, wl := range workloads {
		rec := smokeRun(t, wl, false, 3)
		if rec.Corrupted == 0 || rec.Correct || exitCode(rec) == 0 {
			t.Errorf("%s: corrupted %d correct %v exit %d, want a non-zero exit", wl.name, rec.Corrupted, rec.Correct, exitCode(rec))
		}
	}
}
