package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// A set is a list of run records, in the order they were made. The
// comparator pairs the i-th run of a workload in set A with the i-th run
// of that workload in set B.
type runSet struct {
	Runs []*record `json:"runs"`
}

// setMain makes a set: every workload on every seed, reps times, each run a
// fresh process of this same binary. The order interleaves workloads, so
// slow drift of the host is spread over all of them.
func setMain(path, seedList string, reps, seconds int, traced bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcsperf:", err)
		return 1
	}
	var seeds []int64
	for _, s := range strings.Split(seedList, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ntcsperf: -seeds:", err)
			return 2
		}
		seeds = append(seeds, n)
	}
	tmp := filepath.Join(filepath.Dir(path), ".run-record.json")
	defer os.Remove(tmp)
	var set runSet
	status := 0
	for rep := 0; rep < reps; rep++ {
		for _, seed := range seeds {
			for _, wl := range workloads {
				trace := "0"
				if traced {
					trace = "1"
				}
				cmd := exec.Command(self, "--workload", wl.name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(seconds), "--trace", trace, "-record", tmp)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "ntcsperf: %s seed %d: %v\n", wl.name, seed, err)
					status = 1
				}
				var rec record
				if err := readJSON(tmp, &rec); err != nil {
					fmt.Fprintf(os.Stderr, "ntcsperf: %s seed %d left no record: %v\n", wl.name, seed, err)
					status = 1
					continue
				}
				os.Remove(tmp)
				set.Runs = append(set.Runs, &rec)
				fmt.Printf("%-18s seed %-3d rep %-2d failed %d disturbed %-5v wake %.1f->%.1f us\n", wl.name, seed, rep,
					rec.Failed, rec.Env.Disturbed, rec.Env.HostBefore.WakeUS, rec.Env.HostAfter.WakeUS)
				if err := writeJSON(path, set); err != nil { // keep what we have if a later run dies
					fmt.Fprintln(os.Stderr, "ntcsperf:", err)
					return 1
				}
			}
		}
	}
	return status
}

// benchmarkFile is the part of BENCHMARK.json the comparator needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	var b benchmarkFile
	return &b, readJSON(path, &b)
}

type side struct {
	values      []float64
	med, q1, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values, med: median(values)}
	s.q1, s.q3 = quartiles(values)
	return s
}

// verdict applies the rule of the choosing-metrics guide, section 8, and
// the regression bound of BENCHMARK.json to one (workload, metric) pair.
// worse is how much B's median is worse than A's, as a share of A's.
func verdict(a, b side, lowerIsBetter bool, bound float64) (worse, won float64, text string) {
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	worse = sign * ratio(b.med-a.med, a.med)
	wins, decided, allBetter := 0, 0, true
	for i := range a.values {
		switch d := sign * (b.values[i] - a.values[i]); {
		case d < 0:
			wins++
			decided++
		case d > 0:
			decided++
		}
	}
	for _, bv := range b.values {
		for _, av := range a.values {
			if sign*(bv-av) >= 0 {
				allBetter = false
			}
		}
	}
	won = ratio(float64(wins), float64(decided))
	spread := ratio(a.q3-a.q1, a.med)
	switch {
	case worse > bound:
		text = "REGRESSION"
	case allBetter || (decided > 0 && float64(wins) >= 0.9*float64(decided) && sign*(a.med-b.med) > a.q3-a.q1):
		text = "gain"
	case spread > bound:
		text = "unresolved"
	default:
		text = "same"
	}
	return worse, won, text
}

// compareMain prints, per workload and end-to-end metric, each side's
// median, quartiles and spread (inter-quartile distance over median), the
// share of decided pairs B won, and the verdict. It returns non-zero on a
// regression.
func compareMain(pathA, pathB, benchPath string) int {
	var (
		bench benchmarkFile
		a, b  runSet
	)
	for _, f := range []struct {
		path string
		into any
	}{{benchPath, &bench}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "ntcsperf:", err)
			return 2
		}
	}
	byWorkload := func(s *runSet, name string) []*record {
		var out []*record
		for _, r := range s.Runs {
			if r.Workload == name && !r.Trace {
				out = append(out, r)
			}
		}
		return out
	}
	fmt.Printf("A = %s, B = %s. Pairs by order; a pair with a disturbed run is left out.\n\n", pathA, pathB)
	fmt.Println("| workload | metric | pairs | A median [q1, q3] | B median [q1, q3] | A spread | B spread | B worse by | B won | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	status := 0
	var excluded []string
	for _, wl := range bench.Workloads {
		ra, rb := byWorkload(&a, wl.Name), byWorkload(&b, wl.Name)
		n := min(len(ra), len(rb))
		var keep []int
		for i := 0; i < n; i++ {
			if ra[i].Env.Disturbed || rb[i].Env.Disturbed {
				excluded = append(excluded, fmt.Sprintf("%s pair %d (seeds %d/%d, disturbed A=%v B=%v)",
					wl.Name, i, ra[i].Env.Seed, rb[i].Env.Seed, ra[i].Env.Disturbed, rb[i].Env.Disturbed))
				continue
			}
			keep = append(keep, i)
		}
		for _, m := range bench.EndToEnd {
			var va, vb []float64
			for _, i := range keep {
				va = append(va, ra[i].Metrics[m.Name].Value)
				vb = append(vb, rb[i].Metrics[m.Name].Value)
			}
			if len(va) == 0 {
				fmt.Printf("| %s | %s | 0 | | | | | | | | no pairs |\n", wl.Name, m.Name)
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			worse, won, text := verdict(sa, sb, m.Better == "lower", m.Bound)
			if text == "REGRESSION" {
				status = 1
			}
			fmt.Printf("| %s | %s | %d | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, len(va), sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3,
				100*ratio(sa.q3-sa.q1, sa.med), 100*ratio(sb.q3-sb.q1, sb.med), 100*worse, 100*won, 100*m.Bound, text)
		}
	}
	fmt.Printf("\n%d pairs left out as disturbed.\n", len(excluded))
	for _, e := range excluded {
		fmt.Println("-", e)
	}
	fmt.Println()
	hostLine("A", &a)
	hostLine("B", &b)
	return status
}

// hostLine says whether every run of a set began in the forced regime: the
// wake-up cost read at the end of each pre-roll against the set's median.
func hostLine(name string, s *runSet) {
	var wake, preroll []float64
	for _, r := range s.Runs {
		wake = append(wake, r.Env.HostBefore.WakeUS)
		preroll = append(preroll, r.Env.PrerollS)
	}
	med, inside := median(wake), 0
	for _, w := range wake {
		if within(w, med, steadyTolerance) {
			inside++
		}
	}
	q1, q3 := quartiles(preroll)
	fmt.Printf("Set %s: host.wake_us_before median %.1f us, %d of %d runs within %.0f%% of it; harness.preroll_s median %.1f [%.1f, %.1f].\n",
		name, med, inside, len(wake), 100*steadyTolerance, median(preroll), q1, q3)
}
