// Command ntcsperf is the repository's benchmark: four closed-loop
// workloads over the shipped NTCS, the end-to-end metrics BENCHMARK.json
// bounds, and a traced run that attributes time to the layers. benchmarks/README.md describes
// the workloads, the run protocol and the host finding behind it.
//
//	ntcsperf --workload W --seed N --seconds S --trace 0|1   one run
//	ntcsperf -set FILE [-seeds 1,2] [-reps 5] [-traced]      a set of runs
//	ntcsperf -compare A.json B.json                          two sets
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadNames())
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Int("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		recordPath   = flag.String("record", "", "also write the full run record to this file")
		outDir       = flag.String("out", "benchmarks/out", "directory for the span file of a traced run")
		compareA     = flag.String("compare", "", "compare set A (this file) with set B (next argument)")
		benchPath    = flag.String("bench", "BENCHMARK.json", "where the comparator reads the bounds")
		setPath      = flag.String("set", "", "run a whole set, one fresh process per run, into this file")
		seeds        = flag.String("seeds", "1,2", "seeds of a set")
		reps         = flag.Int("reps", 5, "runs per workload and seed in a set")
		traced       = flag.Bool("traced", false, "the set consists of traced runs")
	)
	flag.Parse()

	// The program is measured as shipped: two cores, no environment knob.
	runtime.GOMAXPROCS(2)
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "NTCS_") {
			os.Unsetenv(name)
		}
	}

	switch {
	case *compareA != "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "ntcsperf: -compare A.json B.json")
			return 2
		}
		return compareMain(*compareA, flag.Arg(0), *benchPath)
	case *setPath != "":
		return setMain(*setPath, *seeds, *reps, *seconds, *traced)
	}

	wl, ok := workloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "ntcsperf: unknown workload %q (have %s)\n", *workloadName, workloadNames())
		return 2
	}
	rec, err := runOnce(context.Background(), runConfig{
		workload: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcsperf:", err)
		return 1
	}
	if *recordPath != "" {
		if err := writeJSON(*recordPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "ntcsperf:", err)
			return 1
		}
	}
	printRecord(rec)
	return exitCode(rec)
}

// exitCode is non-zero when any reply was corrupted.
func exitCode(rec *record) int {
	if rec.Corrupted > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printRecord prints the environment stamp, every metric by name with its
// unit, and then the result object as the last line.
func printRecord(rec *record) {
	env, _ := json.Marshal(rec.Env) // plain struct of numbers and strings
	fmt.Printf("workload %s seed %d trace %v\nenv %s\n", rec.Workload, rec.Env.Seed, rec.Trace, env)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("metric %-36s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("ops attempted %d failed %d corrupted %d (%s) disturbed %v\n",
		rec.Attempted, rec.Failed, rec.Corrupted, rec.Unit, rec.Env.Disturbed)
	for _, f := range rec.Failures {
		fmt.Println("failure:", f)
	}
	last, _ := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	fmt.Println(string(last))
}
