// Command perfbench is the repository benchmark. It drives one DPX10
// workload from a single load-generating process, checks every job's
// result, and prints the workload's metrics: the end-to-end metrics by
// default, the per-layer metrics with --trace 1. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.py, which builds this module from the checkout's
// sources and forwards the flags:
//
//	python3 perfbench/run.py --workload swlag-overhead --seed 1 --seconds 30 --trace 0
//
// Workloads, metric definitions and which layer metric should move which
// end-to-end metric are listed in README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"swlag-overhead": swlagOverhead,
	"swlag-tcp":      swlagTCP,
	"knapsack-jobs":  knapsackJobs,
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	commit := fs.String("commit", "", "source commit, recorded in the machine fingerprint")
	dirty := fs.String("dirty", "", "whether the source tree had uncommitted changes")
	source := fs.String("source", "", "hash of the source files, recorded in the machine fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		return 2
	}
	fp := fingerprint(*commit, *dirty, *source)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Printf("# machine %s\n", fp)

	rep, r, err := execute(*name, drive, *seed, time.Duration(*seconds*float64(time.Second)), 1, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if r.tr != nil {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := r.tr.write(path, *name, *seed, fp); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("# spans: %d written to %s\n", r.tr.len(), path)
	}
	printTable(r)
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one workload. An untraced run reports the end-to-end
// metrics. A traced run first repeats the untraced run to get the base of
// trace.overhead_frac, then runs again with spans and WithMetrics on and
// reports the per-layer metrics.
func execute(name string, drive func(*run) error, seed int64, window time.Duration, scale float64, traced bool) (report, *run, error) {
	r := newRun(name, seed, window, scale, false)
	if err := drive(r); err != nil {
		return report{}, r, err
	}
	if err := r.checkSamples(); err != nil {
		return report{}, r, err
	}
	if !traced {
		r.endToEnd()
		return r.report(r.e2e), r, nil
	}
	base := r.cellsPerSec()
	t := newRun(name, seed, window, scale, true)
	t.attempted, t.failed = r.attempted, r.failed
	if err := drive(t); err != nil {
		return report{}, t, err
	}
	if err := t.checkSamples(); err != nil {
		return report{}, t, err
	}
	if err := t.layers(); err != nil {
		return report{}, t, err
	}
	over := 0.0
	if base > 0 {
		over = (base - t.cellsPerSec()) / base
	}
	t.setLayer("trace.overhead_frac", over, "ratio")
	return t.report(t.layer), t, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fingerprint tags every record with the machine and source it came from:
// CPU count, GOMAXPROCS, Go version, commit and dirty flag.
func fingerprint(commit, dirty, source string) string {
	if commit == "" {
		commit, dirty = "none", "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					commit = s.Value
				case "vcs.modified":
					dirty = s.Value
				}
			}
		}
	}
	if source == "" {
		source = "none"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s goos=%s goarch=%s commit=%s dirty=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, dirty, source)
}
