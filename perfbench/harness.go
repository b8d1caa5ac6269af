package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/dpx10/dpx10"
)

// metric is one named measurement as printed in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// jobDeadline bounds one job. A job that overruns it is canceled and
// counted as failed, so a hang cannot stall the benchmark.
const jobDeadline = 60 * time.Second

// run collects the raw samples of one pass over a workload.
type run struct {
	name   string
	seed   int64
	window time.Duration
	scale  float64
	tr     *tracer // nil when untraced
	root   int64   // root span

	mu        sync.Mutex
	attempted int
	failed    int

	// End-to-end samples.
	setups      []time.Duration // first call into the system -> first cell finished
	jobs        []time.Duration // fault-free job latencies inside the window
	native      []time.Duration // hand-written baseline on the same inputs
	overheads   []float64       // per window job: job time ÷ its step's baseline time
	slowdowns   []float64       // faulted ÷ fault-free job time, per fault pair
	recov       []time.Duration // Kill -> EventRecoveryFinished
	recovShare  []float64       // recov ÷ the pair's fault-free job time
	cells       int64           // cells computed by the window's jobs
	busy        busyClock       // time with at least one window job in flight
	bytes       int64           // transport payload bytes out, all places
	deployments int64           // TCP deployments started, for span job ids

	// Per-layer material, gathered only when traced.
	startups  []time.Duration // Submit -> first Progress() > 0
	queueWait time.Duration   // summed Job.QueueWait
	stats     dpx10.Stats     // window jobs' Stats, summed
	sched     snapAcc         // window's metrics, per place
	recovery  snapAcc         // faulted jobs' metrics
	probe     func() error    // the workload's layer probes
	submitMu  *sync.Mutex     // serializes Submit against Wait; see lockSubmit

	e2e, layer map[string]metric
	notes      []string
}

func newRun(name string, seed int64, window time.Duration, scale float64, traced bool) *run {
	r := &run{name: name, seed: seed, window: window, scale: scale,
		e2e: map[string]metric{}, layer: map[string]metric{}}
	if traced {
		r.tr = newTracer()
		r.root = r.tr.start("perfbench."+name, 0, 0)
	}
	return r
}

// size scales an input dimension, keeping it at least min.
func (r *run) size(n, min int) int {
	s := int(math.Round(float64(n) * r.scale))
	if s < min {
		s = min
	}
	return s
}

// attempt records one job; err != nil counts it as failed.
func (r *run) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: job failed: %v\n", err)
	}
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *run) addJob(d time.Duration, cells int64) {
	r.mu.Lock()
	r.jobs = append(r.jobs, d)
	r.cells += cells
	r.mu.Unlock()
}

func (r *run) addStats(s dpx10.Stats, queueWait time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queueWait += queueWait
	t := &r.stats
	t.ComputedCells += s.ComputedCells
	t.MsgsSent += s.MsgsSent
	t.BytesSent += s.BytesSent
	t.FetchCalls += s.FetchCalls
	t.AggBatches += s.AggBatches
	t.DecrsCoalesced += s.DecrsCoalesced
	t.ValuesPushed += s.ValuesPushed
	t.PushConsumed += s.PushConsumed
	t.CacheHits += s.CacheHits
	t.CacheMisses += s.CacheMisses
	t.Retries += s.Retries
}

func (r *run) cellsPerSec() float64 {
	if b := r.busy.total(); b > 0 {
		return float64(r.cells) / b.Seconds()
	}
	return 0
}

func (r *run) set(dst map[string]metric, name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	dst[name] = metric{Value: v, Unit: unit}
}

func (r *run) setLayer(name string, v float64, unit string) { r.set(r.layer, name, v, unit) }

// endToEnd turns the samples into the end-to-end metrics. Every gated
// time is a ratio to a time measured next to it in the same run: the
// machine's speed drifts by up to a quarter over minutes on a shared host,
// which moves a job and the baseline beside it alike. The absolute times
// are printed in the table.
func (r *run) endToEnd() {
	jobTail, pct := tail(r.jobs)
	base := median(r.native)
	r.set(r.e2e, "setup_s", median(r.setups).Seconds(), "s")
	r.set(r.e2e, "overhead_ratio", median(r.overheads), "x")
	r.set(r.e2e, "overhead_tail_ratio", ratio(jobTail, base), "x")
	r.set(r.e2e, "fault_slowdown", median(r.slowdowns), "x")
	r.set(r.e2e, "recovery_share", median(r.recovShare), "x")
	r.set(r.e2e, "wire_bytes_per_cell", float64(r.bytes)/float64(r.cells), "B/cell")
	r.set(r.e2e, "rss_peak_mb", rssPeakMiB(), "MiB")
	r.note("times: job_p50 %.1f ms, job_tail %.1f ms, baseline_p50 %.2f ms, recovery_p50 %.1f ms, cells_per_s %.4g",
		ms(median(r.jobs)), ms(jobTail), ms(base), ms(median(r.recov)), r.cellsPerSec())
	r.note("samples: setups=%d jobs=%d (tail = p%.1f) native=%d pairs=%d recoveries=%d busy=%.2fs",
		len(r.setups), len(r.jobs), pct, len(r.native), len(r.slowdowns), len(r.recov), r.busy.total().Seconds())
}

// mark returns how many job and baseline samples the run holds, the start
// of a window step for stepOverhead.
func (r *run) mark() (jobs, native int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs), len(r.native)
}

// stepOverhead records the overhead of each job of the window step that
// began at mark (jobs, native): its time ÷ the median baseline time of the
// step. Pairing each job with the baseline run right next to it keeps the
// ratio steady when the machine's speed drifts during a run.
func (r *run) stepOverhead(jobs, native int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.native) == native {
		return
	}
	base := median(r.native[native:])
	for _, d := range r.jobs[jobs:] {
		r.overheads = append(r.overheads, ratio(d, base))
	}
}

// report builds the result object over the given metric set.
func (r *run) report(metrics map[string]metric) report {
	return report{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
}

// checkSamples reports an error when the run produced no sample of some
// end-to-end quantity: every workload must measure every metric.
func (r *run) checkSamples() error {
	for name, s := range map[string][]time.Duration{
		"setup": r.setups, "job": r.jobs, "native": r.native, "recovery": r.recov,
	} {
		if len(s) == 0 {
			return fmt.Errorf("no %s samples", name)
		}
	}
	if len(r.slowdowns) == 0 {
		return fmt.Errorf("no fault pair completed")
	}
	if len(r.overheads) == 0 {
		return fmt.Errorf("no window step paired a job with its baseline")
	}
	if r.cells == 0 {
		return fmt.Errorf("no cells computed in the window")
	}
	return nil
}

func printTable(r *run) {
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("# failed_frac %.4f ratio (%d of %d jobs)\n", frac, r.failed, r.attempted)
	for _, set := range []map[string]metric{r.e2e, r.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("# %-32s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// busyClock accumulates the time during which at least one job is in
// flight, so checks between jobs stay outside the measured window.
type busyClock struct {
	mu       sync.Mutex
	inFlight int
	since    time.Time
	sum      time.Duration
}

func (b *busyClock) begin() {
	b.mu.Lock()
	if b.inFlight == 0 {
		b.since = time.Now()
	}
	b.inFlight++
	b.mu.Unlock()
}

func (b *busyClock) end() {
	b.mu.Lock()
	b.inFlight--
	if b.inFlight == 0 {
		b.sum += time.Since(b.since)
	}
	b.mu.Unlock()
}

// add counts d as busy; for jobs run one at a time.
func (b *busyClock) add(d time.Duration) {
	b.mu.Lock()
	b.sum += d
	b.mu.Unlock()
}

func (b *busyClock) total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sum
}

// snapAcc sums metrics snapshots per place, optionally subtracting a
// baseline taken at the start of a window.
type snapAcc struct {
	counters map[int]map[string]int64
	histSum  map[string]int64
	histN    map[string]int64
}

func (a *snapAcc) add(snaps []*dpx10.MetricsSnapshot, sign int64) {
	if a.counters == nil {
		a.counters = map[int]map[string]int64{}
		a.histSum = map[string]int64{}
		a.histN = map[string]int64{}
	}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		pc := a.counters[s.Place]
		if pc == nil {
			pc = map[string]int64{}
			a.counters[s.Place] = pc
		}
		for name, v := range s.Counters {
			pc[name] += sign * v
		}
		for name, h := range s.Hists {
			a.histSum[name] += sign * h.Sum
			a.histN[name] += sign * h.Count()
		}
	}
}

// total sums a counter over places.
func (a *snapAcc) total(name string) int64 {
	var n int64
	for _, pc := range a.counters {
		n += pc[name]
	}
	return n
}

// spread is max over mean of a counter across places.
func (a *snapAcc) spread(name string) float64 {
	var sum, max int64
	for _, pc := range a.counters {
		v := pc[name]
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(a.counters)))
}

// histMean is the mean observation of a histogram.
func (a *snapAcc) histMean(name string) float64 {
	if a.histN[name] == 0 {
		return 0
	}
	return float64(a.histSum[name]) / float64(a.histN[name])
}

// tracer keeps spans in memory and writes them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const maxSpans = 1 << 20

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id; 0 on a nil tracer.
func (t *tracer) start(name string, parent, job int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Job: job, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), End: -1})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path, workload string, seed int64, fp string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) > 0 && t.spans[0].End < 0 {
		t.spans[0].End = time.Since(t.t0).Nanoseconds()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Machine  string `json:"machine"`
		Spans    []span `json:"spans"`
	}{workload, seed, fp, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// span opens a span under the run's root.
func (r *run) span(name string, job int64) int64 { return r.tr.start(name, r.root, job) }

// timed runs f inside a span and returns its wall time.
func (r *run) timed(name string, job int64, f func()) time.Duration {
	id := r.span(name, job)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.tr.end(id)
	return d
}

// sample is a time or a ratio.
type sample interface{ ~int64 | ~float64 }

func median[S sample](s []S) S {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// tail returns the highest percentile that has at least ten samples
// beyond it, and that percentile. With fewer than 21 samples no such
// percentile lies above the median, so the median is returned.
func tail[S sample](s []S) (S, float64) {
	n := len(s)
	if n < 21 {
		return median(s), 50
	}
	c := slices.Clone(s)
	slices.Sort(c)
	k := n - 11 // exactly ten samples lie above c[k]
	return c[k], 100 * float64(k+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// settle collects garbage and returns free memory to the OS between
// jobs, outside the measured window, so that every job starts from the
// same process state: no job pays for collecting its predecessor's
// garbage, every job maps its memory afresh as a new process would, and
// the peak RSS is set by the largest job, not by when the collector last
// ran. Keeping the memory mapped instead left job times depending on how
// much of it the background scavenger had returned, and spread them more.
func settle() { debug.FreeOSMemory() }

// rssPeakMiB is the process's peak resident set size.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
