package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/dpx10/dpx10"
)

// localSpec is one DPX10 job on the local fabric: the app, its pattern,
// the cluster- and job-scoped options, and the result check.
type localSpec[T comparable] struct {
	app     dpx10.App[T]
	pat     dpx10.Pattern
	cells   int64
	cluster []dpx10.UntypedOption
	job     []dpx10.Option[T]
	check   func(*dpx10.Dag[T]) error
}

const (
	// pollEvery is how often the generator polls for a job's first cell.
	pollEvery = 100 * time.Microsecond
	// killPoll is the coarser interval at which it polls for the halfway
	// point of a job it is about to fault.
	killPoll = time.Millisecond
	// killPlace is the place the faulted jobs lose.
	killPlace = 2
)

// errLateKill reports a faulted job that finished before its kill landed,
// so no recovery ran. Only tiny inputs get there; the pair is retried.
var errLateKill = errors.New("job finished before the kill landed")

// clusterOpts adds WithMetrics to a traced run's clusters.
func (r *run) clusterOpts(opts []dpx10.UntypedOption, extra ...dpx10.UntypedOption) []dpx10.UntypedOption {
	out := append(append([]dpx10.UntypedOption(nil), opts...), extra...)
	if r.tr != nil {
		out = append(out, dpx10.WithMetrics())
	}
	return out
}

// waitProgress polls progress until it reaches at least target; false
// when the job did not get there within jobDeadline.
func waitProgress(progress func() int64, target int64, every time.Duration) bool {
	limit := time.Now().Add(jobDeadline)
	for progress() < target {
		if time.Now().After(limit) {
			return false
		}
		time.Sleep(every)
	}
	return true
}

// measured counts one finished job's cells and traffic in the window.
func (r *run) measured(cells int64, st dpx10.Stats, queueWait time.Duration) {
	r.mu.Lock()
	r.cells += cells
	r.bytes += st.BytesSent
	r.mu.Unlock()
	if r.tr != nil {
		r.addStats(st, queueWait)
	}
}

// fresh is one job run on a cluster of its own, as dpx10.Run builds one.
type fresh[T comparable] struct {
	dag                  *dpx10.Dag[T]
	stats                dpx10.Stats
	start, submit, first time.Time     // NewCluster, Submit, first cell seen
	elapsed              time.Duration // Submit to Wait
	recovery             time.Duration // Kill to EventRecoveryFinished
}

// runFresh builds a cluster, submits sp, waits for the first cell and then
// for the job. With kill set, place 2 is killed once half the cells have
// finished. The cluster is closed before runFresh returns; a traced run
// reads its metrics first.
func runFresh[T comparable](r *run, sp *localSpec[T], kill bool) (f fresh[T], err error) {
	settle()
	var extra []dpx10.UntypedOption
	// Sized to the one recovery a single kill causes, with room to spare
	// so the send below never has to drop it.
	recovered := make(chan time.Time, 4)
	name := "job"
	if kill {
		name = "job.faulted"
		extra = append(extra, dpx10.WithEvents(func(ev dpx10.Event) {
			if ev.Kind == dpx10.EventRecoveryFinished {
				select {
				case recovered <- time.Now():
				default:
				}
			}
		}))
	}
	id := r.span(name, 0)
	defer r.tr.end(id)
	f.start = time.Now()
	c, err := dpx10.NewCluster(r.clusterOpts(sp.cluster, extra...)...)
	if err != nil {
		return f, fmt.Errorf("NewCluster: %w", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	f.submit = time.Now()
	j, err := dpx10.Submit[T](ctx, c, sp.app, sp.pat, sp.job...)
	if err != nil {
		return f, fmt.Errorf("Submit: %w", err)
	}
	if !waitProgress(j.Progress, 1, pollEvery) {
		j.Cancel()
		return f, fmt.Errorf("no cell finished within %v", jobDeadline)
	}
	f.first = time.Now()
	var killed time.Time
	if kill {
		if !waitProgress(j.Progress, sp.cells/2, killPoll) {
			j.Cancel()
		}
		kid := r.tr.start("Job.Kill", id, int64(j.ID()))
		killed = time.Now()
		j.Kill(killPlace)
		r.tr.end(kid)
	}
	f.dag, err = j.Wait()
	f.elapsed = time.Since(f.submit)
	if err != nil {
		return f, err
	}
	f.stats = j.Stats()
	if kill && f.stats.Recoveries == 0 {
		return f, errLateKill
	}
	if kill {
		select {
		case at := <-recovered:
			f.recovery = at.Sub(killed)
		case <-time.After(5 * time.Second):
			return f, fmt.Errorf("no EventRecoveryFinished after Kill(%d)", killPlace)
		}
	}
	if r.tr != nil {
		if kill {
			r.recovery.add(c.Metrics(), 1)
		} else {
			r.sched.add(c.Metrics(), 1)
		}
	}
	return f, nil
}

// freshJob runs one fault-free job on its own cluster and checks it. Its
// set-up time is a setup_s sample; with window set it is also a measured
// job.
func freshJob[T comparable](r *run, sp *localSpec[T], window bool) (*dpx10.Dag[T], time.Duration, error) {
	f, err := runFresh(r, sp, false)
	if err == nil {
		err = sp.check(f.dag)
	}
	r.attempt(err)
	if err != nil {
		return nil, 0, err
	}
	r.setups = append(r.setups, f.first.Sub(f.start))
	if window {
		r.jobs = append(r.jobs, f.elapsed)
		r.startups = append(r.startups, f.first.Sub(f.submit))
		r.busy.add(f.elapsed)
		r.measured(sp.cells, f.stats, 0)
	}
	return f.dag, f.elapsed, nil
}

// faultPair runs sp fault-free and then with place 2 killed halfway, each
// on its own cluster (see faultAfter). With window set the fault-free job
// is also a measured job.
func faultPair[T comparable](r *run, sp *localSpec[T], window bool) {
	free, dFree, err := freshJob(r, sp, window)
	if err != nil {
		return // counted; the faulted job has nothing to compare with
	}
	faultAfter(r, sp, free, dFree, window)
}

// faultAfter runs sp on a cluster of its own with place 2 killed halfway,
// right after the fault-free run free that took dFree, and checks the
// faulted result cell by cell against free's. The pair's slowdown is the
// ratio of the two job times, so instances of different cost compare like
// with like. With window set the faulted job's cells and time belong to
// the measured window.
func faultAfter[T comparable](r *run, sp *localSpec[T], free *dpx10.Dag[T], dFree time.Duration, window bool) {
	f, err := runFresh(r, sp, true)
	for retry := 0; retry < 3 && errors.Is(err, errLateKill); retry++ {
		f, err = runFresh(r, sp, true)
	}
	if err == nil {
		err = sameResult(free, f.dag)
	}
	r.attempt(err)
	if err != nil {
		return
	}
	r.slowdowns = append(r.slowdowns, ratio(f.elapsed, dFree))
	r.recov = append(r.recov, f.recovery)
	r.recovShare = append(r.recovShare, ratio(f.recovery, dFree))
	if window {
		r.busy.add(f.elapsed)
		r.measured(sp.cells, f.stats, 0)
	}
}

// sameResult compares two Dags cell by cell.
func sameResult[T comparable](want, got *dpx10.Dag[T]) error {
	h, w := want.Height(), want.Width()
	if got.Height() != h || got.Width() != w {
		return fmt.Errorf("faulted result is %dx%d, want %dx%d", got.Height(), got.Width(), h, w)
	}
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			if a, b := want.Result(i, j), got.Result(i, j); a != b {
				return fmt.Errorf("faulted result differs at (%d,%d): %v vs %v", i, j, b, a)
			}
		}
	}
	return nil
}

// newPersistent builds a persistent cluster, submits sp and times the
// first call into the system until the job's first cell finished (a
// setup_s sample). With warm set the job runs to completion and is
// checked; otherwise it is canceled.
func newPersistent[T comparable](r *run, sp *localSpec[T], warm bool) (*dpx10.Cluster, error) {
	id := r.span("setup", 0)
	t0 := time.Now()
	c, err := dpx10.NewCluster(r.clusterOpts(sp.cluster)...)
	if err != nil {
		return nil, fmt.Errorf("NewCluster: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	j, err := dpx10.Submit[T](ctx, c, sp.app, sp.pat, sp.job...)
	if err == nil && !waitProgress(j.Progress, 1, pollEvery) {
		j.Cancel()
		err = fmt.Errorf("no cell finished within %v", jobDeadline)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	r.mu.Lock()
	r.setups = append(r.setups, time.Since(t0))
	r.mu.Unlock()
	r.tr.end(id)
	if !warm {
		j.Cancel()
		j.Wait()
		return c, nil
	}
	wid := r.span("warm-up", int64(j.ID()))
	d, err := j.Wait()
	r.tr.end(wid)
	if err == nil {
		err = sp.check(d)
	}
	r.attempt(err)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return c, nil
}

// windowJob runs one measured job on the persistent cluster c: Submit to
// Wait is the latency sample and busy time; the check runs after it,
// outside both.
func windowJob[T comparable](r *run, c *dpx10.Cluster, sp *localSpec[T]) {
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	r.busy.begin()
	t0 := time.Now()
	r.lockSubmit()
	j, err := dpx10.Submit[T](ctx, c, sp.app, sp.pat, sp.job...)
	r.unlockSubmit()
	if err != nil {
		r.busy.end()
		r.attempt(fmt.Errorf("Submit: %w", err))
		return
	}
	id := r.span("job", int64(j.ID()))
	var startup time.Duration
	if r.tr != nil && waitProgress(j.Progress, 1, pollEvery) {
		startup = time.Since(t0)
	}
	if r.submitMu != nil {
		waitFinished(c, j.ID())
	}
	r.lockSubmit()
	d, err := j.Wait()
	r.unlockSubmit()
	dt := time.Since(t0)
	r.busy.end()
	r.tr.end(id)
	if err == nil {
		cid := r.span("check", int64(j.ID()))
		err = sp.check(d)
		r.tr.end(cid)
	}
	r.attempt(err)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, dt)
	if r.tr != nil {
		r.startups = append(r.startups, startup)
	}
	r.mu.Unlock()
	r.measured(sp.cells, j.Stats(), j.QueueWait())
}

// lockSubmit and unlockSubmit serialize Submit against Wait when the run
// asks for it (submitMu set). With WithMetrics on, Job.Wait snapshots
// every registered job, and a job registers before its engines exist, so
// a Submit racing a Wait on another client crashes Wait with a nil
// dereference in the engine's cache overlay.
func (r *run) lockSubmit() {
	if r.submitMu != nil {
		r.submitMu.Lock()
	}
}

func (r *run) unlockSubmit() {
	if r.submitMu != nil {
		r.submitMu.Unlock()
	}
}

// waitFinished polls until job id's run has exited, so that the Wait that
// follows under the submit lock returns at once.
func waitFinished(c *dpx10.Cluster, id uint32) {
	for limit := time.Now().Add(jobDeadline); time.Now().Before(limit); time.Sleep(killPoll) {
		for _, info := range c.Jobs() {
			if info.ID == id && info.State == dpx10.JobFinished {
				return
			}
		}
	}
}
