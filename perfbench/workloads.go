package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/native"
	"github.com/dpx10/dpx10/internal/workload"
)

// nativePlaces is the place count of every workload and of the
// hand-written baseline it is compared with.
const nativePlaces = 4

// Every workload interleaves fault pairs with its measured jobs inside the
// window, so that every workload reports recovery_share and fault_slowdown
// on its own inputs, and the pairs see the same machine conditions as the
// jobs. The faulted jobs' cells and time are not part of the window's
// throughput.
const (
	// overheadFaultEvery is how many window steps of swlag-overhead pass
	// between faulted jobs; each faulted job pairs with the step's job.
	overheadFaultEvery = 2
	// tcpPairsPerStep is how many local fault pairs each swlag-tcp window
	// step runs after its deployment.
	tcpPairsPerStep = 2
	// knapsackPairsPerBatch is how many fault pairs knapsack-jobs runs
	// after each batch, on the batch's first instances.
	knapsackPairsPerBatch = 3
)

// dnaPair returns two independent n-base DNA sequences for seed.
func dnaPair(n int, seed int64) (string, string) {
	return workload.Sequence(n, workload.DNA, 2*seed+1), workload.Sequence(n, workload.DNA, 2*seed+2)
}

// swlagSpec builds the SWLAG job over a and b. Its check compares the
// job's best score with the hand-written strip pipeline's on the same
// inputs, which it also returns.
func swlagSpec(a, b string, cluster []dpx10.UntypedOption, job ...dpx10.Option[apps.AffineCell]) (*localSpec[apps.AffineCell], int32, error) {
	app := apps.NewSWLAG(a, b)
	ref, err := native.RunStrip(a, b, nativePlaces, 256, 0)
	if err != nil {
		return nil, 0, err
	}
	best := ref.BestH
	return &localSpec[apps.AffineCell]{
		app:     app,
		pat:     app.Pattern(),
		cells:   int64(len(a)+1) * int64(len(b)+1),
		cluster: cluster,
		job:     append(job, dpx10.WithCodec[apps.AffineCell](apps.AffineCodec{})),
		check: func(d *dpx10.Dag[apps.AffineCell]) error {
			if got := app.Best(d); got != best {
				return fmt.Errorf("swlag: best score %d, native strip says %d", got, best)
			}
			return nil
		},
	}, best, nil
}

// nativeVertex times the hand-written per-vertex SWLAG on a and b reps
// times, each an overhead_ratio denominator sample, and checks its score.
// Smaller inputs take more repetitions so each window step spends about
// the same time in the baseline.
func (r *run) nativeVertex(a, b string, want int32, reps int) error {
	settle()
	for k := 0; k < reps; k++ {
		var res native.Result
		var err error
		d := r.timed("native.RunVertex", 0, func() { res, err = native.RunVertex(a, b, nativePlaces, 1, 0) })
		if err == nil && res.BestH != want {
			err = fmt.Errorf("native vertex: best %d, strip says %d", res.BestH, want)
		}
		if err != nil {
			return err
		}
		r.native = append(r.native, d)
	}
	return nil
}

// swlagOverhead is Figure 12's yardstick: SWLAG at zero extra work on
// the local fabric, one closed-loop client, interleaved with the
// hand-written baselines on the same sequences. Every second job is
// followed by a copy that loses place 2 halfway, Figure 13's fault pair.
func swlagOverhead(r *run) error {
	a, b := dnaPair(r.size(1000, 48), r.seed)
	sp, best, err := swlagSpec(a, b, []dpx10.UntypedOption{dpx10.Places(nativePlaces), dpx10.Threads(1)}, dpx10.CacheSize(0))
	if err != nil {
		return err
	}
	// Every job gets a cluster of its own, as dpx10.Run builds one. The
	// first job warms the process up outside the window; its set-up time
	// still counts.
	if _, _, err := freshJob(r, sp, false); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	for step, end := 0, time.Now().Add(r.window); time.Now().Before(end); step++ {
		j0, n0 := r.mark()
		free, dFree, err := freshJob(r, sp, true)
		if err == nil && step%overheadFaultEvery == 0 {
			faultAfter(r, sp, free, dFree, false)
		}
		if err := r.nativeVertex(a, b, best, 1); err != nil {
			return err
		}
		r.stepOverhead(j0, n0)
		var strip native.Result
		r.timed("native.RunStrip", 0, func() { strip, err = native.RunStrip(a, b, nativePlaces, 256, 0) })
		if err != nil {
			return err
		}
		if strip.BestH != best {
			return fmt.Errorf("native strip is not deterministic: %d vs %d", strip.BestH, best)
		}
	}
	r.probe = func() error {
		return probeLayers(r, swlagLayers(a, b, sp, func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) }, 0))
	}
	return nil
}

const (
	// knapsackBatch is how many jobs one persistent cluster serves before
	// it is closed and a new one built. A persistent cluster keeps every
	// finished job's chunks until Close (about 110 bytes per cell), so an
	// unbounded cluster would grow by about 45 MB per knapsack job.
	knapsackBatch = 10
	// knapsackBaselineReps is how many times the hand-written baseline
	// runs on each instance of a batch. It takes a few ms a run, so many
	// runs cost little and steady the batch's median.
	knapsackBaselineReps = 5
)

// knapsackJob is one knapsack instance: its job and the best value the
// serial reference computes for it.
type knapsackJob struct {
	spec *localSpec[int64]
	best int64
}

// knapsackJobs submits distinct knapsack jobs from two closed-loop clients
// to a persistent cluster with lifeline load balancing, rebuilt every
// knapsackBatch jobs. Every job is a new instance: the runtime memoizes a
// per-pattern check across clusters, so a window that cycled through a
// fixed set would mix first-use and repeat jobs in a share that depends on
// how many jobs fit in it.
func knapsackJobs(r *run) error {
	items, capacity, maxW := r.size(100, 8), int32(r.size(4000, 64)), int32(r.size(400, 8))
	cluster := []dpx10.UntypedOption{dpx10.Places(nativePlaces), dpx10.Threads(1), dpx10.MaxActiveJobs(2)}
	// instance builds the n-th instance of the run's seed.
	instance := func(n int64) (knapsackJob, error) {
		ks := apps.NewRandomKnapsack(items, maxW, 1000, capacity, r.seed<<20+n)
		pat, err := ks.Pattern()
		if err != nil {
			return knapsackJob{}, err
		}
		return knapsackJob{
			spec: &localSpec[int64]{
				app:     ks,
				pat:     pat,
				cells:   int64(items+1) * int64(capacity+1),
				cluster: cluster,
				job: []dpx10.Option[int64]{dpx10.CacheSize(4096), dpx10.WithLifelines(0, 0),
					dpx10.WithCodec[int64](codec.Int64{})},
				check: ks.Verify,
			},
			best: ks.Serial()[items][capacity],
		}, nil
	}
	var made int64
	batch := func() ([]knapsackJob, error) {
		b := make([]knapsackJob, knapsackBatch)
		for k := range b {
			var err error
			if b[k], err = instance(made); err != nil {
				return nil, err
			}
			made++
		}
		return b, nil
	}
	jobs, err := batch()
	if err != nil {
		return err
	}
	first := jobs[0].spec
	// Three set-ups; the last cluster runs the warm-up job.
	var c *dpx10.Cluster
	for k := 0; k < 3; k++ {
		if c != nil {
			c.Close()
		}
		if c, err = newPersistent(r, first, k == 2); err != nil {
			return err
		}
	}
	c.Close()
	c = nil
	if r.tr != nil {
		r.submitMu = new(sync.Mutex)
	}
	for end := time.Now().Add(r.window); time.Now().Before(end); {
		if jobs, err = batch(); err != nil {
			return err
		}
		if c, err = dpx10.NewCluster(r.clusterOpts(cluster)...); err != nil {
			return err
		}
		settle()
		if r.tr != nil {
			r.sched.add(c.Metrics(), -1)
		}
		j0, n0 := r.mark()
		var next atomic.Int64
		var wg sync.WaitGroup
		for client := 0; client < 2; client++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					n := next.Add(1) - 1
					if n >= knapsackBatch {
						return
					}
					windowJob(r, c, jobs[n].spec)
				}
			}()
		}
		wg.Wait()
		if r.tr != nil {
			r.sched.add(c.Metrics(), 1)
		}
		c.Close()
		c = nil
		ran := min(int(next.Load()), knapsackBatch)
		// The hand-written baseline runs on the batch's instances once the
		// batch has finished: under the same machine conditions as the
		// jobs, but not competing with them for the CPUs.
		for _, kj := range jobs[:ran] {
			ks := kj.spec.app.(*apps.Knapsack)
			for rep := 0; rep < knapsackBaselineReps; rep++ {
				var got int64
				r.native = append(r.native, r.timed("native knapsack", 0, func() { got = nativeKnapsack(ks) }))
				if got != kj.best {
					return fmt.Errorf("native knapsack: best %d, Knapsack.Serial says %d", got, kj.best)
				}
			}
		}
		r.stepOverhead(j0, n0)
		for _, kj := range jobs[:min(ran, knapsackPairsPerBatch)] {
			faultPair(r, kj.spec, false)
		}
	}
	r.probe = func() error {
		in := layerInput[int64]{
			spec:    first,
			codec:   codec.Int64{},
			newDist: func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) },
			cache:   4096,
		}
		// internal/native has SWLAG only: its probe runs on a SWLAG
		// input with about as many cells as one knapsack job.
		side := 1
		for int64(side+1)*int64(side+1) < first.cells {
			side++
		}
		in.nativeA, in.nativeB = dnaPair(side, r.seed)
		return probeLayers(r, in)
	}
	return nil
}

// swlagLayers is the per-layer probe input for a SWLAG workload.
func swlagLayers(a, b string, sp *localSpec[apps.AffineCell], newDist func(h, w int32, n int) dist.Dist, cache int) layerInput[apps.AffineCell] {
	return layerInput[apps.AffineCell]{
		spec:    sp,
		codec:   apps.AffineCodec{},
		newDist: newDist,
		cache:   cache,
		nativeA: a,
		nativeB: b,
	}
}

// nativeKnapsack is the knapsack recurrence hand-written cell by cell,
// as native.RunVertex is for SWLAG: the whole matrix, rows dealt in blocks
// to nativePlaces goroutines, each cell waiting on its producer row's
// progress counter. It returns the best value. A two-row loop split by
// columns with a barrier per row was tried first; it does far less work
// than the runtime per cell, and when the machine's speed drifted its time
// moved twice as much as the jobs', so the ratio did not hold.
func nativeKnapsack(ks *apps.Knapsack) int64 {
	n, w := len(ks.Weights), int(ks.Capacity)+1
	rows := make([][]int64, n+1)
	for i := range rows {
		rows[i] = make([]int64, w)
	}
	// progress[i] is the number of finished cells at the start of row i;
	// row 0 is all zeros.
	progress := make([]atomic.Int32, n+1)
	progress[0].Store(int32(w))
	var wg sync.WaitGroup
	for p := 0; p < nativePlaces; p++ {
		r0, r1 := 1+p*n/nativePlaces, 1+(p+1)*n/nativePlaces
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r0; i < r1; i++ {
				wt, v := int(ks.Weights[i-1]), int64(ks.Values[i-1])
				up, row := rows[i-1], rows[i]
				for j := 0; j < w; j++ {
					// Both dependencies, (i-1, j) and (i-1, j-wt), are
					// finished once row i-1 has reached column j.
					for progress[i-1].Load() <= int32(j) {
						runtime.Gosched()
					}
					val := up[j]
					if j >= wt {
						val = max(val, up[j-wt]+v)
					}
					row[j] = val
					progress[i].Store(int32(j + 1))
				}
			}
		}()
	}
	wg.Wait()
	return rows[n][w-1]
}
