package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dist"
)

// stopWait bounds how long a torn-down deployment's places may take to
// return from Run.
const stopWait = 10 * time.Second

func cyclicRow(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }

// swlagTCP runs SWLAG over real loopback TCP: every job is a fresh
// deployment of four in-process places with cyclic rows, so every row
// boundary crosses places.
func swlagTCP(r *run) error {
	a, b := dnaPair(r.size(512, 32), r.seed)
	sp, best, err := swlagSpec(a, b, []dpx10.UntypedOption{dpx10.Places(nativePlaces), dpx10.Threads(1)},
		dpx10.CacheSize(1024), dpx10.WithDist(dpx10.CyclicRowDist))
	if err != nil {
		return err
	}
	app := sp.app.(*apps.SWLAG)
	cfg := core.Config[apps.AffineCell]{
		Common: core.Common{
			Places: nativePlaces, Threads: 1, Pattern: sp.pat,
			CacheSize: 1024, NewDist: cyclicRow, Metrics: r.tr != nil,
		},
		Compute: app.Compute,
		Codec:   apps.AffineCodec{},
	}
	// The first deployment warms the process up; its set-up time counts.
	r.attempt(tcpJob(r, cfg, sp, best, false))
	for end := time.Now().Add(r.window); time.Now().Before(end); {
		j0, n0 := r.mark()
		r.attempt(tcpJob(r, cfg, sp, best, true))
		if err := r.nativeVertex(a, b, best, 8); err != nil {
			return err
		}
		r.stepOverhead(j0, n0)
		// Recovery runs on the local fabric with the same job options: a
		// TCP place has no announced kill.
		for i := 0; i < tcpPairsPerStep; i++ {
			faultPair(r, sp, false)
		}
	}
	r.probe = func() error { return probeLayers(r, swlagLayers(a, b, sp, cyclicRow, 1024)) }
	return nil
}

// tcpJob runs one deployment: StartTCPNode for every place, Run on each,
// until place 0's Run returns. It then reads the counters, checks the
// best score from each place's own cells, and tears down the way the
// TCP benchmark in internal/core does: close every node, then wait for
// the places' Run calls to return.
func tcpJob(r *run, cfg core.Config[apps.AffineCell], sp *localSpec[apps.AffineCell], best int32, window bool) (err error) {
	r.mu.Lock()
	r.deployments++
	job := r.deployments
	r.mu.Unlock()
	settle()
	id := r.span("deployment", job)
	defer r.tr.end(id)

	places := cfg.Places
	placeholder := make([]string, places)
	for p := range placeholder {
		placeholder[p] = "127.0.0.1:0"
	}
	t0 := time.Now()
	nodes := make([]*core.TCPNode[apps.AffineCell], 0, places)
	var wg sync.WaitGroup
	defer func() {
		cid := r.tr.start("TCPNode.Close", id, job)
		for _, nd := range nodes {
			nd.Close()
		}
		stopped := make(chan struct{})
		go func() { wg.Wait(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(stopWait):
			err = errors.Join(err, fmt.Errorf("places still running %v after Close", stopWait))
		}
		r.tr.end(cid)
	}()
	for p := 0; p < places; p++ {
		nd, err := core.StartTCPNode(cfg, p, placeholder)
		if err != nil {
			return fmt.Errorf("StartTCPNode(%d): %w", p, err)
		}
		nodes = append(nodes, nd)
	}
	addrs := make([]string, places)
	for p, nd := range nodes {
		addrs[p] = nd.Addr()
	}
	for _, nd := range nodes {
		if err := nd.SetAddrTable(addrs); err != nil {
			return err
		}
	}
	done := make(chan error, 1)
	for p := range nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			err := nodes[p].Run()
			if p == 0 {
				done <- err
			}
		}(p)
	}

	progress := func() int64 {
		var n int64
		for _, nd := range nodes {
			n += nd.JobStats(0).ComputedCells
		}
		return n
	}
	deadline := time.NewTimer(jobDeadline)
	defer deadline.Stop()
	var runErr error
	finished := false
	for !finished && progress() == 0 {
		select {
		case runErr = <-done:
			finished = true
		case <-deadline.C:
			return fmt.Errorf("deployment: no cell finished within %v", jobDeadline)
		case <-time.After(pollEvery):
		}
	}
	setup := time.Since(t0)
	if !finished {
		select {
		case runErr = <-done:
		case <-deadline.C:
			return fmt.Errorf("deployment overran %v", jobDeadline)
		}
	}
	dt := time.Since(t0)
	if runErr != nil {
		return fmt.Errorf("place 0 Run: %w", runErr)
	}

	var st dpx10.Stats
	for _, nd := range nodes {
		s := nd.Stats()
		st.ComputedCells += s.ComputedCells
		st.MsgsSent += s.MsgsSent
		st.BytesSent += s.BytesSent
		st.FetchCalls += s.FetchCalls
		st.AggBatches += s.AggBatches
		st.DecrsCoalesced += s.DecrsCoalesced
		st.ValuesPushed += s.ValuesPushed
		st.PushConsumed += s.PushConsumed
		st.CacheHits += s.CacheHits
		st.CacheMisses += s.CacheMisses
		st.Retries += s.Retries
	}
	var snaps []*dpx10.MetricsSnapshot
	if r.tr != nil {
		if snaps, err = nodes[0].MetricsSnapshots(); err != nil {
			return err
		}
	}
	cid := r.tr.start("check", id, job)
	err = tcpBest(nodes, cfg, best)
	r.tr.end(cid)
	if err != nil {
		return err
	}

	if r.tr != nil && window {
		r.addStats(st, 0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setups = append(r.setups, setup)
	if !window {
		return nil
	}
	r.jobs = append(r.jobs, dt)
	r.cells += sp.cells
	r.busy.add(dt)
	r.bytes += st.BytesSent
	if r.tr != nil {
		r.startups = append(r.startups, setup)
		r.sched.add(snaps, 1)
	}
	return nil
}

// tcpBest reads every cell on its owning place (a local read, no network
// call) and compares the best score with want.
func tcpBest(nodes []*core.TCPNode[apps.AffineCell], cfg core.Config[apps.AffineCell], want int32) error {
	h, w := cfg.Pattern.Bounds()
	d := cfg.NewDist(h, w, cfg.Places)
	var got int32
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			v, err := nodes[d.Place(i, j)].Value(i, j)
			if err != nil {
				return err
			}
			if v.H > got {
				got = v.H
			}
		}
	}
	if got != want {
		return fmt.Errorf("swlag over TCP: best score %d, native strip says %d", got, want)
	}
	return nil
}
