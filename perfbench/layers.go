package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/native"
	"github.com/dpx10/dpx10/internal/transport"
	"github.com/dpx10/dpx10/internal/vcache"
)

// layerInput is what the per-layer probes need from a workload: its job,
// and the pieces of it each layer's public functions take.
type layerInput[T comparable] struct {
	spec    *localSpec[T]
	codec   codec.Codec[T]
	newDist func(h, w int32, n int) dist.Dist
	cache   int
	// nativeA and nativeB are the sequences the hand-written SWLAG
	// kernels run on.
	nativeA, nativeB string
}

const (
	// probeCells caps the cells a serial per-cell probe walks: the first
	// rows of the workload's matrix, up to this many cells.
	probeCells = 1 << 20
	// streamCap caps the replayed dependency-read stream.
	streamCap = 1 << 18
	// probeKind is the message kind of the transport probes.
	probeKind uint8 = 200
	// localCalls, tcpCalls and tcpSends size the transport probes.
	localCalls = 20000
	tcpCalls   = 2000
	tcpSends   = 20000
)

// layers runs the workload's layer probes, then derives the layer metrics
// that come from the traced run's own counters.
func (r *run) layers() error {
	if r.probe == nil {
		return fmt.Errorf("workload set no layer probe")
	}
	if err := r.probe(); err != nil {
		return err
	}
	st, cells := r.stats, float64(r.cells)
	r.setLayer("transport.msgs_per_cell", float64(st.MsgsSent)/cells, "msgs/cell")
	r.setLayer("transport.frames_per_writev", r.sched.histMean(metrics.TransportBatchFrames), "frames")
	r.setLayer("transport.compress_ratio", float64(r.sched.total(metrics.TransportCompressRaw))/
		float64(r.sched.total(metrics.TransportCompressWire)), "ratio")
	r.setLayer("transport.send_errors", float64(r.sched.total(metrics.TransportSendErrors)), "count")
	r.setLayer("transport.retries", float64(r.sched.total(metrics.TransportRetries)), "count")
	r.setLayer("core.fetch_calls_per_cell", float64(st.FetchCalls)/cells, "calls/cell")
	r.setLayer("core.decrs_per_batch", float64(st.DecrsCoalesced)/float64(st.AggBatches), "decrs")
	r.setLayer("core.push_use_ratio", float64(st.PushConsumed)/float64(st.ValuesPushed), "ratio")
	r.setLayer("vcache.hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "ratio")
	var startup, total time.Duration
	for _, d := range r.startups {
		startup += d
	}
	for _, d := range r.jobs {
		total += d
	}
	r.setLayer("core.job_startup_ms", ms(startup)/float64(len(r.startups)), "ms")
	r.setLayer("core.queue_wait_frac", ratio(r.queueWait, total), "ratio")
	for name, hist := range map[string]string{
		"core.recovery_pause_ms":   metrics.RecoveryPauseNs,
		"core.recovery_rebuild_ms": metrics.RecoveryRebuildNs,
		"core.recovery_restore_ms": metrics.RecoveryRestoreNs,
		"core.recovery_replay_ms":  metrics.RecoveryReplayNs,
		"core.recovery_resume_ms":  metrics.RecoveryResumeNs,
	} {
		r.setLayer(name, r.recovery.histMean(hist)/1e6, "ms")
	}
	jobs := float64(len(r.jobs))
	r.setLayer("sched.tiles_per_job", float64(r.sched.total(metrics.SchedTilesExecuted))/jobs, "tiles")
	r.setLayer("sched.tile_spread", r.sched.spread(metrics.SchedTilesExecuted), "ratio")
	r.setLayer("sched.steal_success_ratio", float64(r.sched.total(metrics.SchedStealsSucceeded))/
		float64(r.sched.total(metrics.SchedStealsAttempted)), "ratio")
	r.setLayer("sched.lifeline_probes_per_job", float64(r.sched.total(metrics.SchedLifelineProbes))/jobs, "probes")
	return nil
}

// probeLayers times each layer's public functions from outside, on the
// workload's own inputs.
func probeLayers[T comparable](r *run, in layerInput[T]) error {
	pat := in.spec.pat
	h, w := pat.Bounds()
	rows := h
	if int64(rows)*int64(w) > probeCells {
		rows = int32(probeCells / int64(w))
	}
	region := float64(rows) * float64(w)

	// internal/native: the hand-written kernels, median of three.
	var vt, stt []time.Duration
	for k := 0; k < 3; k++ {
		var err error
		vt = append(vt, r.timed("native.RunVertex", 0, func() { _, err = native.RunVertex(in.nativeA, in.nativeB, nativePlaces, 1, 0) }))
		if err != nil {
			return err
		}
		stt = append(stt, r.timed("native.RunStrip", 0, func() { _, err = native.RunStrip(in.nativeA, in.nativeB, nativePlaces, 256, 0) }))
		if err != nil {
			return err
		}
	}
	nc := float64(len(in.nativeA)+1) * float64(len(in.nativeB)+1)
	r.setLayer("native.vertex_ns_per_cell", float64(median(vt))/nc, "ns/cell")
	r.setLayer("native.strip_ns_per_cell", float64(median(stt))/nc, "ns/cell")

	// internal/apps: Compute over the region with each row's dependency
	// cells built before the row is timed.
	vals := make([]T, int(rows)*int(w))
	var ids []dag.VertexID
	var deps []dpx10.Cell[T]
	gather := func(i, j int32) []dpx10.Cell[T] {
		ids = pat.Dependencies(i, j, ids[:0])
		deps = deps[:0]
		for _, id := range ids {
			deps = append(deps, dpx10.Cell[T]{ID: id, Value: vals[int(id.I)*int(w)+int(id.J)]})
		}
		return deps
	}
	for i := int32(0); i < rows; i++ {
		for j := int32(0); j < w; j++ {
			vals[int(i)*int(w)+int(j)] = in.spec.app.Compute(i, j, gather(i, j))
		}
	}
	var flat []dpx10.Cell[T]
	offs := make([]int, w+1)
	var computeT time.Duration
	sid := r.span("apps.Compute", 0)
	for i := int32(0); i < rows; i++ {
		flat = flat[:0]
		for j := int32(0); j < w; j++ {
			offs[j] = len(flat)
			flat = append(flat, gather(i, j)...)
		}
		offs[w] = len(flat)
		t0 := time.Now()
		for j := int32(0); j < w; j++ {
			if in.spec.app.Compute(i, j, flat[offs[j]:offs[j+1]]) != vals[int(i)*int(w)+int(j)] {
				return fmt.Errorf("apps probe: Compute(%d,%d) is not deterministic", i, j)
			}
		}
		computeT += time.Since(t0)
	}
	r.tr.end(sid)
	r.setLayer("apps.compute_ns_per_cell", float64(computeT)/region, "ns/cell")

	// internal/dag: Dependencies and AntiDependencies of every cell.
	var anti []dag.VertexID
	depsT := r.timed("dag.Dependencies", 0, func() {
		for i := int32(0); i < rows; i++ {
			for j := int32(0); j < w; j++ {
				ids = pat.Dependencies(i, j, ids[:0])
				anti = pat.AntiDependencies(i, j, anti[:0])
			}
		}
	})
	r.setLayer("dag.deps_ns_per_cell", float64(depsT)/region, "ns/cell")

	// internal/dist: PlaceOffset of every dependency, block and cyclic rows.
	var edgeIDs []dag.VertexID
	for i := int32(0); i < rows && len(edgeIDs) < streamCap; i++ {
		for j := int32(0); j < w; j++ {
			ids = pat.Dependencies(i, j, ids[:0])
			edgeIDs = append(edgeIDs, ids...)
		}
	}
	var placeT time.Duration
	var acc int
	for _, d := range []dist.Dist{dist.NewBlockRow(h, w, nativePlaces), dist.NewCyclicRow(h, w, nativePlaces)} {
		placeT += r.timed("dist.PlaceOffset", 0, func() {
			for _, id := range edgeIDs {
				p, off := d.PlaceOffset(id.I, id.J)
				acc += p + off
			}
		})
	}
	if acc < 0 {
		return fmt.Errorf("dist probe: negative offsets")
	}
	r.setLayer("dist.place_offset_ns", float64(placeT)/float64(2*len(edgeIDs)), "ns")

	// internal/distarray: one job's set-up scan on every place, median of
	// three, then a rebuild onto the survivors of place 2 with the top
	// half of the matrix finished.
	d := in.newDist(h, w, nativePlaces)
	var chunks []*distarray.Chunk[T]
	var at []time.Duration
	for k := 0; k < 3; k++ {
		chunks = chunks[:0]
		at = append(at, r.timed("distarray.activate", 0, func() {
			for p := 0; p < nativePlaces; p++ {
				c := distarray.NewChunk[T](p, d)
				c.SetDepCache(true)
				c.ConfigureTiles(autoTileSize(d.LocalCount(p)))
				c.InitActivateTiles(pat)
				chunks = append(chunks, c)
			}
		}))
	}
	live := 0
	for _, c := range chunks {
		if c.DepCached() {
			live++
		}
	}
	r.setLayer("distarray.activate_ms", ms(median(at)), "ms")
	r.setLayer("distarray.depcache_live_places", float64(live), "places")
	var zero T
	for p, c := range chunks {
		for off, n := 0, d.LocalCount(p); off < n; off++ {
			if i, _ := d.CellAt(p, off); i < h/2 {
				c.SetResult(off, zero)
			}
		}
	}
	nd, err := d.Restrict(func(p int) bool { return p != killPlace })
	if err != nil {
		return err
	}
	rebuildT := r.timed("distarray.RebuildChunk", 0, func() {
		for p, c := range chunks {
			if p != killPlace {
				distarray.RebuildChunk(c, pat, nd, false)
			}
		}
	})
	r.setLayer("distarray.rebuild_ms", ms(rebuildT), "ms")
	chunks = nil

	// internal/vcache: place 1's remote dependency reads replayed against
	// a cache of the workload's size, Put on every miss. Puts are timed
	// again alone so Get time is the difference.
	var stream []dag.VertexID
	for off, n := 0, d.LocalCount(1); off < n && len(stream) < streamCap; off++ {
		i, j := d.CellAt(1, off)
		for _, id := range pat.Dependencies(i, j, ids[:0]) {
			if d.Place(id.I, id.J) != 1 {
				stream = append(stream, id)
			}
		}
	}
	missed := make([]dag.VertexID, 0, len(stream))
	cache := vcache.New[T](in.cache)
	allT := r.timed("vcache.Get+Put", 0, func() {
		for _, id := range stream {
			if _, ok := cache.Get(id); !ok {
				cache.Put(id, zero)
				missed = append(missed, id)
			}
		}
	})
	fresh := vcache.New[T](in.cache)
	putT := r.timed("vcache.Put", 0, func() {
		for _, id := range missed {
			fresh.Put(id, zero)
		}
	})
	r.setLayer("vcache.get_ns", float64(allT-putT)/float64(len(stream)), "ns")
	r.setLayer("vcache.put_ns", float64(putT)/float64(len(missed)), "ns")

	// internal/codec: the workload's codec over the region's values.
	var out []byte
	encT := r.timed("codec.Encode", 0, func() {
		for k, v := range vals {
			if k%4096 == 0 {
				out = out[:0]
			}
			out = in.codec.Encode(out, v)
		}
	})
	var all []byte
	for _, v := range vals {
		all = in.codec.Encode(all, v)
	}
	var decErr error
	decT := r.timed("codec.Decode", 0, func() {
		for off := 0; off < len(all); {
			_, n, err := in.codec.Decode(all[off:])
			if err != nil {
				decErr = err
				return
			}
			off += n
		}
	})
	if decErr != nil {
		return decErr
	}
	r.setLayer("codec.encode_ns", float64(encT)/float64(len(vals)), "ns")
	r.setLayer("codec.decode_ns", float64(decT)/float64(len(vals)), "ns")

	if err := probeTransport(r); err != nil {
		return err
	}

	// internal/core: the whole engine on one place, no transport.
	opts := append([]dpx10.Option[T]{dpx10.Places(1), dpx10.Threads(1)}, in.spec.job...)
	var dg *dpx10.Dag[T]
	oneT := r.timed("dpx10.Run(Places(1))", 0, func() { dg, err = dpx10.Run[T](in.spec.app, pat, opts...) })
	if err == nil {
		err = in.spec.check(dg)
	}
	if err != nil {
		return fmt.Errorf("one-place run: %w", err)
	}
	r.setLayer("core.one_place_ns_per_cell", float64(oneT)/float64(in.spec.cells), "ns/cell")
	return nil
}

// probeTransport times round trips on the local fabric and on a loopback
// TCP pair, and how long a TCP Send blocks its caller.
func probeTransport(r *run) error {
	payload := make([]byte, 64)
	echo := func(_ int, p []byte) ([]byte, error) { return append([]byte(nil), p...), nil }

	fab := transport.NewLocalFabric(2)
	defer fab.Close()
	fab.Endpoint(1).Handle(probeKind, echo)
	ep := fab.Endpoint(0)
	var err error
	localT := r.timed("transport.LocalFabric.Call", 0, func() {
		for k := 0; k < localCalls && err == nil; k++ {
			_, err = ep.Call(1, probeKind, payload)
		}
	})
	if err != nil {
		return fmt.Errorf("local call: %w", err)
	}
	r.setLayer("transport.local_call_us", float64(localT)/1e3/localCalls, "us")

	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	a, err := transport.NewTCP(0, addrs)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCP(1, addrs)
	if err != nil {
		return err
	}
	defer b.Close()
	real := []string{a.Addr(), b.Addr()}
	if err := a.SetAddrs(real); err != nil {
		return err
	}
	if err := b.SetAddrs(real); err != nil {
		return err
	}
	b.Handle(probeKind, echo)
	var got atomic.Int64
	received := make(chan struct{})
	b.Handle(probeKind+1, func(int, []byte) ([]byte, error) {
		if got.Add(1) == tcpSends {
			close(received)
		}
		return nil, nil
	})
	if _, err := a.Call(1, probeKind, payload); err != nil { // connect
		return fmt.Errorf("tcp call: %w", err)
	}
	callT := r.timed("transport.TCP.Call", 0, func() {
		for k := 0; k < tcpCalls && err == nil; k++ {
			_, err = a.Call(1, probeKind, payload)
		}
	})
	if err != nil {
		return fmt.Errorf("tcp call: %w", err)
	}
	sendT := r.timed("transport.TCP.Send", 0, func() {
		for k := 0; k < tcpSends && err == nil; k++ {
			err = a.Send(1, probeKind+1, payload)
		}
	})
	if err != nil {
		return fmt.Errorf("tcp send: %w", err)
	}
	select {
	case <-received:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("tcp send: %d of %d messages arrived", got.Load(), tcpSends)
	}
	r.setLayer("transport.tcp_call_us", float64(callT)/1e3/tcpCalls, "us")
	r.setLayer("transport.tcp_send_us", float64(sendT)/1e3/tcpSends, "us")
	return nil
}

// autoTileSize mirrors the engine's automatic tile size: about 64 tiles
// per place, clamped to [8, 2048] cells.
func autoTileSize(n int) int {
	s := min(max(n/64, 8), 2048)
	return max(min(s, n), 1)
}
