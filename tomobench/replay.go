package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/observe"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Replay sizes: enough calls for a stable median, few enough that a
// traced run stays short on the solver-heavy workloads.
const (
	replayBatches = 1200 // ingest pipeline batches (p99 of WAL appends)
	replayClones  = 100
	replayWindows = 3  // fresh-solver builds
	replayWarm    = 8  // retained-solver steps
	replayCkpts   = 4  // checkpoints per batched drain
	replayStride  = 50 // intervals between checkpoints (server.Config.EpochEvery)
	replayQueries = 200
	replayScrapes = 20
	replayForward = 300 // cluster fan-outs
	replaySolveEv = 100 // fan-outs between remote shard solves
)

// replay times single calls into each layer's public functions on one
// goroutine, over the run's own corpus: the single-threaded baseline of
// the live run, and the per-layer "R" metrics.
type replay struct {
	gen     *generator // the live deployment's client, for /metrics
	top     *topology.Topology
	w       *workload
	c       *corpus
	tr      *tracer
	walRoot string
	m       map[string]float64
}

func (r *replay) set(name string, v float64) { r.m[name] = v }

// ingest replays decode -> WAL append -> ring add per corpus batch, as
// the POST handler and Server.Ingest do it, then times window clones.
func (r *replay) ingest() error {
	// Every workload replays through a WAL, fsynced per batch on the
	// run's filesystem, so the layer's cost for its batch shape is
	// known even where the live deployment runs without one.
	dir, err := os.MkdirTemp(r.walRoot, "replay-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncPerBatch, Horizon: windowSize})
	if err != nil {
		return err
	}
	defer log.Close()
	m0, err := r.gen.scrape()
	if err != nil {
		return err
	}
	var win stream.Store
	pt := topology.NewPartition(r.top)
	sharded := stream.NewSharded(r.top.NumPaths(), windowSize, pt.PathShards(), max(pt.NumShards(), 1))
	if r.w.algo == estimator.CorrelationCompleteSharded {
		win = sharded
	} else {
		win = stream.NewWindow(r.top.NumPaths(), windowSize)
	}
	var decode, appendUs, add []float64
	bodyBytes := 0
	for g := 0; g < replayBatches; g++ {
		body := r.c.post(g)
		bodyBytes += len(body)
		seq := uint64((g + 1) * r.w.batch)
		root, endRoot := r.tr.begin("replay.ingest", 0, seq)
		var batch []*bitset.Set
		decode = append(decode, r.timed("server.decode", root, seq, func() { batch, err = decodeBatch(body, r.top.NumPaths()) }))
		if err != nil {
			return err
		}
		appendUs = append(appendUs, r.timed("wal.append", root, seq, func() { _, err = log.AppendBatch(batch) }))
		if err != nil {
			return err
		}
		add = append(add, r.timed("stream.add", root, seq, func() { _, err = win.AddBatch(batch) }))
		endRoot()
		if err != nil {
			return err
		}
		if win != sharded { // the unsharded run still times shard clones
			if _, err := sharded.AddBatch(batch); err != nil {
				return err
			}
		}
	}
	m1, err := r.gen.scrape()
	if err != nil {
		return err
	}
	fsync, _ := delta{m0, m1}.histMean("tomod_wal_fsync_duration_seconds")
	r.set("wal.fsync_ms", fsync*1000)
	r.set("server.decode_us", median(decode))
	r.set("server.body_bytes_per_interval", float64(bodyBytes)/float64(replayBatches*r.w.batch))
	r.set("stream.add_us", median(add))
	as, err := Summarize(appendUs, 0.99)
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	r.set("wal.append_us_p50", as.P50)
	r.set("wal.append_us_p99", as.Tail)
	var clone, cloneShard []float64
	for i := 0; i < replayClones; i++ {
		clone = append(clone, r.timed("stream.clone", 0, 0, func() { win.CloneStore() }))
		cloneShard = append(cloneShard, r.timed("stream.clone_shard", 0, 0, func() { sharded.CloneShard(i % sharded.NumShards()) }))
	}
	r.set("stream.clone_us", median(clone))
	r.set("stream.clone_shard_us", median(cloneShard))
	return nil
}

// decodeBatch is the POST handler's decode: JSON into the request type,
// then one bitset per interval.
func decodeBatch(body []byte, numPaths int) ([]*bitset.Set, error) {
	var req server.ObservationsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	batch := make([]*bitset.Set, len(req.Intervals))
	for i, iv := range req.Intervals {
		set := bitset.New(numPaths)
		for _, p := range iv.CongestedPaths {
			set.Add(p)
		}
		batch[i] = set
	}
	return batch, nil
}

// timed runs fn in a span and returns its duration in microseconds.
func (r *replay) timed(name string, parent int, req uint64, fn func()) float64 {
	_, end := r.tr.begin(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	end()
	return float64(d) / float64(time.Microsecond)
}

// windowAt returns the window that ends after corpus interval end.
func (r *replay) windowAt(end int) *stream.Window {
	win := stream.NewWindow(r.top.NumPaths(), windowSize)
	for s := end - windowSize; s < end; s++ {
		win.Add(r.c.sets[s%len(r.c.sets)])
	}
	return win
}

// solver is a retained epoch solver of the workload's algorithm: the
// warm unsharded solver, or the per-shard solver plus merge.
type solver struct {
	ws *estimator.WarmSolver
	sv *estimator.ShardedSolver
}

func (r *replay) newSolver() (*solver, error) {
	if r.w.algo == estimator.CorrelationCompleteSharded {
		sv, err := estimator.NewShardedSolver(r.top, solverOpts()...)
		return &solver{sv: sv}, err
	}
	ws, err := estimator.NewWarmSolver(r.top, solverOpts()...)
	return &solver{ws: ws}, err
}

// solve runs one epoch; sharded solves return their shard blocks.
func (s *solver) solve(ctx context.Context, obs observe.Store) ([]*core.Result, error) {
	if s.ws != nil {
		_, _, err := s.ws.Estimate(ctx, obs)
		return nil, err
	}
	blocks := make([]*core.Result, s.sv.NumShards())
	for k := range blocks {
		res, _, err := s.sv.SolveShard(ctx, k, obs)
		if err != nil {
			return nil, err
		}
		blocks[k] = res
	}
	return blocks, nil
}

// solveBatch drains checkpoints through the batched multi-RHS path.
func (s *solver) solveBatch(ctx context.Context, stores []observe.Store) error {
	if s.ws != nil {
		_, _, err := s.ws.EstimateBatch(ctx, stores)
		return err
	}
	for k := 0; k < s.sv.NumShards(); k++ {
		if _, _, err := s.sv.SolveShardBatch(ctx, k, stores); err != nil {
			return err
		}
	}
	return nil
}

// solvers times cold builds, the shard merge, retained-solver steps,
// and batched against sequential checkpoint drains.
func (r *replay) solvers(ctx context.Context) error {
	var cold []float64
	var err error
	for i := 0; i < replayWindows; i++ {
		win := r.windowAt((i + 1) * windowSize)
		s, err := r.newSolver()
		if err != nil {
			return err
		}
		cold = append(cold, r.timed("core.cold_build", 0, win.Seq(), func() { _, err = s.solve(ctx, win) }))
		if err != nil {
			return err
		}
	}
	r.set("core.cold_build_ms", median(cold)/1000)

	// Merge of per-shard blocks (one block where the topology does not
	// shard).
	sv, err := estimator.NewShardedSolver(r.top, solverOpts()...)
	if err != nil {
		return err
	}
	win := r.windowAt(windowSize)
	blocks, err := (&solver{sv: sv}).solve(ctx, win)
	if err != nil {
		return err
	}
	var merge []float64
	for i := 0; i < replayWindows; i++ {
		merge = append(merge, r.timed("estimator.merge", 0, win.Seq(), func() { sv.Merge(blocks, win) }))
	}
	r.set("estimator.merge_us", median(merge))

	// Retained solver: one window step per POST, as epochs see it.
	s, err := r.newSolver()
	if err != nil {
		return err
	}
	if _, err := s.solve(ctx, r.windowAt(windowSize)); err != nil {
		return err
	}
	var warm []float64
	for i := 1; i <= replayWarm; i++ {
		win := r.windowAt(windowSize + i*r.w.batch)
		warm = append(warm, r.timed("estimator.warm_solve", 0, win.Seq(), func() { _, err = s.solve(ctx, win) }))
		if err != nil {
			return err
		}
	}
	r.set("core.warm_solve_us", median(warm))

	// Checkpoint drains: the same checkpoints, from the same primed
	// plan, batched and then one by one.
	stores := make([]observe.Store, replayCkpts)
	for i := range stores {
		stores[i] = r.windowAt(2*windowSize + (i+1)*replayStride)
	}
	var perCkpt [2]float64
	for mode := range perCkpt {
		s, err := r.newSolver()
		if err != nil {
			return err
		}
		if _, err := s.solve(ctx, r.windowAt(2*windowSize)); err != nil {
			return err
		}
		name := [2]string{"estimator.batch", "estimator.seq"}[mode]
		perCkpt[mode] = r.timed(name, 0, 0, func() {
			if mode == 0 {
				err = s.solveBatch(ctx, stores)
				return
			}
			for _, st := range stores {
				if _, err = s.solve(ctx, st); err != nil {
					return
				}
			}
		}) / replayCkpts
		if err != nil {
			return err
		}
	}
	r.set("estimator.batch_us_per_checkpoint", perCkpt[0])
	r.set("estimator.seq_us_per_checkpoint", perCkpt[1])
	return nil
}

// queries times each read of the API through the live server's
// handler on a recorder, with its allocations and answer size.
func (r *replay) queries(h http.Handler) error {
	names := [numQueryKinds]string{"server.query_link_us", "server.query_subsets_us", "server.query_congested_us", "server.query_status_us", "server.query_link_algo_us"}
	var bytesByKind [numQueryKinds]float64
	for kind := range names {
		var us []float64
		var mallocs uint64
		var ms runtime.MemStats
		for i := 0; i < replayQueries; i++ {
			target, _ := queryTarget(kind, r.c.links[i%len(r.c.links)])
			req := httptest.NewRequest(http.MethodGet, target, nil)
			rec := httptest.NewRecorder()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			h.ServeHTTP(rec, req)
			end := time.Now()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			r.tr.span("server.query."+queryKindNames[kind], 0, 0, start, end)
			us = append(us, float64(end.Sub(start))/float64(time.Microsecond))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: HTTP %d", target, rec.Code)
			}
			bytesByKind[kind] += float64(rec.Body.Len())
		}
		r.set(names[kind], median(us))
		switch kind {
		case qLink:
			r.set("server.query_link_allocs", float64(mallocs)/replayQueries)
		case qStatus:
			r.set("server.query_status_allocs", float64(mallocs)/replayQueries)
		}
	}
	total, weights := 0.0, 0.0
	for kind, wgt := range r.w.mix {
		total += float64(wgt) * bytesByKind[kind] / replayQueries
		weights += float64(wgt)
	}
	r.set("server.query_bytes", total/weights)
	return nil
}

// scrapes times GET /metrics over the loopback listener.
func (r *replay) scrapes(gen *generator) error {
	var us []float64
	for i := 0; i < replayScrapes; i++ {
		var err error
		us = append(us, r.timed("telemetry.scrape", 0, 0, func() { _, err = gen.scrape() }))
		if err != nil {
			return err
		}
	}
	r.set("telemetry.scrape_us", median(us))
	return nil
}

// cluster replays ingest fan-out and remote shard solves through an
// in-process coordinator and one worker per shard on loopback, for the
// workload's topology and batch shape.
func (r *replay) cluster(ctx context.Context) error {
	dep := &deployment{}
	defer dep.close()
	coord, err := dep.startFleet(r.top)
	if err != nil {
		return err
	}
	pt := topology.NewPartition(r.top)
	nShards := len(dep.workers)
	src := stream.NewSharded(r.top.NumPaths(), windowSize, pt.PathShards(), nShards)
	coord.Start(src)
	if err := waitFleetHealthy(coord, 30*time.Second); err != nil {
		return err
	}
	m0, err := r.gen.scrape()
	if err != nil {
		return err
	}
	var fanout []float64
	for g := 0; g < replayForward; g++ {
		batch := r.c.sets[(g*r.w.batch)%len(r.c.sets):][:r.w.batch]
		base := src.Seq()
		fanout = append(fanout, r.timed("cluster.forward", 0, base, func() { err = coord.Forward(base, batch) }))
		if err != nil {
			return err
		}
		if _, err := src.AddBatch(batch); err != nil {
			return err
		}
		if (g+1)%replaySolveEv == 0 {
			for k := 0; k < nShards; k++ {
				r.timed("cluster.solve_shard", 0, src.Seq(), func() { _, err = coord.SolveShard(ctx, k, nil) })
				if err != nil {
					return err
				}
			}
		}
	}
	m1, err := r.gen.scrape()
	if err != nil {
		return err
	}
	md := delta{m0, m1}
	r.set("cluster.fanout_us", median(fanout))
	for _, rpc := range []string{"ingest", "result"} {
		v, _ := md.histMean("tomod_cluster_rpc_duration_seconds", `rpc="`+rpc+`"`)
		r.set("cluster.rpc_us."+rpc, v*1e6)
	}
	r.set("cluster.rpc_errors", md.count("tomod_cluster_rpc_errors_total"))
	return nil
}
