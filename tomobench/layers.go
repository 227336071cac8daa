package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/topology"
)

// layerMetric is one per-layer metric of the traced run; README.md gives
// each one's source and the end-to-end metric it should move.
type layerMetric struct {
	name, unit string
	better     string // "lower" or "higher"
}

// layerMetrics lists every per-layer metric in report order.
var layerMetrics = []layerMetric{
	{"server.decode_us", "us", "lower"},
	{"server.body_bytes_per_interval", "B", "lower"},
	{"server.ingest_handler_us", "us", "lower"},
	{"server.query_link_us", "us", "lower"},
	{"server.query_subsets_us", "us", "lower"},
	{"server.query_congested_us", "us", "lower"},
	{"server.query_status_us", "us", "lower"},
	{"server.query_link_algo_us", "us", "lower"},
	{"server.query_link_allocs", "count", "lower"},
	{"server.query_status_allocs", "count", "lower"},
	{"server.query_bytes", "B", "lower"},
	{"server.epochs", "count", "higher"},
	{"server.epoch_compute_ms_p50", "ms", "lower"},
	{"server.epoch_compute_ms_p99", "ms", "lower"},
	{"server.epoch_wait_ms", "ms", "lower"},
	{"server.lag_intervals_p95", "count", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_us_p99", "us", "lower"},
	{"wal.fsync_ms", "ms", "lower"},
	{"wal.fsyncs_per_batch", "count", "lower"},
	{"wal.bytes_per_interval", "B", "lower"},
	{"stream.add_us", "us", "lower"},
	{"stream.clone_us", "us", "lower"},
	{"stream.clone_shard_us", "us", "lower"},
	{"stream.evictions", "count", "higher"},
	{"stream.shard_skew", "ratio", "lower"},
	{"estimator.solves_cold", "count", "lower"},
	{"estimator.solves_warm", "count", "higher"},
	{"estimator.solves_repaired", "count", "higher"},
	{"estimator.solves_repaired_numeric", "count", "higher"},
	{"estimator.repair_failed", "count", "lower"},
	{"estimator.warm_ratio", "ratio", "higher"},
	{"estimator.link_mae", "prob", "lower"},
	{"core.build_ms_total", "ms", "lower"},
	{"core.repair_ms_total", "ms", "lower"},
	{"core.solve_ms_total", "ms", "lower"},
	{"core.cold_build_ms", "ms", "lower"},
	{"core.warm_solve_us", "us", "lower"},
	{"estimator.batch_us_per_checkpoint", "us", "lower"},
	{"estimator.seq_us_per_checkpoint", "us", "lower"},
	{"estimator.merge_us", "us", "lower"},
	{"cluster.fanout_us", "us", "lower"},
	{"cluster.rpc_us.ingest", "us", "lower"},
	{"cluster.rpc_us.result", "us", "lower"},
	{"cluster.rpc_errors", "count", "lower"},
	{"runtime.allocs_per_interval", "count", "lower"},
	{"runtime.gc_cpu_ms", "ms", "lower"},
	{"telemetry.scrape_us", "us", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.error_rate", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.overhead_ingest_pct", "%", "lower"},
}

// layerRun measures the traced phase and the replay of one run.
type layerRun struct {
	rep  *report
	w    *workload
	gen  *generator
	top  *topology.Topology
	c    *corpus
	dep  *deployment
	work string

	p         *phase
	cpuPerK   float64
	ingestP50 float64 // over the quiet slots, as ingest_p50_ms
	vals      map[string]float64
	notes     map[string]string
}

// sampler polls /v1/epochs during the traced phase for every published
// epoch.
type sampler struct {
	gen    *generator
	stop   chan struct{}
	done   sync.WaitGroup
	epochs map[uint64]server.EpochRecord
	err    error
}

func startSampler(gen *generator) *sampler {
	s := &sampler{gen: gen, stop: make(chan struct{}), epochs: map[uint64]server.EpochRecord{}}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.pollEpochs() // the ring holds the phase's last epochs
				return
			case <-tick.C:
				s.pollEpochs()
			}
		}
	}()
	return s
}

func (s *sampler) pollEpochs() {
	eps, err := s.gen.epochs()
	if err != nil {
		s.err = err
		return
	}
	for _, e := range eps {
		s.epochs[e.Epoch] = e
	}
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() error {
	close(s.stop)
	s.done.Wait()
	return s.err
}

func (lr *layerRun) set(name string, v float64, note string) {
	lr.vals[name] = v
	lr.notes[name] = note
}

// measure runs the traced phase and the replay and reports every
// per-layer metric; it returns the next global POST index.
func (lr *layerRun) measure(ctx context.Context, firstPost int, dur time.Duration, tr *tracer) (int, error) {
	gen, w := lr.gen, lr.w
	lr.vals, lr.notes = map[string]float64{}, map[string]string{}
	m0, err := gen.scrape()
	if err != nil {
		return 0, err
	}
	st0, err := gen.status()
	if err != nil {
		return 0, err
	}
	alloc0, gc0 := readRuntime()
	cpu0 := cpuTime()
	smp := startSampler(gen)
	p := gen.run(firstPost, dur)
	cpu := cpuTime() - cpu0
	lr.ingestP50 = median(p.quietOnly(p.ingestMs, p.ingestDue))
	alloc1, gc1 := readRuntime()
	if err := smp.finish(); err != nil {
		return 0, fmt.Errorf("sampler: %w", err)
	}
	m1, err := gen.scrape()
	if err != nil {
		return 0, err
	}
	st1, err := gen.status()
	if err != nil {
		return 0, err
	}
	lr.p = p
	fmt.Fprintf(lr.rep.out, "phase traced: %.2fs, %d POSTs (%d failed), %d queries (%d failed), %d intervals, host steal %.1f%% (%.1f%% in the quiet slots)\n",
		p.elapsed.Seconds(), p.posts, p.postsFailed, p.queries, p.queriesFailed, p.intervals, p.stealPct, p.quietPct)
	intervals := float64(p.intervals)
	lr.cpuPerK = cpu / (intervals / 1000)
	md := delta{m0, m1}

	// server (http, epoch)
	h, n := md.histMean("tomod_http_request_duration_seconds", `route="POST /v1/observations"`)
	lr.set("server.ingest_handler_us", h*1e6, fmt.Sprintf("n=%.0f", n))
	lr.set("server.epochs", float64(st1.Epoch-st0.Epoch), "")
	var compute []float64
	for e, rec := range smp.epochs {
		if e > st0.Epoch && e <= st1.Epoch {
			compute = append(compute, rec.ComputeMs)
		}
	}
	cs, cerr := Summarize(compute, 0.99)
	tail := fmt.Sprintf("n=%d", cs.N)
	if cerr != nil {
		tail += ", thin tail"
	}
	lr.set("server.epoch_compute_ms_p50", cs.P50, fmt.Sprintf("n=%d", cs.N))
	lr.set("server.epoch_compute_ms_p99", cs.Tail, tail)
	lr.set("server.epoch_wait_ms", median(p.visibleMs)-cs.P50, "visible p50 - compute p50")
	ls, _ := Summarize(append([]float64(nil), p.lagIntervals...), 0.95)
	lr.set("server.lag_intervals_p95", ls.Tail, fmt.Sprintf("per query answer, n=%d", ls.N))

	if w.wal {
		appends := md.count("tomod_wal_appends_total")
		lr.set("wal.fsyncs_per_batch", md.count("tomod_wal_fsync_duration_seconds_count")/max(appends, 1), "")
		lr.set("wal.bytes_per_interval", md.count("tomod_wal_bytes_written_total")/intervals, "")
	}

	// stream
	lr.set("stream.evictions", md.count("tomod_window_evictions_total"), "every ring in the process")
	lr.set("stream.shard_skew", shardSkew(shardSizes(lr.top)), "largest shard / mean shard, in paths")

	// estimator/core
	t0, t1 := st0.SolveTiers, st1.SolveTiers
	cold, warm := float64(t1.Cold-t0.Cold), float64(t1.Warm-t0.Warm)
	rep, repNum := float64(t1.Repaired-t0.Repaired), float64(t1.RepairedNumeric-t0.RepairedNumeric)
	lr.set("estimator.solves_cold", cold, "")
	lr.set("estimator.solves_warm", warm, "")
	lr.set("estimator.solves_repaired", rep, "")
	lr.set("estimator.solves_repaired_numeric", repNum, "")
	lr.set("estimator.repair_failed", float64(t1.RepairFailed-t0.RepairFailed), "")
	if total := cold + warm + rep + repNum; total > 0 {
		lr.set("estimator.warm_ratio", (warm+rep+repNum)/total, "non-cold solves / solves")
	}
	for _, stage := range []string{"rebuild", "repair", "solve"} {
		name := map[string]string{"rebuild": "core.build_ms_total", "repair": "core.repair_ms_total", "solve": "core.solve_ms_total"}[stage]
		sum := m1.sum("tomod_epoch_compute_seconds", "_sum", `stage="`+stage+`"`) - m0.sum("tomod_epoch_compute_seconds", "_sum", `stage="`+stage+`"`)
		lr.set(name, sum*1000, "")
	}

	// runtime
	lr.set("runtime.allocs_per_interval", (alloc1-alloc0)/intervals, "")
	lr.set("runtime.gc_cpu_ms", (gc1-gc0)*1000, "")

	// Replay: single calls into each layer, one goroutine.
	r := &replay{gen: gen, top: lr.top, w: w, c: lr.c, tr: tr, walRoot: lr.work, m: lr.vals}
	if err := r.ingest(); err != nil {
		return 0, fmt.Errorf("replay ingest: %w", err)
	}
	if err := r.solvers(ctx); err != nil {
		return 0, fmt.Errorf("replay solvers: %w", err)
	}
	if err := r.queries(lr.dep.srv.Handler()); err != nil {
		return 0, fmt.Errorf("replay queries: %w", err)
	}
	if err := r.cluster(ctx); err != nil {
		return 0, fmt.Errorf("replay cluster: %w", err)
	}
	if err := r.scrapes(gen); err != nil {
		return 0, fmt.Errorf("replay scrapes: %w", err)
	}
	return p.lastPost, nil
}

// emit reports every per-layer metric the run measured, saying which
// layers the workload leaves idle by design.
func (lr *layerRun) emit() {
	for _, lm := range layerMetrics {
		v, ok := lr.vals[lm.name]
		switch {
		case ok:
			lr.rep.add(lm.name, lm.unit, v, lr.notes[lm.name])
		case lm.name == "wal.fsyncs_per_batch" || lm.name == "wal.bytes_per_interval":
			lr.rep.idle(lm.name, lm.unit, "no WAL on this workload")
		default:
			lr.rep.idle(lm.name, lm.unit, "not measured")
		}
	}
}
