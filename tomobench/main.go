// Command tomobench is the tomod benchmark. It starts a real tomod
// (server.Server and its HTTP API on a loopback listener, in this
// process), drives it with one ingest goroutine and one query goroutine
// from a corpus generated from --seed, checks the final estimate bit for
// bit against an offline solve, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run of the same workload and seed reports the per-layer ones.
//
// Usage, from the repository root:
//
//	bash tomobench/run.sh --workload ingest-wal --seed 1 --seconds 20 --trace 0
//	bash tomobench/run.sh --census
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// A run deploys its tomod numSetups times, each after a garbage
// collection; setup_s is the median over the quiet ones (see quietest),
// and the last deployment serves the measured phase.
const numSetups = 31

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics of the untraced run's JSON line,
// as BENCHMARK.json declares them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"intervals_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_tail_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// humanOnly are end-to-end figures the untraced run prints but keeps
// out of the JSON line, whose metrics must be non-zero and steady
// across seeds within a bound of at most 25%. The POST and query tails
// swing with stalls of the shared host; CPU per interval follows the
// host's speed; failures are already the line's failed/attempted and
// are 0; and the estimate's error against ground truth moves with the
// seed's draws. README.md gives the measured spreads.
var humanOnly = []metricSpec{
	{"ingest_tail_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"cpu_ms_per_kinterval", "ms"},
	{"error_rate", "ratio"},
	{"link_mae", "prob"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // report invalid runs instead of failing; set by the benchmark's own tests
	outDir   string
}

func main() {
	var o options
	var trace int
	var doCensus bool
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for WAL files and traces")
	flag.BoolVar(&doCensus, "census", false, "print the shard structure of the paper-family topologies and exit")
	flag.Parse()
	o.trace = trace == 1
	if doCensus {
		if err := census(); err != nil {
			fmt.Fprintln(os.Stderr, "tomobench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tomobench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tomobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints metrics as they are computed and collects the ones
// that go into the JSON line.
type report struct {
	out     io.Writer
	metrics map[string]metricValue
	invalid []string // why the run's figures cannot be trusted
}

// add prints and records a metric for the JSON line.
func (r *report) add(name, unit string, v float64, note string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.print(name, unit, v, note)
}

func (r *report) print(name, unit string, v float64, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.out, "metric %-36s %14.6g %-8s%s\n", name, v, unit, note)
}

// idle records a per-layer metric of a layer the workload does not use.
func (r *report) idle(name, unit, why string) {
	r.metrics[name] = metricValue{Value: 0, Unit: unit}
	fmt.Fprintf(r.out, "metric %-36s %14s %-8s  (idle: %s)\n", name, "-", unit, why)
}

// timing adds the median of the quiet samples of a timing under name
// p50 and the tail of all its samples under name tail.
func (r *report) timing(p50, tail string, all, quiet []float64, q float64) {
	r.add(p50, "ms", median(quiet), fmt.Sprintf("n=%d in quiet slots", len(quiet)))
	s, err := Summarize(all, q)
	note := fmt.Sprintf("p%s, n=%d, %d beyond", pctName(q), s.N, s.Beyond)
	if err != nil {
		r.invalid = append(r.invalid, fmt.Sprintf("%s: %v", tail, err))
		note += ", INVALID: too few samples beyond the tail"
	}
	r.add(tail, "ms", s.Tail, note)
}

// run executes one benchmark run and returns its JSON result; an error
// means the run could not be measured at all.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rep := &report{out: out, metrics: map[string]metricValue{}}
	env := recordEnvironment(work)
	fmt.Fprintln(out, env)
	if w.wal && env.WALFS == "tmpfs" {
		rep.invalid = append(rep.invalid, "the WAL directory is on tmpfs, where fsync is free")
	}

	top, err := w.topology()
	if err != nil {
		return nil, err
	}
	sizes := shardSizes(top)
	fmt.Fprintf(out, "workload %s seed=%d links=%d paths=%d shards=%d shard_paths=%s stream.shard_skew=%.3f\n",
		w.name, o.seed, top.NumLinks(), top.NumPaths(), len(sizes), joinInts(sizes, "+"), shardSkew(sizes))
	c, err := newCorpus(top, w, o.seed)
	if err != nil {
		return nil, err
	}

	// Set-up, several times; the last deployment serves the run.
	var setups []float64
	var setupSteal, setupTotal []uint64
	var dep *deployment
	for range numSetups {
		if dep != nil {
			dep.close()
		}
		runtime.GC()
		steal0, total0 := hostSteal()
		start := time.Now()
		if dep, err = w.deploy(top, work, c); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		steal1, total1 := hostSteal()
		setupSteal, setupTotal = append(setupSteal, steal1-steal0), append(setupTotal, total1-total0)
	}
	var quietSetups []float64
	for i, q := range quietest(setupSteal, setupTotal) {
		if q {
			quietSetups = append(quietSetups, setups[i])
		}
	}
	defer dep.close()
	// peak_rss_mb covers the measured phase, not the earlier set-ups.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	gen := &generator{w: w, c: c, base: dep.base, client: newClient()}
	defer gen.client.CloseIdleConnections()
	firstPost := windowSize / w.batch
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2 // untraced reference, then the traced phase
	}

	// The end-to-end phase, untraced.
	cpu0 := cpuTime()
	p := gen.run(firstPost, dur)
	cpu := cpuTime() - cpu0
	// Before Summarize sorts the samples away from their due times.
	quietIngest := p.quietOnly(p.ingestMs, p.ingestDue)
	quietVisible := p.quietOnly(p.visibleMs, p.visibleDue)
	quietQuery := p.quietOnly(p.queryMs, p.queryDue)
	res := &result{Attempted: p.posts + p.queries, Failed: p.postsFailed + p.queriesFailed}
	e2e := rep
	if o.trace {
		e2e = &report{out: io.Discard, metrics: map[string]metricValue{}}
	}
	fmt.Fprintf(out, "phase untraced: %.2fs, %d POSTs (%d failed), %d queries (%d failed), %d intervals, host steal %.1f%% (%.1f%% in the quiet slots)\n",
		p.elapsed.Seconds(), p.posts, p.postsFailed, p.queries, p.queriesFailed, p.intervals, p.stealPct, p.quietPct)
	fmt.Fprintf(out, "set-ups: %.4g s, host steal %v of %v ticks\n", setups, setupSteal, setupTotal)
	e2e.add("setup_s", "s", median(quietSetups), fmt.Sprintf("median of %d quiet set-ups of %d", len(quietSetups), len(setups)))
	e2e.add("intervals_per_s", "1/s", p.quietRate(w.batch), fmt.Sprintf("in quiet slots; %.6g over the phase", float64(p.intervals)/p.elapsed.Seconds()))
	e2e.timing("ingest_p50_ms", "ingest_tail_ms", p.ingestMs, quietIngest, w.batchTail)
	e2e.timing("visible_p50_ms", "visible_tail_ms", p.visibleMs, quietVisible, w.batchTail)
	e2e.timing("query_p50_ms", "query_tail_ms", p.queryMs, quietQuery, 0.99)
	cpuPerK := cpu / (float64(p.intervals) / 1000)
	e2e.add("cpu_ms_per_kinterval", "ms", cpuPerK, "")
	e2e.add("peak_rss_mb", "MB", peakRSSMB(), "VmHWM")
	errRate := float64(res.Failed) / float64(res.Attempted)
	e2e.print("error_rate", "ratio", errRate, fmt.Sprintf("%d of %d operations", res.Failed, res.Attempted))
	late, _ := Summarize(append([]float64(nil), p.lateMs...), 0.99)
	ingestP50 := median(quietIngest)
	if p.invisible > 0 {
		fmt.Fprintf(out, "warning: %d acknowledged batches were never seen by a query\n", p.invisible)
	}

	lastPost := p.lastPost
	var lr *layerRun
	var tr *tracer
	if o.trace {
		tr = newTracer()
		gen.tr = tr
		lr = &layerRun{rep: rep, w: w, gen: gen, top: top, c: c, dep: dep, work: work}
		if lastPost, err = lr.measure(ctx, lastPost, dur, tr); err != nil {
			return nil, err
		}
		res.Attempted += lr.p.posts + lr.p.queries
		res.Failed += lr.p.postsFailed + lr.p.queriesFailed
		lr.set("loadgen.late_p99_ms", late.Tail, fmt.Sprintf("untraced phase, n=%d", late.N))
		lr.set("loadgen.error_rate", errRate, "untraced phase")
		lr.set("trace.overhead_pct", 100*(lr.cpuPerK/cpuPerK-1), "cpu_ms_per_kinterval, traced vs untraced")
		lr.set("trace.overhead_ingest_pct", 100*(lr.ingestP50/ingestP50-1), "ingest_p50_ms, traced vs untraced")
	}

	// Correctness: ingest has stopped; publish synchronously and compare.
	snap, err := checkFinal(ctx, top, w, dep.srv, c, lastPost)
	res.Correct = err == nil
	if err != nil {
		fmt.Fprintf(out, "oracle FAILED: %v\n", err)
	} else {
		fmt.Fprintf(out, "oracle ok: epoch %d over seq %d is bit-identical to the offline %s estimate\n", snap.Epoch, snap.SeqHigh, w.algo)
		mae, exact := linkMAE(top, c, snap.Est)
		e2e.print("link_mae", "prob", mae, fmt.Sprintf("%d exact links", exact))
		if lr != nil {
			lr.set("estimator.link_mae", mae, fmt.Sprintf("%d exact links", exact))
		}
	}
	if lr != nil {
		lr.emit()
		for _, lt := range tr.selfTimes() {
			fmt.Fprintf(out, "trace %-32s spans=%-6d total_ms=%-12.3f self_ms=%.3f\n", lt.Name, lt.Count, lt.TotalS*1000, lt.SelfS*1000)
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace written to %s\n", path)
	}
	for _, msg := range rep.invalid {
		fmt.Fprintln(out, "invalid:", msg)
	}
	if len(rep.invalid) > 0 && !o.smoke {
		return nil, fmt.Errorf("invalid run: %d problems", len(rep.invalid))
	}
	res.Metrics = map[string]metricValue{}
	for _, m := range jsonMetrics(o.trace) {
		res.Metrics[m.name] = rep.metrics[m.name]
	}
	return res, nil
}

// jsonMetrics lists the metrics of the JSON line: the end-to-end ones,
// or with tracing the per-layer ones.
func jsonMetrics(trace bool) []metricSpec {
	if !trace {
		return endToEnd
	}
	out := make([]metricSpec, len(layerMetrics))
	for i, lm := range layerMetrics {
		out[i] = metricSpec{lm.name, lm.unit}
	}
	return out
}

// readRuntime returns the cumulative heap allocations (objects) and GC
// CPU seconds of the process.
func readRuntime() (allocs, gcCPU float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	for i, smp := range s {
		v := math.NaN()
		switch smp.Value.Kind() {
		case metrics.KindUint64:
			v = float64(smp.Value.Uint64())
		case metrics.KindFloat64:
			v = smp.Value.Float64()
		}
		if i == 0 {
			allocs = v
		} else {
			gcCPU = v
		}
	}
	return allocs, gcCPU
}
