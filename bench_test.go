// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablation and scaling benches for the design choices
// called out in DESIGN.md. Benchmarks run at the Small experiment scale
// so `go test -bench=.` finishes quickly; cmd/tomo regenerates the same
// artifacts at medium/paper scale.
//
// Each figure benchmark reports, via b.ReportMetric, the headline
// quantity of the corresponding panel so that bench output doubles as a
// compact reproduction record.
package tomography

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/ingestcodec"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wal"
)

func benchCfg() experiment.Config {
	return experiment.DefaultConfig(experiment.Small())
}

// BenchmarkTable2 regenerates the assumption matrix (Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiment.RenderTable2(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3DetectionRate regenerates Figure 3(a): detection rate
// of the three Boolean Inference algorithms over the five scenarios.
func BenchmarkFigure3DetectionRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: Bayesian-Correlation's detection on the Sparse
		// topology (the paper's "as low as 68%" regime).
		b.ReportMetric(rows[4].Detection["Bayesian-Correlation"], "sparse-detect")
		b.ReportMetric(rows[0].Detection["Sparsity"], "brite-detect")
	}
}

// BenchmarkFigure3FalsePositiveRate regenerates Figure 3(b).
func BenchmarkFigure3FalsePositiveRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[4].FalsePositive["Bayesian-Independence"], "sparse-fpr")
		b.ReportMetric(rows[0].FalsePositive["Sparsity"], "brite-fpr")
	}
}

// BenchmarkFigure4aBrite regenerates Figure 4(a): mean absolute error
// of the three Probability Computation algorithms on Brite topologies.
func BenchmarkFigure4aBrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure4(benchCfg(), experiment.Brite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].MeanErr("Correlation-complete"), "noindep-complete-err")
		b.ReportMetric(rows[2].MeanErr("Independence"), "noindep-indep-err")
	}
}

// BenchmarkFigure4bSparse regenerates Figure 4(b): the same comparison
// on Sparse topologies.
func BenchmarkFigure4bSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure4(benchCfg(), experiment.Sparse)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].MeanErr("Correlation-complete"), "noindep-complete-err")
		b.ReportMetric(rows[2].MeanErr("Independence"), "noindep-indep-err")
	}
}

// BenchmarkFigure4cCDF regenerates Figure 4(c): the CDF of the absolute
// error in the No-Independence scenario on Sparse topologies.
func BenchmarkFigure4cCDF(b *testing.B) {
	points := []float64{0, 0.1, 0.2, 0.5, 1}
	for i := 0; i < b.N; i++ {
		curves, err := experiment.Figure4CDF(benchCfg(), points)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: fraction of links with error < 0.1 per algorithm
		// (the paper reports 80% / 65% / 50%).
		b.ReportMetric(curves["Correlation-complete"][1], "complete-cdf@0.1")
		b.ReportMetric(curves["Correlation-heuristic"][1], "heuristic-cdf@0.1")
		b.ReportMetric(curves["Independence"][1], "indep-cdf@0.1")
	}
}

// BenchmarkFigure4dSubsets regenerates Figure 4(d): link vs
// correlation-subset error of Correlation-complete.
func BenchmarkFigure4dSubsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiment.Figure4Subsets(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].SubsetErr, "brite-subset-err")
		b.ReportMetric(cells[1].SubsetErr, "sparse-subset-err")
	}
}

// BenchmarkAlgorithm1Scaling measures how Correlation-complete scales
// with topology size (§5.3's complexity discussion: O(n1³ + n1²·2^n2·n3)).
func BenchmarkAlgorithm1Scaling(b *testing.B) {
	for _, numAS := range []int{10, 20, 40} {
		b.Run(sizeName(numAS), func(b *testing.B) {
			scale := experiment.Small()
			scale.BriteNumAS = numAS
			scale.BritePaths = numAS * 6
			top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			mc := netsim.DefaultConfig(netsim.NoIndependence)
			mc.PacketsPerPath = scale.PacketsPerPath
			model, err := netsim.NewModel(top, mc, scale.Intervals, rng)
			if err != nil {
				b.Fatal(err)
			}
			rec := observe.NewRecorder(top.NumPaths())
			for t := 0; t < scale.Intervals; t++ {
				rec.Add(model.Interval(t, rng).CongestedPaths)
			}
			cfg := core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(context.Background(), top, rec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSubsetSize compares the resource knob's settings
// (§4: "sets of one, two, or three links"): larger subsets cost more
// and identify more.
func BenchmarkAblationSubsetSize(b *testing.B) {
	scale := experiment.Small()
	top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.NoIndependence)
	mc.PacketsPerPath = scale.PacketsPerPath
	model, err := netsim.NewModel(top, mc, scale.Intervals, rng)
	if err != nil {
		b.Fatal(err)
	}
	rec := observe.NewRecorder(top.NumPaths())
	for t := 0; t < scale.Intervals; t++ {
		rec.Add(model.Interval(t, rng).CongestedPaths)
	}
	for _, k := range []int{1, 2, 3} {
		b.Run(sizeName(k), func(b *testing.B) {
			cfg := core.Config{MaxSubsetSize: k, AlwaysGoodTol: 0.02}
			var identified int
			for i := 0; i < b.N; i++ {
				res, err := core.Compute(context.Background(), top, rec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				identified = 0
				for _, s := range res.Subsets {
					if s.Identifiable {
						identified++
					}
				}
			}
			b.ReportMetric(float64(identified), "identified-subsets")
		})
	}
}

// BenchmarkNullSpaceUpdate measures Algorithm 2 (the incremental
// null-space update) against full recomputation, the paper's stated
// reason for introducing it.
func BenchmarkNullSpaceUpdate(b *testing.B) {
	const n = 300
	rng := rand.New(rand.NewSource(1))
	base := linalg.NewMatrix(40, n)
	for i := range base.Data {
		if rng.Intn(6) == 0 {
			base.Data[i] = 1
		}
	}
	ns := linalg.NullSpaceBasis(base)
	row := make([]float64, n)
	for j := range row {
		if rng.Intn(6) == 0 {
			row[j] = 1
		}
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.NullSpaceUpdate(ns, row)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		grown := base.AppendRow(row)
		for i := 0; i < b.N; i++ {
			linalg.NullSpaceBasis(grown)
		}
	})
}

// BenchmarkBinomialSampler measures both branches of the probe sampler.
func BenchmarkBinomialSampler(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.Run("inversion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			netsim.Binomial(50, 0.02, rng)
		}
	})
	b.Run("normal-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			netsim.Binomial(1000, 0.5, rng)
		}
	})
}

func sizeName(n int) string { return strconv.Itoa(n) }

// BenchmarkGoodCount compares the columnar empirical-frequency query
// (per-path congestion masks, OR + popcount, allocation-free) against
// the retained naive row-scan reference at the paper's interval count.
// This is the innermost query of every equation the solvers build.
func BenchmarkGoodCount(b *testing.B) {
	const numPaths, intervals = 1500, 1000
	rng := rand.New(rand.NewSource(1))
	rec := observe.NewRecorder(numPaths)
	s := bitset.New(numPaths)
	for t := 0; t < intervals; t++ {
		s.Clear()
		for p := 0; p < numPaths; p++ {
			if rng.Intn(5) == 0 {
				s.Add(p)
			}
		}
		rec.Add(s)
	}
	paths := bitset.New(numPaths)
	for paths.Count() < 8 {
		paths.Add(rng.Intn(numPaths))
	}
	if got, want := rec.GoodCount(paths), rec.GoodCountNaive(paths); got != want {
		b.Fatalf("columnar GoodCount %d != naive %d", got, want)
	}
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.GoodCount(paths)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.GoodCountNaive(paths)
		}
	})
	b.Run("columnar-allcongested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.AllCongestedCount(paths)
		}
	})
	b.Run("naive-allcongested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.AllCongestedCountNaive(paths)
		}
	})
}

// BenchmarkStreamIngest measures the streaming store's steady-state
// ingest path at the paper's path-universe scale: each Add evicts the
// oldest interval of a full ring and must not allocate (the ring and
// the per-path masks are warm after the first lap). The windowed
// queries are benchmarked alongside since the solver loop issues them
// against the same layout.
func BenchmarkStreamIngest(b *testing.B) {
	const numPaths, window = 1500, 1000
	rng := rand.New(rand.NewSource(1))
	pool := make([]*bitset.Set, 64)
	for i := range pool {
		s := bitset.New(numPaths)
		for p := 0; p < numPaths; p++ {
			if rng.Intn(5) == 0 {
				s.Add(p)
			}
		}
		pool[i] = s
	}
	newWarmWindow := func() *stream.Window {
		w := stream.NewWindow(numPaths, window)
		for i := 0; i < 2*window; i++ { // wrap the ring: steady state
			w.Add(pool[i%len(pool)])
		}
		return w
	}
	b.Run("add-evict", func(b *testing.B) {
		w := newWarmWindow()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Add(pool[i%len(pool)])
		}
		b.ReportMetric(float64(w.T()), "window-intervals")
	})
	b.Run("add-evict-wal", func(b *testing.B) {
		// Durable variant: the same steady-state eviction loop with a
		// WAL attached (fsync=interval, the default). The append
		// encodes into a reused slab and issues one Write, so
		// durability must not add a single allocation per interval.
		wl, err := wal.Open(wal.Options{Dir: b.TempDir(), Policy: wal.SyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		defer wl.Close()
		w := newWarmWindow()
		w.SetLog(wl)
		batch := make([]*bitset.Set, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch[0] = pool[i%len(pool)]
			if _, err := w.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(w.T()), "window-intervals")
	})
	paths := bitset.New(numPaths)
	for paths.Count() < 8 {
		paths.Add(rng.Intn(numPaths))
	}
	b.Run("windowed-goodcount", func(b *testing.B) {
		w := newWarmWindow()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.GoodCount(paths)
		}
	})
	b.Run("windowed-allcongested", func(b *testing.B) {
		w := newWarmWindow()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.AllCongestedCount(paths)
		}
	})
}

// BenchmarkShardedEpochSolve measures one streaming epoch of the
// sharded solver over a multi-shard topology — every shard block solved
// and merged — comparing the from-scratch path (fresh solver, no
// carried-forward plans) against the warm-started path (retained
// solver, always-good set stable across epochs). The warm path is the
// steady state of tomod's per-shard loops; the gap is the structural
// work — enumeration, augmentation, identifiability, QR factorization —
// that the carried-forward plan avoids. Results are bit-identical
// either way (TestMetamorphicWarmShardSolves).
func BenchmarkShardedEpochSolve(b *testing.B) {
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	part := topology.NewPartition(top)
	if part.NumShards() < 2 {
		b.Fatalf("topology has %d shards, want ≥ 2", part.NumShards())
	}
	win := stream.NewSharded(top.NumPaths(), 1000, part.PathShards(), part.NumShards())
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, 1200, rng)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 1200; t++ {
		win.Add(model.Interval(t, rng).CongestedPaths)
	}
	opts := []estimator.Option{estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02)}
	epoch := func(b *testing.B, sv *estimator.ShardedSolver) {
		blocks := make([]*core.Result, sv.NumShards())
		for s := range blocks {
			res, _, err := sv.SolveShard(context.Background(), s, win.Shard(s))
			if err != nil {
				b.Fatal(err)
			}
			blocks[s] = res
		}
		if est := sv.Merge(blocks, win); len(est.LinkProb) != top.NumLinks() {
			b.Fatal("malformed merged estimate")
		}
	}
	b.Run("from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sv, err := estimator.NewShardedSolver(top, opts...)
			if err != nil {
				b.Fatal(err)
			}
			epoch(b, sv)
		}
	})
	b.Run("warm-started", func(b *testing.B) {
		sv, err := estimator.NewShardedSolver(top, opts...)
		if err != nil {
			b.Fatal(err)
		}
		epoch(b, sv) // cold epoch builds every shard's plan
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch(b, sv)
		}
	})
}

// BenchmarkSnapshotQuery measures the streaming service's query-side
// latency through the real HTTP handlers (mux, JSON encoding and all)
// against a published solver snapshot, the path a monitoring dashboard
// polls.
func BenchmarkSnapshotQuery(b *testing.B) {
	scale := experiment.Small()
	scale.BriteNumAS = 20
	scale.BritePaths = 80
	top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := server.New(top, server.Config{
		WindowSize: 500,
		SolverOpts: []estimator.Option{
			estimator.WithMaxSubsetSize(2),
			estimator.WithAlwaysGoodTol(0.02),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, 700, rng)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 700; t++ {
		s.Ingest([]*bitset.Set{model.Interval(t, rng).CongestedPaths})
	}
	if snap := s.Recompute(context.Background()); snap.Err != nil {
		b.Fatal(snap.Err)
	}
	handler := s.Handler()
	serve := func(b *testing.B, method, url string) {
		req := httptest.NewRequest(method, url, nil)
		for i := 0; i < b.N; i++ {
			rw := httptest.NewRecorder()
			handler.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				b.Fatalf("%s %s: %d", method, url, rw.Code)
			}
		}
	}
	b.Run("link", func(b *testing.B) { serve(b, http.MethodGet, "/v1/links/3") })
	b.Run("status", func(b *testing.B) { serve(b, http.MethodGet, "/v1/status") })
	b.Run("congested-paths", func(b *testing.B) { serve(b, http.MethodGet, "/v1/paths/congested?min=0.25") })
}

// BenchmarkFigure4Parallel measures the parallel experiment engine:
// the same Figure 4(a) regeneration fanned out over 1, 2 and 4
// workers. Output is bit-identical across worker counts (see
// TestFigure4ParallelMatchesSerial); only wall-clock should move.
func BenchmarkFigure4Parallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(sizeName(workers), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Figure4(cfg, experiment.Brite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// planRepairFixture builds the Small-sparse streaming state behind
// BenchmarkPlanRepair and BenchmarkEpochSolveBatch: a warm unsharded
// plan over a full window, plus a drifted twin of the window in which
// one redundantly covered always-good path turned congested — the
// frontier-stable drift class Plan.Repair absorbs.
func planRepairFixture(b *testing.B) (top *topology.Topology, cfg core.Config, base, drifted *stream.Window) {
	b.Helper()
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg = core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	const intervals, capacity = 1200, 1000
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		b.Fatal(err)
	}
	stream2 := make([]*bitset.Set, intervals)
	base = stream.NewWindow(top.NumPaths(), capacity)
	for t := 0; t < intervals; t++ {
		stream2[t] = model.Interval(t, rng).CongestedPaths.Clone()
		base.Add(stream2[t])
	}
	// Pick an always-good path whose links all stay covered by the
	// remaining good paths: congesting it drifts the always-good set
	// without moving the §5.2 frontier.
	good := base.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	goodLinks := top.LinksOf(good)
	drift := -1
	good.ForEach(func(p int) bool {
		rest := good.Clone()
		rest.Remove(p)
		if top.LinksOf(rest).Equal(goodLinks) {
			drift = p
			return false
		}
		return true
	})
	if drift < 0 {
		b.Fatal("no redundantly covered always-good path; fixture cannot drift repairably")
	}
	drifted = stream.NewWindow(top.NumPaths(), capacity)
	for t := 0; t < intervals; t++ {
		s := stream2[t]
		if t%5 == 0 {
			s = s.Clone()
			s.Add(drift)
		}
		drifted.Add(s)
	}
	return top, cfg, base, drifted
}

// BenchmarkPlanRepair measures an epoch solve across an always-good
// drift with the plan repaired in place (core.Plan.Repair re-keys the
// retained structure in O(Δ)) against the cold rebuild the same drift
// used to force. Every iteration of the repaired leg really drifts:
// the two windows alternate, so each solve absorbs a fresh always-good
// change. Results are bit-identical (TestPlanRepairMatchesColdUnderDrift
// and the metamorphic drift suite pin this).
func BenchmarkPlanRepair(b *testing.B) {
	top, cfg, base, drifted := planRepairFixture(b)
	ctx := context.Background()
	stores := []*stream.Window{base, drifted}
	// Confirm the fixture's drift is inside the repair class.
	_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	_, next, err := core.ComputePlanned(ctx, top, drifted, cfg, plan)
	if err != nil {
		b.Fatal(err)
	}
	if next != plan || plan.RepairCount() != 1 {
		b.Fatal("fixture drift was not repaired; benchmark would not measure Repair")
	}
	b.Run("repaired", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ComputePlanned(ctx, top, stores[i%2], cfg, plan); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(plan.RepairCount()), "repairs")
	})
	b.Run("cold-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compute(ctx, top, stores[i%2], cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// frontierMoveFixture builds the Small-sparse streaming state behind
// BenchmarkFrontierMoveRepair: a warm plan over a full window plus a
// drifted twin in which an always-good path that is the sole cover of
// at least one good link turned congested — drift that moves the §5.2
// frontier, which tier-1 Repair must reject and only the tier-2
// numerical patch (core.Plan.RepairNumeric) can absorb warm.
func frontierMoveFixture(b *testing.B) (top *topology.Topology, cfg core.Config, base, drifted *stream.Window) {
	b.Helper()
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg = core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02, NumericalPlanRepair: true, NumericalRepairMaxFrac: 1}
	const intervals, capacity = 1200, 1000
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		b.Fatal(err)
	}
	stream2 := make([]*bitset.Set, intervals)
	base = stream.NewWindow(top.NumPaths(), capacity)
	for t := 0; t < intervals; t++ {
		stream2[t] = model.Interval(t, rng).CongestedPaths.Clone()
		base.Add(stream2[t])
	}
	// Pick an always-good path that uniquely vouches for some link:
	// congesting it shrinks the good-link set, moving the frontier.
	good := base.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	goodLinks := top.LinksOf(good)
	ctx := context.Background()
	var candidates []int
	good.ForEach(func(p int) bool {
		rest := good.Clone()
		rest.Remove(p)
		if !top.LinksOf(rest).Equal(goodLinks) {
			candidates = append(candidates, p)
		}
		return true
	})
	// Among the frontier-moving candidates, use the first whose drift
	// the numerical repair actually absorbs in both directions (rank
	// loss on this fixture would fall back cold and benchmark nothing).
	for _, drift := range candidates {
		d := stream.NewWindow(top.NumPaths(), capacity)
		for t := 0; t < intervals; t++ {
			s := stream2[t]
			if t%5 == 0 {
				s = s.Clone()
				s.Add(drift)
			}
			d.Add(s)
		}
		_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, next, err := core.ComputePlanned(ctx, top, d, cfg, plan); err != nil || next != plan {
			continue
		}
		if _, next, err := core.ComputePlanned(ctx, top, base, cfg, plan); err != nil || next != plan || plan.NumericRepairCount() != 2 {
			continue
		}
		return top, cfg, base, d
	}
	b.Fatal("no always-good path drifts the frontier numerically repairably; fixture unusable")
	return nil, core.Config{}, nil, nil
}

// BenchmarkFrontierMoveRepair measures an epoch solve across a
// frontier-moving always-good drift with the factorization patched in
// place (tier-2, core.Plan.RepairNumeric) against the cold rebuild the
// same drift forces with the option off. The two windows alternate, so
// every repaired iteration patches across a fresh frontier move —
// links leave and re-enter the potentially-congested set each time.
func BenchmarkFrontierMoveRepair(b *testing.B) {
	top, cfg, base, drifted := frontierMoveFixture(b)
	ctx := context.Background()
	stores := []*stream.Window{base, drifted}
	_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("repaired-numeric", func(b *testing.B) {
		// Align the alternation so iteration 0 (base) is itself a
		// frontier move, whatever state the previous b.N run left.
		if _, _, err := core.ComputePlanned(ctx, top, drifted, cfg, plan); err != nil {
			b.Fatal(err)
		}
		before := plan.NumericRepairCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ComputePlanned(ctx, top, stores[i%2], cfg, plan); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := plan.NumericRepairCount() - before; got != b.N {
			b.Fatalf("%d of %d iterations were tier-2 repairs", got, b.N)
		}
		b.ReportMetric(float64(plan.NumericRepairCount()), "repairs")
	})
	b.Run("cold-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compute(ctx, top, stores[i%2], cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdPlanBuild measures the full structural phase — subset
// enumeration, seed rows, augmentation, identifiability reduction and
// QR — from scratch at the Small-sparse scale: the serial build against
// the gang-parallel build at GOMAXPROCS workers. The outputs are
// bit-identical (the metamorphic concurrency suite in internal/core
// pins the full plan across worker counts); only the wall clock and the
// per-build allocation count differ.
func BenchmarkColdPlanBuild(b *testing.B) {
	top, cfg, base, _ := planRepairFixture(b)
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		conc int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := cfg
			c.Concurrency = bc.conc
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ComputePlanned(ctx, top, base, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEpochSolveBatch measures draining a lag burst of K window
// checkpoints: K sequential warm epoch solves versus one batched
// multi-RHS solve over the same retained factorization (identical
// results; linalg pins the per-vector arithmetic).
func BenchmarkEpochSolveBatch(b *testing.B) {
	top, cfg, base, _ := planRepairFixture(b)
	ctx := context.Background()
	const K = 8
	checkpoints := make([]observe.Store, K)
	for i := range checkpoints {
		checkpoints[i] = base.Clone()
	}
	_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range checkpoints {
				if _, _, err := core.ComputePlanned(ctx, top, w, cfg, plan); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := core.ComputePlannedBatch(ctx, top, checkpoints, cfg, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQRColumnUpdate measures the incremental QR column updates
// against from-scratch refactorization, the linalg primitives behind
// plan repair's toolkit: AppendCol is bit-identical to the refactor it
// replaces, DeleteCol is the Givens downdate.
func BenchmarkQRColumnUpdate(b *testing.B) {
	const m, n = 300, 100
	rng := rand.New(rand.NewSource(1))
	wide := linalg.NewMatrix(m, n+1)
	for i := range wide.Data {
		if rng.Intn(6) == 0 {
			wide.Data[i] = 1
		}
	}
	narrow := wide.DropCol(n)
	col := wide.Col(n)
	b.Run("append-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := linalg.FactorInPlace(narrow.Clone())
			b.StartTimer()
			f.AppendCol(col)
		}
	})
	b.Run("delete-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := linalg.FactorInPlace(wide.Clone())
			b.StartTimer()
			f.DeleteCol(n / 2)
		}
	})
	b.Run("refactor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.FactorInPlace(wide.Clone())
		}
	})
}

// BenchmarkMetricsObserve pins the telemetry hot path at 0 allocs/op:
// the instrumented ingest/epoch paths observe through pre-resolved
// handles exactly like these, so the bench alloc gate (-allocs-for
// MetricsObserve) guards the whole instrumentation layer.
func BenchmarkMetricsObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench_ops_total", "ops")
	gauge := reg.Gauge("bench_depth", "depth")
	hist := reg.Histogram("bench_latency_seconds", "latency", telemetry.ExpBuckets(1e-6, 4, 12))
	child := reg.CounterVec("bench_labeled_total", "labeled ops", "kind").With("hot")
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gauge.Set(int64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i%1000) * 1e-6)
		}
	})
	b.Run("vec-child", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			child.Inc()
		}
	})
}

// ingestFixture draws n netsim intervals over the Medium-Brite
// topology: the path universe and congestion density of the tomod
// benchmark's ingest workloads.
func ingestFixture(b *testing.B, n int) (*topology.Topology, []*bitset.Set) {
	top, err := experiment.BuildTopology(experiment.Brite, experiment.Medium(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model, err := netsim.NewModel(top, netsim.DefaultConfig(netsim.RandomCongestion), n, rng)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*bitset.Set, n)
	for t := range batch {
		batch[t] = model.Interval(t, rng).CongestedPaths
	}
	return top, batch
}

// referenceSets is the encoding/json ingest decode: wire intervals to
// range-checked path sets.
func referenceSets(b *testing.B, intervals [][]int, numPaths int) []*bitset.Set {
	batch := make([]*bitset.Set, len(intervals))
	for i, paths := range intervals {
		set, err := ingestcodec.PathSet(i, paths, numPaths)
		if err != nil {
			b.Fatal(err)
		}
		batch[i] = set
	}
	return batch
}

// BenchmarkIngestDecode measures the decode of one 10-interval
// POST /v1/observations body on Medium-Brite: the single-pass codec
// the handler runs on canonical bodies, against the encoding/json
// reference it falls back to for anything else.
func BenchmarkIngestDecode(b *testing.B) {
	top, batch := ingestFixture(b, 10)
	req := server.ObservationsRequest{Intervals: make([]server.IntervalObs, len(batch))}
	for i, set := range batch {
		req.Intervals[i].CongestedPaths = set.Indices()
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	numPaths := top.NumPaths()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, ok := ingestcodec.DecodeObservations(body, numPaths); !ok {
				b.Fatal("canonical body not handled")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req server.ObservationsRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			intervals := make([][]int, len(req.Intervals))
			for i, iv := range req.Intervals {
				intervals[i] = iv.CongestedPaths
			}
			referenceSets(b, intervals, numPaths)
		}
	})
}

// BenchmarkC1Ingest measures one c1 ingest hop of a 20-interval batch
// on Medium-Brite: the coordinator's encode from path sets plus the
// worker's decode back to path sets — the codec against the
// encoding/json round trip it replaced. Both write identical bytes.
func BenchmarkC1Ingest(b *testing.B) {
	top, batch := ingestFixture(b, 20)
	numPaths := top.NumPaths()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			body := ingestcodec.AppendIngest(nil, 1000, batch)
			if _, _, ok := ingestcodec.DecodeIngest(body, numPaths); !ok {
				b.Fatal("canonical body not handled")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			intervals := make([][]int, len(batch))
			for i, set := range batch {
				intervals[i] = set.Indices()
			}
			body, err := json.Marshal(cluster.IngestRequest{BaseSeq: 1000, Intervals: intervals})
			if err != nil {
				b.Fatal(err)
			}
			var req cluster.IngestRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			referenceSets(b, req.Intervals, numPaths)
		}
	})
}
