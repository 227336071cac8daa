// Command tomod is the streaming tomography daemon: it ingests
// per-interval path observations over HTTP, continuously recomputes the
// configured estimator's result over a sliding window, and answers
// link-probability, subset-probability and congested-path queries from
// the latest solver epoch.
//
// Serve mode (default):
//
//	tomod -topology topo.json -listen :9900 -window 1000 -recompute 2s \
//	      -algo correlation-complete
//
// The topology JSON is the format written by cmd/topogen and
// topology.WriteJSON; alternatively -gen brite|sparse generates one on
// startup (useful for demos and load tests).
//
// With -algo correlation-complete-sharded the daemon shards by
// correlation-set partition: ingest routes each interval into one ring
// per shard, one solver goroutine per shard recomputes its block on
// independent epochs (warm-starting the null space and factorization
// while the shard's always-good set is stable), and queries are
// answered from a merged snapshot. /v1/status then carries a per-shard
// "shards" array (epoch, seq_high, lag_intervals, warm,
// last_compute_ms).
//
// API (every response in a versioned envelope with machine-readable
// error codes; the estimate-backed endpoints — links and subsets —
// accept ?algo= to select any registered estimator per request):
//
//	POST /v1/observations      {"intervals":[{"congested_paths":[3,17]},...]}
//	GET  /v1/links/{id}        best estimate of P(link congested), with epoch
//	GET  /v1/subsets           correlation-subset good probabilities
//	GET  /v1/subsets/{id}      one subset, with joint congestion probability
//	GET  /v1/estimators        the estimator registry
//	GET  /v1/paths/congested   paths above ?min= congested fraction (observation-level)
//	GET  /v1/status            window fill, epoch, solver lag and stats (+ per-shard, WAL, degraded state)
//	GET  /v1/healthz           liveness probe
//	GET  /v1/readyz            readiness probe (503 with a reason until the first epoch or while degraded)
//	GET  /metrics              Prometheus text exposition (HTTP, ingest, WAL, solver)
//
// Logs are structured (log/slog): -log-format text|json and
// -log-level debug|info|warn|error. SIGHUP logs a snapshot of the
// metric totals. -pprof mounts net/http/pprof on the main listener;
// -debug-addr starts a separate debug listener carrying pprof and
// /metrics (useful to keep profiling off the public port).
//
// With -wal-dir every acknowledged observation batch is appended to a
// checksummed write-ahead log before it is applied; on restart the
// daemon recovers the sliding window from the log (truncating a torn
// tail left by a crash mid-write) and resumes ingest at the recovered
// sequence. -wal-fsync trades durability for latency: batch (sync
// every ack), interval (background sync, default), off.
//
// Cluster mode splits the sharded daemon across processes along the
// correlation-set partition seam. Workers own disjoint shard sets
// (rings, warm plans, per-shard WALs under -wal-dir/shard-<k>) and
// serve the internal /c1/* API; the coordinator owns the public /v1/*
// surface, fans ingest out to the fleet, and merges per-shard blocks —
// bit-identical to a single sharded process over the same intervals:
//
//	tomod -role worker -topology topo.json -listen :9101 -wal-dir w0-wal
//	tomod -role worker -topology topo.json -listen :9102 -wal-dir w1-wal
//	tomod -role coordinator -topology topo.json -listen :9900 \
//	      -peers http://127.0.0.1:9101,http://127.0.0.1:9102
//
// Shard k lives on peer k mod N (peer order is the placement, so keep
// -peers stable across coordinator restarts). While any worker is
// unreachable, ingest answers 503 shard_unavailable and queries serve
// the last merged snapshot; a restarted worker replays its per-shard
// WALs and the coordinator streams it the missed suffix before ingest
// resumes. /v1/status carries the per-worker placement and health.
//
// Load-generator mode drives simulated netsim intervals at a running
// daemon (the topology must be the same file/generation):
//
//	tomod -loadgen -topology topo.json -target http://localhost:9900 \
//	      -intervals 10000 -batch 100 -scenario random
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wal"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "topology JSON file (cmd/topogen format)")
		gen       = flag.String("gen", "", "generate a topology instead: brite or sparse")
		scaleName = flag.String("scale", "small", "generated-topology scale: small, medium, or paper")
		genSeed   = flag.Int64("genseed", 1, "generated-topology seed")

		listen      = flag.String("listen", ":9900", "serve: HTTP listen address")
		role        = flag.String("role", "standalone", "serve: process role: standalone, coordinator, or worker")
		peers       = flag.String("peers", "", "coordinator: comma-separated worker base URLs; shard k lives on peer k mod N")
		workerID    = flag.String("worker-id", "", "worker: placement identity to enforce (empty = adopt the coordinator's)")
		window      = flag.Int("window", 1000, "serve: sliding-window capacity in intervals")
		recompute   = flag.Duration("recompute", 2*time.Second, "serve: solver recompute cadence")
		algo        = flag.String("algo", estimator.CorrelationComplete, "serve: epoch estimator (see /v1/estimators)")
		concurrency = flag.Int("concurrency", 0, "serve: solver workers per epoch (0/-1 = all CPUs, 1 = serial)")
		maxSubset   = flag.Int("maxsubset", 2, "serve: Correlation-complete max subset size")
		tol         = flag.Float64("tol", 0.02, "serve: always-good congested-fraction tolerance")
		numRepair   = flag.Bool("numerical-plan-repair", false, "serve: enable tier-2 numerical plan repair across good-link frontier moves (numerically, not bitwise, equivalent to a rebuild)")
		epochEvery  = flag.Int("epoch-every", 0, "serve: also publish one epoch per N ingested intervals (0 = time-based only)")

		walDir      = flag.String("wal-dir", "", "serve: write-ahead log directory for durable ingest (empty = no durability)")
		walFsync    = flag.String("wal-fsync", "interval", "serve: WAL fsync policy: batch, interval, or off")
		walEvery    = flag.Duration("wal-fsync-every", 100*time.Millisecond, "serve: background fsync cadence with -wal-fsync=interval")
		walSegBytes = flag.Int64("wal-segment-bytes", 8<<20, "serve: WAL segment rotation size")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "serve: http.Server ReadHeaderTimeout (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", time.Minute, "serve: http.Server ReadTimeout (whole request, incl. body)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "serve: http.Server IdleTimeout for keep-alive connections")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		pprofOn   = flag.Bool("pprof", false, "serve: mount net/http/pprof under /debug/pprof/ on the main listener")
		debugAddr = flag.String("debug-addr", "", "serve: separate listen address for pprof and /metrics (implies profiling regardless of -pprof)")

		loadgen   = flag.Bool("loadgen", false, "run as load generator instead of serving")
		target    = flag.String("target", "http://localhost:9900", "loadgen: base URL of the daemon")
		intervals = flag.Int("intervals", 10000, "loadgen: intervals to simulate and send")
		batch     = flag.Int("batch", 100, "loadgen: intervals per POST")
		scenario  = flag.String("scenario", "random", "loadgen: congestion scenario: random, concentrated, or noindep")
		packets   = flag.Int("packets", 1000, "loadgen: probe packets per path per interval")
		perfect   = flag.Bool("perfect", false, "loadgen: perfect E2E monitoring (skip probe sampling)")
		simSeed   = flag.Int64("seed", 1, "loadgen: simulation seed")
	)
	flag.Parse()

	logger, err := buildLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tomod: %v\n", err)
		os.Exit(1)
	}
	// Process-wide default: the server package logs through its
	// Config.Logger, but stray library logs should match too.
	slog.SetDefault(logger)

	top, err := loadTopology(*topoPath, *gen, *scaleName, *genSeed)
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("topology loaded",
		"links", top.NumLinks(), "paths", top.NumPaths(), "corr_sets", len(top.CorrSets))

	if *loadgen {
		scen, err := parseScenario(*scenario)
		if err != nil {
			fatal(logger, err)
		}
		simCfg := netsim.DefaultConfig(scen)
		simCfg.PacketsPerPath = *packets
		simCfg.PerfectE2E = *perfect
		if err := runLoadGen(logger, top, server.LoadConfig{
			Target:    *target,
			Intervals: *intervals,
			BatchSize: *batch,
			Seed:      *simSeed,
			Sim:       simCfg,
		}); err != nil {
			fatal(logger, err)
		}
		return
	}

	switch *role {
	case "standalone", "coordinator", "worker":
	default:
		fatal(logger, fmt.Errorf("unknown -role %q (want standalone, coordinator, or worker)", *role))
	}

	if *role == "worker" {
		wk := cluster.NewWorker(cluster.WorkerConfig{
			ID:       *workerID,
			Topology: top,
			WALDir:   *walDir,
			Logger:   logger,
		})
		defer wk.Close()
		logger.Info("starting worker",
			"listen", *listen, "worker_id", *workerID, "wal_dir", *walDir)
		if err := runHTTP(logger, wk.Handler(), serveOpts{
			listen:    *listen,
			debugAddr: *debugAddr,
			pprof:     *pprofOn,
			timeouts: httpTimeouts{
				readHeader: *readHeaderTimeout,
				read:       *readTimeout,
				idle:       *idleTimeout,
			},
		}); err != nil {
			fatal(logger, err)
		}
		return
	}

	cfg := server.Config{
		WindowSize:     *window,
		RecomputeEvery: *recompute,
		Algo:           *algo,
		EpochEvery:     *epochEvery,
		Logger:         logger,
		SolverOpts: []estimator.Option{
			estimator.WithMaxSubsetSize(*maxSubset),
			estimator.WithAlwaysGoodTol(*tol),
			estimator.WithConcurrency(*concurrency),
			estimator.WithNumericalPlanRepair(*numRepair),
		},
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			fatal(logger, err)
		}
		cfg.WAL = wal.Options{
			Dir:          *walDir,
			Policy:       policy,
			SyncEvery:    *walEvery,
			SegmentBytes: *walSegBytes,
		}
	}
	if *role == "coordinator" {
		specs, err := parsePeers(*peers)
		if err != nil {
			fatal(logger, err)
		}
		// Cluster scatter-gather exists only along the partition seam:
		// reject an explicitly conflicting -algo, default the rest.
		algoSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "algo" {
				algoSet = true
			}
		})
		if algoSet && cfg.Algo != estimator.CorrelationCompleteSharded {
			fatal(logger, fmt.Errorf("-role coordinator requires -algo %s (got %q)",
				estimator.CorrelationCompleteSharded, cfg.Algo))
		}
		cfg.Algo = estimator.CorrelationCompleteSharded
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Topology:   top,
			Workers:    specs,
			WindowSize: cfg.WindowSize,
			SolverOpts: cfg.SolverOpts,
			Logger:     logger,
		})
		if err != nil {
			fatal(logger, err)
		}
		cfg.Backend = coord
	}
	timeouts := httpTimeouts{
		readHeader: *readHeaderTimeout,
		read:       *readTimeout,
		idle:       *idleTimeout,
	}
	// One startup line with the effective configuration, so a log scrape
	// answers "what was this instance actually running with".
	goVersion, revision := server.BuildInfo()
	logger.Info("starting",
		"listen", *listen,
		"role", *role,
		"peers", *peers,
		"debug_addr", *debugAddr,
		"pprof", *pprofOn || *debugAddr != "",
		"algo", cfg.Algo,
		"window", cfg.WindowSize,
		"recompute", cfg.RecomputeEvery.String(),
		"epoch_every", cfg.EpochEvery,
		"max_subset", *maxSubset,
		"tol", *tol,
		"concurrency", *concurrency,
		"wal_dir", *walDir,
		"wal_fsync", *walFsync,
		"log_format", *logFormat,
		"log_level", *logLevel,
		"go_version", goVersion,
		"revision", revision,
	)
	if err := serve(logger, top, cfg, serveOpts{
		listen:    *listen,
		debugAddr: *debugAddr,
		pprof:     *pprofOn,
		timeouts:  timeouts,
	}); err != nil {
		fatal(logger, err)
	}
}

// fatal logs the error and exits nonzero; the slog replacement for
// log.Fatalf.
func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags.
func buildLogger(w *os.File, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// httpTimeouts bounds how long a client may hold a connection: without
// them one slow-written request (or an idle keep-alive pool) can pin
// server goroutines indefinitely.
type httpTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	idle       time.Duration
}

// loadTopology reads the topology file, or generates one when -gen is
// set.
func loadTopology(path, gen, scaleName string, seed int64) (*topology.Topology, error) {
	switch {
	case path != "" && gen != "":
		return nil, fmt.Errorf("-topology and -gen are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.ReadJSON(f)
	case gen != "":
		var kind experiment.TopologyKind
		switch gen {
		case "brite":
			kind = experiment.Brite
		case "sparse":
			kind = experiment.Sparse
		default:
			return nil, fmt.Errorf("unknown -gen %q (want brite or sparse)", gen)
		}
		var scale experiment.Scale
		switch scaleName {
		case "small":
			scale = experiment.Small()
		case "medium":
			scale = experiment.Medium()
		case "paper":
			scale = experiment.Paper()
		default:
			return nil, fmt.Errorf("unknown -scale %q", scaleName)
		}
		return experiment.BuildTopology(kind, scale, seed)
	default:
		return nil, fmt.Errorf("either -topology or -gen is required")
	}
}

// serveOpts carries the listener layout: the public address, an
// optional separate debug address (pprof + /metrics), and whether to
// expose pprof on the public listener.
type serveOpts struct {
	listen    string
	debugAddr string
	pprof     bool
	timeouts  httpTimeouts
}

// serve runs the streaming service until SIGINT/SIGTERM, then shuts
// down gracefully: stop accepting connections, stop the solver loop.
// SIGHUP logs a snapshot of the metric totals without interrupting
// service.
func serve(logger *slog.Logger, top *topology.Topology, cfg server.Config, opts serveOpts) error {
	s, err := server.New(top, cfg)
	if err != nil {
		return err
	}
	s.Start()
	defer s.Close()
	return runHTTP(logger, s.Handler(), opts)
}

// runHTTP serves handler on the configured listeners until
// SIGINT/SIGTERM, with the optional debug listener and SIGHUP metric
// snapshots; serve mode and worker mode share it.
func runHTTP(logger *slog.Logger, handler http.Handler, opts serveOpts) error {
	if opts.pprof && opts.debugAddr == "" {
		// Profiling on the public listener: explicit opt-in only.
		mux := http.NewServeMux()
		mountPprof(mux)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              opts.listen,
		Handler:           handler,
		ReadHeaderTimeout: opts.timeouts.readHeader,
		ReadTimeout:       opts.timeouts.read,
		IdleTimeout:       opts.timeouts.idle,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			logMetricTotals(logger)
		}
	}()

	errc := make(chan error, 2)
	var debugSrv *http.Server
	if opts.debugAddr != "" {
		mux := http.NewServeMux()
		mountPprof(mux)
		mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))
		debugSrv = &http.Server{
			Addr:              opts.debugAddr,
			Handler:           mux,
			ReadHeaderTimeout: opts.timeouts.readHeader,
		}
		go func() {
			logger.Info("debug listener", "addr", opts.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
	}
	go func() {
		logger.Info("listening", "addr", opts.listen)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if debugSrv != nil {
		debugSrv.Shutdown(shutCtx)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	return nil
}

// parsePeers splits the -peers list into worker specs; peer order is
// the shard placement, so the same list must be passed across
// coordinator restarts.
func parsePeers(peers string) ([]cluster.WorkerSpec, error) {
	var specs []cluster.WorkerSpec
	for _, addr := range strings.Split(peers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		specs = append(specs, cluster.WorkerSpec{Addr: addr})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-role coordinator requires -peers (comma-separated worker URLs)")
	}
	return specs, nil
}

// mountPprof registers the net/http/pprof handlers on mux. Explicit
// registration (rather than the package's init-time DefaultServeMux
// side effect) keeps profiling strictly opt-in.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// logMetricTotals writes one log line per metric family summing its
// series — the SIGHUP "where are the counters" snapshot for operators
// without a scraper attached.
func logMetricTotals(logger *slog.Logger) {
	snap := telemetry.Default().Snapshot()
	totals := make(map[string]float64)
	for key, v := range snap {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		// Histogram series: keep only the family's total observation
		// count; buckets and sums would double-count.
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
			continue
		}
		totals[name] += v
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	args := make([]any, 0, 2*len(names))
	for _, name := range names {
		args = append(args, name, totals[name])
	}
	logger.Info("metrics snapshot", args...)
}

// runLoadGen drives the simulator at the target and prints throughput
// plus the daemon's final status.
func runLoadGen(logger *slog.Logger, top *topology.Topology, cfg server.LoadConfig) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	logger.Info("driving load",
		"intervals", cfg.Intervals, "target", cfg.Target, "batch", cfg.BatchSize)
	stats, err := server.RunLoadGen(ctx, top, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("sent %d intervals in %d batches over %.2fs (%.0f intervals/s; POST p50 %v, p99 %v)\n",
		stats.Intervals, stats.Batches, stats.Elapsed.Seconds(), stats.IntervalsPerSec(),
		stats.PostP50.Round(time.Microsecond), stats.PostP99.Round(time.Microsecond))

	resp, err := http.Get(strings.TrimSuffix(cfg.Target, "/") + "/v1/status")
	if err != nil {
		return fmt.Errorf("fetching final status: %w", err)
	}
	defer resp.Body.Close()
	var env server.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return fmt.Errorf("decoding final status: %w", err)
	}
	if env.Error != nil {
		return fmt.Errorf("final status: %s: %s", env.Error.Code, env.Error.Message)
	}
	out, _ := json.MarshalIndent(json.RawMessage(env.Data), "", "  ")
	fmt.Printf("server status: %s\n", out)
	return nil
}

func parseScenario(name string) (netsim.Scenario, error) {
	switch name {
	case "random":
		return netsim.RandomCongestion, nil
	case "concentrated":
		return netsim.ConcentratedCongestion, nil
	case "noindep":
		return netsim.NoIndependence, nil
	default:
		return 0, fmt.Errorf("unknown -scenario %q (want random, concentrated, or noindep)", name)
	}
}
