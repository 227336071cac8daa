package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/wal"
)

// The settings every workload shares.
const (
	windowSize    = 1000
	alwaysGoodTol = 0.02
	maxSubsetSize = 2
)

func solverOpts() []estimator.Option {
	return []estimator.Option{estimator.WithAlwaysGoodTol(alwaysGoodTol), estimator.WithMaxSubsetSize(maxSubsetSize)}
}

// query kinds of the read mix.
const (
	qLink      = iota // GET /v1/links/{id}
	qSubsets          // GET /v1/subsets
	qCongested        // GET /v1/paths/congested?min=0.25
	qStatus           // GET /v1/status
	qLinkAlgo         // GET /v1/links/{id}?algo=independence
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"link", "subsets", "congested", "status", "link_algo"}

// queryTarget returns the request path of a query and the JSON key of
// the sequence its answer covers.
func queryTarget(kind, link int) (path, seqKey string) {
	switch kind {
	case qSubsets:
		return "/v1/subsets", `"seq_high":`
	case qCongested:
		return "/v1/paths/congested?min=0.25", `"seq_high":`
	case qStatus:
		return "/v1/status", `"snapshot_seq":`
	case qLinkAlgo:
		return "/v1/links/" + strconv.Itoa(link) + "?algo=independence", `"seq_high":`
	default:
		return "/v1/links/" + strconv.Itoa(link), `"seq_high":`
	}
}

// workload is one deployment plus the traffic driven at it.
type workload struct {
	name, why string

	// Deployment.
	kind      experiment.TopologyKind
	regions   []int64 // topology seed per region; fixed, so only traffic varies with --seed
	algo      string
	wal       bool // WAL with an fsync per batch
	cluster   bool // coordinator + one worker per shard on loopback
	recompute time.Duration

	// Traffic.
	rate      float64 // offered intervals/s (open loop)
	batch     int     // intervals per POST
	queryRate float64 // queries/s, open loop
	mix       [numQueryKinds]int
	batchTail float64 // tail quantile of ingest and visibility timings
}

// Each workload's batch tail is the highest of p99/p95/p90 that leaves
// at least minBeyondTail samples beyond it in a 15-second run.
var workloads = []*workload{
	{
		name: "ingest-wal",
		why:  "2500 intervals/s in 10-interval POSTs on Medium-Brite with a WAL fsynced per batch: decode, WAL append and ring add carry the load, the solver little.",
		kind: experiment.Brite, regions: []int64{1}, algo: estimator.CorrelationComplete,
		wal: true, recompute: 500 * time.Millisecond,
		rate: 2500, batch: 10, queryRate: 200, mix: [numQueryKinds]int{qLink: 100},
		batchTail: 0.99,
	},
	{
		name: "cluster-loopback",
		why:  "Coordinator + 2 in-process workers over two unioned Medium-Brite regions (every paper-family topology is one shard; Sparse-Small seeds 1-2 split 119+1): c1 wire, ingest fan-out, shard solves, merge.",
		kind: experiment.Brite, regions: []int64{1, 2}, algo: estimator.CorrelationCompleteSharded,
		cluster: true, recompute: 250 * time.Millisecond,
		rate: 1000, batch: 20, queryRate: 200, mix: [numQueryKinds]int{qLink: 100},
		batchTail: 0.95,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// topology builds the workload's (seed-independent) topology.
func (w *workload) topology() (*topology.Topology, error) {
	return unionRegions(w.kind, experiment.Medium(), w.regions)
}

// deployment is one running tomod: the server behind a loopback
// listener and, for the cluster workload, its coordinator and workers.
type deployment struct {
	srv     *server.Server
	base    string // http://host:port of the public API
	coord   *cluster.Coordinator
	https   []*http.Server
	serving sync.WaitGroup // one per Serve goroutine
	workers []*cluster.Worker
	walDir  string
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// serve starts an HTTP server for h on a fresh loopback port.
func (d *deployment) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.https = append(d.https, hs)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		hs.Serve(l) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + l.Addr().String(), nil
}

// deploy starts the workload's tomod over top, with its WAL (if any)
// in a fresh directory under walRoot, pre-fills one window from the
// corpus and publishes the first epoch: everything setup_s times.
func (w *workload) deploy(top *topology.Topology, walRoot string, c *corpus) (*deployment, error) {
	d := &deployment{}
	cfg := server.Config{
		WindowSize:     windowSize,
		RecomputeEvery: w.recompute,
		Algo:           w.algo,
		SolverOpts:     solverOpts(),
		Logger:         quietLogger,
	}
	if w.wal {
		dir, err := os.MkdirTemp(walRoot, "wal-")
		if err != nil {
			return nil, err
		}
		d.walDir = dir
		cfg.WAL = wal.Options{Dir: dir, Policy: wal.SyncPerBatch}
	}
	if w.cluster {
		coord, err := d.startFleet(top)
		if err != nil {
			d.close()
			return nil, err
		}
		cfg.Backend = coord
	}
	srv, err := server.New(top, cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = srv
	if d.coord != nil {
		// Ingest fans out to the workers, so they must be assigned
		// their shards before the pre-fill.
		srv.Start()
		if err := waitFleetHealthy(d.coord, 30*time.Second); err != nil {
			d.close()
			return nil, err
		}
	}
	if err := d.prefill(c, w.batch); err != nil {
		d.close()
		return nil, err
	}
	srv.Start()
	if d.base, err = d.serve(srv.Handler()); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// startFleet serves one cluster.Worker per shard of top on loopback
// listeners and returns a coordinator over them, not yet started.
func (d *deployment) startFleet(top *topology.Topology) (*cluster.Coordinator, error) {
	specs := make([]cluster.WorkerSpec, max(topology.NewPartition(top).NumShards(), 1))
	for i := range specs {
		wk := cluster.NewWorker(cluster.WorkerConfig{Topology: top, Logger: quietLogger})
		d.workers = append(d.workers, wk)
		addr, err := d.serve(wk.Handler())
		if err != nil {
			return nil, err
		}
		specs[i] = cluster.WorkerSpec{Addr: addr}
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Topology:   top,
		Workers:    specs,
		WindowSize: windowSize,
		SolverOpts: solverOpts(),
		Logger:     quietLogger,
	})
	if err != nil {
		return nil, err
	}
	d.coord = coord
	return coord, nil
}

func waitFleetHealthy(c *cluster.Coordinator, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for len(c.ClusterStatus().UnreachableShards) > 0 {
		if time.Now().After(deadline) {
			return errors.New("cluster workers never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// prefill ingests one window of the corpus through Server.Ingest and
// publishes the first epoch synchronously.
func (d *deployment) prefill(c *corpus, batch int) error {
	for i := 0; i < windowSize; i += batch {
		if _, err := d.srv.Ingest(c.sets[i : i+batch]); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	snap := d.srv.Recompute(context.Background())
	if snap.Err != nil {
		return fmt.Errorf("prefill epoch: %w", snap.Err)
	}
	return nil
}

// close stops everything deploy started and waits for it; the WAL
// directory is removed.
func (d *deployment) close() {
	for _, hs := range d.https {
		hs.Close()
	}
	d.serving.Wait()
	if d.srv != nil {
		d.srv.Close() // also closes the coordinator backend
	} else if d.coord != nil {
		d.coord.Close()
	}
	for _, wk := range d.workers {
		wk.Close()
	}
	if d.walDir != "" {
		os.RemoveAll(filepath.Clean(d.walDir))
	}
}
