package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// LoadConfig parameterizes a load-generation run: netsim.Model
// intervals simulated over the topology and POSTed at a running server
// in batches.
type LoadConfig struct {
	// Target is the server's base URL, e.g. "http://localhost:9900".
	Target string

	// Intervals is the total number of intervals to simulate and send.
	Intervals int

	// BatchSize is the number of intervals per POST (default 100).
	BatchSize int

	// Seed seeds the simulation; the same seed against the same
	// topology replays the same observation stream.
	Seed int64

	// Sim configures the congestion/loss/probing simulator.
	Sim netsim.Config

	// Client is the HTTP client to use (default http.DefaultClient).
	Client *http.Client
}

// LoadStats summarizes a load-generation run.
type LoadStats struct {
	Intervals int
	Batches   int
	Elapsed   time.Duration

	// PostP50 and PostP99 are percentiles of the per-POST latency, from
	// sending a batch to reading the server's acknowledgement
	// (nearest-rank over Batches samples).
	PostP50, PostP99 time.Duration
}

// IntervalsPerSec is the achieved ingest throughput.
func (st LoadStats) IntervalsPerSec() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.Intervals) / st.Elapsed.Seconds()
}

// RunLoadGen simulates cfg.Intervals netsim intervals over the topology
// and drives them at the target server's ingest endpoint in batches.
// The topology must be the same one the server was started with.
func RunLoadGen(ctx context.Context, top *topology.Topology, cfg LoadConfig) (LoadStats, error) {
	if cfg.Intervals <= 0 {
		return LoadStats{}, fmt.Errorf("loadgen: Intervals must be positive")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 100
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	model, err := netsim.NewModel(top, cfg.Sim, cfg.Intervals, rng)
	if err != nil {
		return LoadStats{}, fmt.Errorf("loadgen: %w", err)
	}
	url := strings.TrimSuffix(cfg.Target, "/") + "/v1/observations"

	var st LoadStats
	var lat []time.Duration
	start := time.Now()
	batch := make([]IntervalObs, 0, cfg.BatchSize)
	for t := 0; t < cfg.Intervals; t++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		obs := model.Interval(t, rng)
		batch = append(batch, IntervalObs{CongestedPaths: obs.CongestedPaths.Indices()})
		if len(batch) == cfg.BatchSize || t == cfg.Intervals-1 {
			sent := time.Now()
			if err := postBatch(ctx, client, url, batch); err != nil {
				return st, err
			}
			lat = append(lat, time.Since(sent))
			st.Intervals += len(batch)
			st.Batches++
			batch = batch[:0]
		}
	}
	st.Elapsed = time.Since(start)
	slices.Sort(lat)
	st.PostP50, st.PostP99 = nearestRank(lat, 0.50), nearestRank(lat, 0.99)
	return st, nil
}

// nearestRank is the q-quantile of ascending samples: the smallest
// sample with at least a q fraction of the samples at or below it.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// postBatch sends one ObservationsRequest and checks for a 200.
func postBatch(ctx context.Context, client *http.Client, url string, batch []IntervalObs) error {
	body, err := json.Marshal(ObservationsRequest{Intervals: batch})
	if err != nil {
		return fmt.Errorf("loadgen: encoding batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("loadgen: POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
