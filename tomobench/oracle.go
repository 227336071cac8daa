package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/estimator"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
)

// checkFinal publishes a final epoch synchronously (ingest has stopped)
// and demands that it equal, bit for bit on every link, the offline
// estimate of the workload's algorithm over a window rebuilt from the
// last window of acknowledged intervals. For the cluster this is the
// single-process sharded estimate the coordinator must reproduce. It
// returns the final snapshot.
func checkFinal(ctx context.Context, top *topology.Topology, w *workload, srv *server.Server, c *corpus, posts int) (*server.Snapshot, error) {
	snap := srv.Recompute(ctx)
	if snap.Err != nil {
		return nil, fmt.Errorf("final epoch: %w", snap.Err)
	}
	if want := uint64(posts * w.batch); snap.SeqHigh != want {
		return nil, fmt.Errorf("final epoch covers seq %d, want %d acknowledged intervals", snap.SeqHigh, want)
	}
	win := stream.NewWindow(top.NumPaths(), windowSize)
	for _, s := range c.lastWindow(posts) {
		win.Add(s)
	}
	est, err := estimator.New(w.algo)
	if err != nil {
		return nil, err
	}
	ref, err := est.Estimate(ctx, top, win, solverOpts()...)
	if err != nil {
		return nil, fmt.Errorf("offline estimate: %w", err)
	}
	for e := 0; e < top.NumLinks(); e++ {
		gp, gx := snap.Est.LinkCongestProb(e)
		wp, wx := ref.LinkCongestProb(e)
		if math.Float64bits(gp) != math.Float64bits(wp) || gx != wx {
			return nil, fmt.Errorf("link %d: published (%v, exact=%v) != offline (%v, exact=%v)", e, gp, gx, wp, wx)
		}
	}
	return snap, nil
}

// linkMAE is the mean absolute error of the estimate against the
// simulation's ground truth over the links it reports exactly.
func linkMAE(top *topology.Topology, c *corpus, est *estimator.Estimate) (mae float64, exact int) {
	for e := 0; e < top.NumLinks(); e++ {
		p, ok := est.LinkCongestProb(e)
		if !ok {
			continue
		}
		mae += math.Abs(p - c.model.TrueLinkProb(e))
		exact++
	}
	if exact == 0 {
		return math.NaN(), 0
	}
	return mae / float64(exact), exact
}
