package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/topology"
)

// corpusWindows is the corpus length in windows. The generator cycles
// the corpus, so its memory and CPU stay constant however long a run.
const corpusWindows = 4

// corpus is the traffic of one run: netsim intervals (drawn from --seed
// after a fixed first window, see setupSeed), their POST bodies
// (JSON-encoded before any server starts) and the order in which
// queries visit links.
type corpus struct {
	model  *netsim.Model
	sets   []*bitset.Set
	batch  int
	bodies [][]byte  // bodies[k] carries sets[k*batch : (k+1)*batch]
	links  []int     // link IDs in query order
	kinds  []int     // query kinds in query order
	jitter []float64 // where in its period each query is due, in [0, 1)
}

// modelSeed fixes which links congest and how often, like the
// topology: it sets how much solver work a workload is, so --seed only
// varies the per-interval draws, the link order and the query mix.
const modelSeed = 1

// setupSeed draws the corpus's first window, the pre-fill of every
// set-up. Which paths a window congests sets the size of the first cold
// solve (1.0s on one seed and 2.0s on another under drifting
// congestion), so a fixed pre-fill keeps setup_s the same work whatever
// --seed is.
const setupSeed = 1

func newCorpus(top *topology.Topology, w *workload, seed int64) (*corpus, error) {
	n := corpusWindows * windowSize
	model, err := netsim.NewModel(top, netsim.DefaultConfig(netsim.RandomCongestion), n, rand.New(rand.NewSource(modelSeed)))
	if err != nil {
		return nil, err
	}
	// The first window is the pre-fill that setup_s times: drawn from
	// setupSeed, so every seed sets up the same solver problem.
	setupRng := rand.New(rand.NewSource(setupSeed))
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{model: model, batch: w.batch, sets: make([]*bitset.Set, n)}
	for t := range c.sets {
		r := rng
		if t < windowSize {
			r = setupRng
		}
		c.sets[t] = model.Interval(t, r).CongestedPaths
	}
	if n%w.batch != 0 || windowSize%w.batch != 0 {
		return nil, fmt.Errorf("batch %d does not divide the window and corpus", w.batch)
	}
	for k := 0; k < n/w.batch; k++ {
		req := server.ObservationsRequest{Intervals: make([]server.IntervalObs, w.batch)}
		for i := range req.Intervals {
			req.Intervals[i].CongestedPaths = c.sets[k*w.batch+i].Indices()
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, body)
	}
	c.links = rng.Perm(top.NumLinks())
	total := 0
	for _, weight := range w.mix {
		total += weight
	}
	c.kinds = make([]int, 1000)
	for i := range c.kinds {
		r := rng.Intn(total)
		for k, weight := range w.mix {
			if r < weight {
				c.kinds[i] = k
				break
			}
			r -= weight
		}
	}
	// Queries are due at a random point of their period rather than at
	// its start: paced on the same clock as the POSTs, every few
	// queries would meet a POST at the same instant and the query
	// latencies would split into two peaks with the median between
	// them.
	c.jitter = make([]float64, len(c.kinds))
	for i := range c.jitter {
		c.jitter[i] = rng.Float64()
	}
	return c, nil
}

// post returns the body of the g-th POST since the start of the run,
// the pre-fill included.
func (c *corpus) post(g int) []byte { return c.bodies[g%len(c.bodies)] }

// lastWindow returns the intervals of the window after posts POSTs.
func (c *corpus) lastWindow(posts int) []*bitset.Set {
	end := posts * c.batch
	out := make([]*bitset.Set, 0, windowSize)
	for s := max(end-windowSize, 0); s < end; s++ {
		out = append(out, c.sets[s%len(c.sets)])
	}
	return out
}
