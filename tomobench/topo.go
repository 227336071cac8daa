package main

import (
	"fmt"
	"strings"

	"repro/internal/experiment"
	"repro/internal/topology"
)

// unionRegions builds the disjoint union of independently generated
// regions: link, router-link, AS and path IDs are offset per region,
// so no path or correlation set crosses a region boundary and the
// partitioner gives every region at least one shard of its own.
//
// The union exists because no single generated topology shards: every
// paper-family topology at medium and paper scale partitions into one
// shard (see census), so a multi-shard workload has to be assembled.
func unionRegions(kind experiment.TopologyKind, scale experiment.Scale, seeds []int64) (*topology.Topology, error) {
	var links []topology.Link
	var paths []topology.Path
	var corr [][]int
	routerOff, asOff := 0, 0
	for r, seed := range seeds {
		reg, err := experiment.BuildTopology(kind, scale, seed)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", r, err)
		}
		linkOff, maxRouter, maxAS := len(links), -1, -1
		for _, l := range reg.Links {
			rls := make([]int, len(l.RouterLinks))
			for i, rl := range l.RouterLinks {
				rls[i] = rl + routerOff
				maxRouter = max(maxRouter, rl)
			}
			as := l.AS
			if as >= 0 {
				maxAS = max(maxAS, as)
				as += asOff
			}
			links = append(links, topology.Link{ID: l.ID + linkOff, Name: fmt.Sprintf("r%d/%s", r, l.Name), AS: as, RouterLinks: rls})
		}
		for _, p := range reg.Paths {
			ls := make([]int, len(p.Links))
			for i, li := range p.Links {
				ls[i] = li + linkOff
			}
			paths = append(paths, topology.Path{ID: len(paths), Name: fmt.Sprintf("r%d/%s", r, p.Name), Links: ls})
		}
		for _, set := range reg.CorrSets {
			s := make([]int, len(set))
			for i, li := range set {
				s[i] = li + linkOff
			}
			corr = append(corr, s)
		}
		routerOff += maxRouter + 1
		asOff += maxAS + 1
	}
	return topology.NewChecked(links, paths, corr)
}

// shardSizes returns the path count of every partition shard.
func shardSizes(top *topology.Topology) []int {
	pt := topology.NewPartition(top)
	if pt.NumShards() == 0 {
		return []int{top.NumPaths()}
	}
	sizes := make([]int, pt.NumShards())
	for s := range sizes {
		sizes[s] = pt.ShardPaths(s).Count()
	}
	return sizes
}

// shardSkew is the largest shard's path count over the mean shard's:
// 1 is perfectly balanced, and a solve waiting on every shard takes
// as long as the largest.
func shardSkew(sizes []int) float64 {
	total, largest := 0, 0
	for _, n := range sizes {
		total += n
		largest = max(largest, n)
	}
	return float64(largest) * float64(len(sizes)) / float64(total)
}

// census prints the shard structure of every paper-family topology,
// the finding behind the region-union workloads.
func census() error {
	scales := []struct {
		name  string
		scale experiment.Scale
	}{{"small", experiment.Small()}, {"medium", experiment.Medium()}, {"paper", experiment.Paper()}}
	for _, kind := range []experiment.TopologyKind{experiment.Brite, experiment.Sparse} {
		for _, sc := range scales {
			for seed := int64(1); seed <= 3; seed++ {
				top, err := experiment.BuildTopology(kind, sc.scale, seed)
				if err != nil {
					return err
				}
				sizes := shardSizes(top)
				fmt.Printf("census %-6s %-6s seed=%d links=%d paths=%d shards=%d sizes=%s\n",
					kind, sc.name, seed, top.NumLinks(), top.NumPaths(), len(sizes), joinInts(sizes, "+"))
			}
		}
	}
	return nil
}

func joinInts(xs []int, sep string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, sep)
}
