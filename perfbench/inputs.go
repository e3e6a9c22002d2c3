package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"backuppower/internal/grid"
)

// Grid shape shared by every seed: only the outage durations and the
// process seeds come from the seed, so row counts never change.
const (
	outageCount = 8
	minOutageS  = 30
	maxOutageS  = 2 * 3600

	// Twenty-four processes, eight of each kind, so that the events a seed
	// happens to draw average out and the op cost barely depends on it.
	processCount = 24
	processDraws = 32
)

var (
	gridWorkloads = []string{"specjbb", "memcached", "web-search"}
	gridConfigs   = []string{"MaxPerf", "NoDG", "LargeEUPS", "SmallPUPS"}

	processWorkloads  = []string{"specjbb"}
	processTechniques = []string{"baseline", "sleep", "hibernate", "migration"}
)

// inputs is everything a seed decides.
type inputs struct {
	Seed    int64    `json:"seed"`
	Outages []string `json:"outages"`
	// ProcessSeeds seed the process-cold workload's outage processes.
	ProcessSeeds []int64 `json:"process_seeds"`
}

// newInputs draws the seeded inputs: eight distinct whole-second outage
// durations, log-uniform over [30s, 2h] and sorted, and one seed per
// outage process.
func newInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	var secs []int
	for len(secs) < outageCount {
		lo, hi := math.Log(minOutageS), math.Log(maxOutageS)
		s := int(math.Round(math.Exp(lo + rng.Float64()*(hi-lo))))
		if !seen[s] {
			seen[s] = true
			secs = append(secs, s)
		}
	}
	sort.Ints(secs)
	in := inputs{Seed: seed}
	for _, s := range secs {
		in.Outages = append(in.Outages, fmt.Sprintf("%ds", s))
	}
	for i := 0; i < processCount; i++ {
		in.ProcessSeeds = append(in.ProcessSeeds, rng.Int63())
	}
	return in
}

// sweepSpec is the 2880-row grid: 3 workloads x 4 Table-3 configs x the
// 30-variant technique set x 8 outages.
func (in inputs) sweepSpec() grid.Spec {
	s := grid.Spec{
		Workloads:         gridWorkloads,
		TechniqueVariants: true,
		Outages:           in.Outages,
	}
	for _, c := range gridConfigs {
		s.Configs = append(s.Configs, grid.ConfigDTO{Name: c})
	}
	return s
}

// processSpec is the outage-process grid: 1 workload x 4 configs x 4
// techniques x 24 processes cycling through exponential/Weibull,
// exponential/empirical and empirical/exponential, 32 draws each.
func (in inputs) processSpec() grid.Spec {
	s := grid.Spec{Workloads: processWorkloads}
	for _, c := range gridConfigs {
		s.Configs = append(s.Configs, grid.ConfigDTO{Name: c})
	}
	for _, t := range processTechniques {
		s.Techniques = append(s.Techniques, grid.TechniqueDTO{Name: t})
	}
	dists := [][2]grid.DistDTO{
		{{Kind: "exponential", Mean: "2000h"}, {Kind: "weibull", Mean: "30m", Shape: 0.8}},
		{{Kind: "exponential", Mean: "1500h"}, {Kind: "empirical"}},
		{{Kind: "empirical"}, {Kind: "exponential", Mean: "1h"}},
	}
	for i, seed := range in.ProcessSeeds {
		d := dists[i%len(dists)]
		s.OutageProcesses = append(s.OutageProcesses, grid.ProcessDTO{
			Seed:        seed,
			Draws:       processDraws,
			Arrival:     d[0],
			Duration:    d[1],
			Correlation: 0.3,
		})
	}
	return s
}
