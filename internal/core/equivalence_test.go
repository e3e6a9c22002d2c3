package core

import (
	"math"
	"testing"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// TestAggregateMatchesSimulate is the contract between the two simulation
// entry points: across every shipped technique variant, every Table 3
// configuration, every workload and the registry's outage grid, the
// aggregate fast path must reproduce the trace-producing path's metrics
// bit for bit — same floats, same durations, same booleans. The fast path
// earns its keep by skipping bookkeeping, never by approximating.
func TestAggregateMatchesSimulate(t *testing.T) {
	f := New(16)
	outages := []time.Duration{30 * time.Second, 5 * time.Minute, 30 * time.Minute, 2 * time.Hour}
	workloads := workload.All()
	configs := cost.Table3(f.Env.PeakPower())

	var checked int
	for _, v := range f.variants() {
		for _, w := range workloads {
			for _, b := range configs {
				for _, outage := range outages {
					s := cluster.Scenario{
						Env: f.Env, Workload: w, Backup: b,
						Technique: v.tech, Outage: outage,
					}
					want, err1 := cluster.Simulate(s)
					got, err2 := cluster.SimulateAggregate(s)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s/%s/%s/%v: error mismatch: %v vs %v",
							v.family, w.Name, b.Name, outage, err1, err2)
					}
					if err1 != nil {
						continue
					}
					// The trace pointers are the only intended difference.
					want.PerfTrace, want.PowerTrace = nil, nil
					if got != want {
						t.Fatalf("%s/%s/%s/%v: aggregate diverged\n got: %+v\nwant: %+v",
							v.family, w.Name, b.Name, outage, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d scenario pairs compared — grid construction broke", checked)
	}
}

// denseMinCostUPS is the reference sizing search the bracketed one
// replaced: every point of the rating lattice evaluated in index order,
// folded with the same strict-< argmin.
func denseMinCostUPS(f *Framework, tech technique.Technique, w workload.Spec, outage time.Duration) (OperatingPoint, bool) {
	l := f.newRatingLattice(tech, w, outage)
	if l.peakNeed <= 0 {
		// A zero-draw plan has no lattice to search.
		return f.MinCostUPS(tech, w, outage)
	}
	best, bestCost := -1, math.Inf(1)
	var cands [ratingSteps + 1]ratingCandidate
	for i := range cands {
		cands[i] = l.candidate(i)
		if cands[i].ok && cands[i].cost < bestCost {
			best, bestCost = i, cands[i].cost
		}
	}
	if best < 0 {
		return OperatingPoint{}, false
	}
	return l.operatingPoint(cands[best].backup)
}

// TestBracketSizingMatchesDenseGrid pins the bracketed coarse-then-refine
// rating search against the dense 65-point sweep it replaced: for every
// technique variant, workload and outage in the sizing-heavy grid, both
// must agree on feasibility, and the bracket's selected backup must be the
// dense sweep's argmin exactly — the cost curve over the geometric lattice
// is unimodal (linear electronics + Peukert battery term), so halving the
// stride around the coarse argmin cannot strand the search in a side
// valley. Exact equality (not just within-one-step) keeps every downstream
// figure byte-identical whichever search runs.
func TestBracketSizingMatchesDenseGrid(t *testing.T) {
	f := New(16)
	outages := []time.Duration{30 * time.Second, 30 * time.Minute, 2 * time.Hour}
	for _, v := range f.variants() {
		for _, w := range workload.All() {
			for _, outage := range outages {
				gotOp, gotOK := f.MinCostUPS(v.tech, w, outage)
				wantOp, wantOK := denseMinCostUPS(f, v.tech, w, outage)
				if gotOK != wantOK {
					t.Fatalf("%s/%s/%v: feasibility mismatch: bracket %v, dense %v",
						v.family, w.Name, outage, gotOK, wantOK)
				}
				if !gotOK {
					continue
				}
				if gotOp.Backup != wantOp.Backup {
					t.Errorf("%s/%s/%v: bracket chose %v ($%.4f), dense chose %v ($%.4f)",
						v.family, w.Name, outage,
						gotOp.Backup.UPS.PowerCapacity, gotOp.NormCost,
						wantOp.Backup.UPS.PowerCapacity, wantOp.NormCost)
				}
			}
		}
	}
}
