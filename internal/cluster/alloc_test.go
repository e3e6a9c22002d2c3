package cluster

import (
	"testing"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// allocScenarios covers the structurally distinct hot paths: a plain
// throttle plan (few phases, DG transfer steps), a hibernate save plan
// (fixed phases, state-safe tail), and a migration plan (long fixed
// phase) — with and without a DG in the backup.
func allocScenarios() []Scenario {
	e := env()
	peak := e.PeakPower()
	return []Scenario{
		scn(cost.LargeEUPS(peak), technique.ThrottleThenSave{PState: 6, Save: technique.SaveSleep, ActiveFraction: 0.5}, workload.Specjbb(), time.Hour),
		scn(cost.MaxPerf(peak), technique.Baseline{}, workload.Specjbb(), 30*time.Minute),
		scn(cost.NoDG(peak), technique.Hibernate{}, workload.WebSearch(), 30*time.Minute),
		scn(cost.SmallPUPS(peak), technique.Sleep{LowPower: true}, workload.Memcached(), 2*time.Hour),
	}
}

// TestAggregatePathAllocFree pins the simulation walk at zero heap
// allocations per call once the plan is in hand: the cut, the segment
// cursor, the mean accumulator and the UPS state are all stack values. A
// regression here (an escape introduced into walk, the cursor, or the
// battery model) turns every sweep's inner loop back into a GC workload.
func TestAggregatePathAllocFree(t *testing.T) {
	for _, s := range allocScenarios() {
		s := s
		plan := s.Technique.Plan(s.Env, s.Workload, s.Outage)
		effEnd, _ := effectivePressureEnd(s, s.Outage)
		got := testing.AllocsPerRun(100, func() {
			cuts := [1]cut{{T: s.Outage, effEnd: effEnd}}
			var res [1]Result
			if err := walk(s, plan, cuts[:], recorder{}, res[:]); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s/%s: walk allocates %.0f objects/op, want 0", plan.Technique, s.Backup.Name, got)
		}
	}
}

// TestRequiredRuntimeAllocFree pins the sizing sweep's innermost call —
// it runs tens of times per candidate rating, hundreds per MinCostUPS.
func TestRequiredRuntimeAllocFree(t *testing.T) {
	for _, s := range allocScenarios() {
		s := s
		plan := s.Technique.Plan(s.Env, s.Workload, s.Outage)
		got := testing.AllocsPerRun(100, func() {
			RequiredRuntime(s.Env, s.Workload, plan, s.Backup.DG, s.Outage, 10*units.Kilowatt, 1.15, 0.05)
		})
		if got != 0 {
			t.Errorf("%s/%s: RequiredRuntime allocates %.0f objects/op, want 0", plan.Technique, s.Backup.Name, got)
		}
	}
}

// TestBatchWalkAllocFree pins the batch kernel's per-point cost. For an
// outage-invariant planner, widening the axis 16× must not change the
// allocation count at all, because each cut is served by a stack snapshot
// of the walk state — the only allocations are the result/cut slices and
// the single plan. For an outage-scaling hybrid every point is planned and
// walked on its own, so each extra point may allocate exactly one plan's
// worth and nothing more.
func TestBatchWalkAllocFree(t *testing.T) {
	e := env()
	peak := e.PeakPower()
	axis := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Minute + time.Duration(i)*(8*time.Hour-time.Minute)/time.Duration(n)
		}
		return out
	}
	techs := []technique.Technique{
		technique.Sleep{}, technique.Hibernate{}, technique.Throttling{PState: 3},
		technique.ThrottleThenSave{PState: 6, Save: technique.SaveSleep, ActiveFraction: 0.5},
		technique.MigrationThenSleep{ActiveFraction: 0.25},
	}
	for _, tech := range techs {
		for _, b := range []cost.Backup{cost.LargeEUPS(peak), cost.NoDG(peak), cost.DGSmallPUPS(peak)} {
			s := scn(b, tech, workload.Specjbb(), time.Hour)
			measure := func(outages []time.Duration) float64 {
				return testing.AllocsPerRun(50, func() {
					if _, err := SimulateOutageBatch(s, outages); err != nil {
						t.Fatal(err)
					}
				})
			}
			var perPoint float64
			if !technique.PlanOutageInvariant(tech) {
				if raceEnabled {
					// A hybrid's plan names itself through fmt, whose
					// pooled buffers make its count noisy under -race.
					continue
				}
				perPoint = testing.AllocsPerRun(50, func() {
					tech.Plan(s.Env, s.Workload, s.Outage)
				})
			}
			small, large := measure(axis(8)), measure(axis(128))
			if want := small + 120*perPoint; large != want {
				t.Errorf("%s/%s: batch allocates %.0f objects at 128 points, want %.0f (%.0f at 8 points + %.0f per extra point for the plan) — the per-point walk is no longer allocation-free",
					tech.Name(), b.Name, large, want, small, perPoint)
			}
		}
	}
}

// TestSimulateAggregateAllocBound bounds the full entry point: everything
// it allocates must come from the technique's plan construction (a phase
// slice plus per-technique scratch), not from the simulation itself. The
// bound is deliberately loose enough for plan-building changes but tight
// enough to catch the trace/map/sort allocations this path was built to
// shed (the old path cost 15+).
func TestSimulateAggregateAllocBound(t *testing.T) {
	const maxAllocs = 8
	for _, s := range allocScenarios() {
		s := s
		got := testing.AllocsPerRun(100, func() {
			if _, err := SimulateAggregate(s); err != nil {
				t.Fatal(err)
			}
		})
		if got > maxAllocs {
			t.Errorf("%s: SimulateAggregate allocates %.0f objects/op, want <= %d", s.Backup.Name, got, maxAllocs)
		}
	}
}
