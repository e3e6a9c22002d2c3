package cluster_test

import (
	"testing"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// batchAxis is a deliberately hostile outage axis: unsorted, with
// duplicates, spanning sub-minute to multi-hour windows so cut points land
// before, inside, and after every plan phase and DG transfer step.
func batchAxis() []time.Duration {
	return []time.Duration{
		time.Hour, 30 * time.Second, 5 * time.Minute, 30 * time.Second,
		2 * time.Hour, 45 * time.Minute, 10 * time.Minute, 90 * time.Second,
		8 * time.Hour, 3 * time.Hour, 20 * time.Minute, time.Minute,
		6 * time.Hour, 15 * time.Minute, 4 * time.Hour, 5 * time.Minute,
	}
}

// TestBatchMatchesScalar is the batch kernel's ground truth: across the
// full variant set (invariant planners and the outage-scaling hybrids),
// every Table 3 configuration, every workload, and a 16-point
// unsorted-with-duplicates axis, SimulateOutageBatch must equal per-point
// Simulate (the trace-recording oracle, traces stripped) bit for bit —
// exact struct equality, no tolerance.
func TestBatchMatchesScalar(t *testing.T) {
	env := technique.DefaultEnv(16)
	peak := env.PeakPower()
	outages := batchAxis()
	checked := 0
	for _, v := range core.New(16).TechVariants() {
		for _, w := range workload.All() {
			for _, b := range cost.Table3(peak) {
				s := cluster.Scenario{Env: env, Workload: w, Backup: b, Technique: v.Tech}
				got, err := cluster.SimulateOutageBatch(s, outages)
				if err != nil {
					t.Fatalf("%s/%s/%s: batch: %v", v.Tech.Name(), w.Name, b.Name, err)
				}
				if len(got) != len(outages) {
					t.Fatalf("%s/%s/%s: batch returned %d results for %d outages", v.Tech.Name(), w.Name, b.Name, len(got), len(outages))
				}
				for i, d := range outages {
					s.Outage = d
					want, err := cluster.Simulate(s)
					if err != nil {
						t.Fatalf("%s/%s/%s/%v: scalar: %v", v.Tech.Name(), w.Name, b.Name, d, err)
					}
					want.PerfTrace, want.PowerTrace = nil, nil
					if got[i] != want {
						t.Errorf("%s/%s/%s/%v: batch diverges from scalar\n got %+v\nwant %+v",
							v.Tech.Name(), w.Name, b.Name, d, got[i], want)
					}
					checked++
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d points checked — variant/config/workload enumeration shrank", checked)
	}
}

// TestBatchEdgeCases covers the shapes the sweep loop treats specially:
// empty and single-point axes, and an all-duplicates axis.
func TestBatchEdgeCases(t *testing.T) {
	env := technique.DefaultEnv(16)
	peak := env.PeakPower()
	s := cluster.Scenario{Env: env, Workload: workload.Specjbb(), Backup: cost.LargeEUPS(peak), Technique: technique.Sleep{}}

	if res, err := cluster.SimulateOutageBatch(s, nil); err != nil || res != nil {
		t.Fatalf("empty axis: got (%v, %v), want (nil, nil)", res, err)
	}
	if _, err := cluster.SimulateOutageBatch(s, []time.Duration{time.Hour, 0}); err == nil {
		t.Fatal("non-positive outage accepted")
	}

	s.Outage = 30 * time.Minute
	want, err := cluster.SimulateAggregate(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.SimulateOutageBatch(s, []time.Duration{30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("single-point axis diverges: got %+v, want %+v", got, want)
	}
	got, err = cluster.SimulateOutageBatch(s, []time.Duration{30 * time.Minute, 30 * time.Minute, 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != want {
			t.Fatalf("duplicate axis point %d diverges: got %+v, want %+v", i, r, want)
		}
	}
}
