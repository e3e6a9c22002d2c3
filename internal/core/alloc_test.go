package core

import (
	"context"
	"testing"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// TestWarmEvaluateAllocFree pins a memo-cache hit at zero heap
// allocations: the key digest, the singleflight consult and the result
// copy all stay on the stack. Every figure regeneration, Monte-Carlo year
// and best-technique race lands on warm points, so an escape here costs
// every sweep.
func TestWarmEvaluateAllocFree(t *testing.T) {
	f := New(16)
	b := cost.LargeEUPS(f.Env.PeakPower())
	w := workload.Specjbb()
	const outage = 17 * time.Minute
	for _, tech := range []technique.Technique{technique.Baseline{}, technique.Sleep{LowPower: true}, technique.Throttling{PState: 3}} {
		if _, err := f.Evaluate(b, tech, w, outage); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := f.Evaluate(b, tech, w, outage); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: warm Evaluate allocates %.0f objects/op, want 0", tech.Name(), got)
		}
	}
}

// TestWarmBestForConfigAllocBound bounds the warm Figure 5 race: with
// every candidate memoized, the only allocations left are the candidate
// enumeration, the sweep fan-out and the race's one flat result buffer,
// never a per-candidate result or flag slice — so the axis form stays
// within the same bound at any axis length.
func TestWarmBestForConfigAllocBound(t *testing.T) {
	const maxAllocs = 42
	f := New(16)
	b := cost.LargeEUPS(f.Env.PeakPower())
	w := workload.Specjbb()
	ctx := context.Background()
	const outage = 17 * time.Minute
	if _, _, err := f.BestForConfigCtx(ctx, b, w, outage); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := f.BestForConfigCtx(ctx, b, w, outage); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Errorf("warm BestForConfigCtx allocates %.0f objects/op, want <= %d", got, maxAllocs)
	}
	for _, n := range []int{1, 8} {
		outages := make([]time.Duration, n)
		for i := range outages {
			outages[i] = outage + time.Duration(i)*time.Minute
		}
		if _, err := f.BestForConfigAxisCtx(ctx, b, w, outages); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := f.BestForConfigAxisCtx(ctx, b, w, outages); err != nil {
				t.Fatal(err)
			}
		})
		if got > maxAllocs {
			t.Errorf("warm BestForConfigAxisCtx over %d outages allocates %.0f objects/op, want <= %d", n, got, maxAllocs)
		}
	}
}
