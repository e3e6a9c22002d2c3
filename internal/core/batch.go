package core

import (
	"context"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/sweep"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// EvaluateBatch evaluates one (backup, technique, workload) triple across a
// whole outage axis, returning results[i] identical to Evaluate at
// outages[i]. It shares the scenario memo cache with Evaluate in both
// directions: points already memoized are served from cache (a warm hit
// splits the batch — only the cold points are walked, through one
// cluster.SimulateOutageBatch call), and the cold points' results seed the
// cache for later callers. Hit/miss accounting matches Evaluate exactly: a
// warm point is one hit, a cold point is one miss.
func (f *Framework) EvaluateBatch(b cost.Backup, tech technique.Technique, w workload.Spec, outages []time.Duration) ([]cluster.Result, error) {
	if len(outages) == 0 {
		return nil, nil
	}
	if err := f.validateAxis(outages); err != nil {
		return nil, err
	}
	results := make([]cluster.Result, len(outages))
	if err := f.evaluateAxis(b, tech, w, outages, results); err != nil {
		return nil, err
	}
	return results, nil
}

// validateAxis applies validateCall to every point of an outage axis.
func (f *Framework) validateAxis(outages []time.Duration) error {
	for _, d := range outages {
		if err := f.validateCall(d); err != nil {
			return err
		}
	}
	return nil
}

// evaluateAxis is EvaluateBatch on a validated, non-empty axis, writing
// results[i] into dst[i]. A fully warm axis allocates nothing.
func (f *Framework) evaluateAxis(b cost.Backup, tech technique.Technique, w workload.Spec, outages []time.Duration, dst []cluster.Result) error {
	scn := cluster.Scenario{Env: f.Env, Workload: w, Backup: b, Technique: tech, Outage: outages[0]}
	if !keyable(scn) {
		res, err := cluster.SimulateOutageBatch(scn, outages)
		copy(dst, res)
		return err
	}
	// One digest of the outage-invariant scenario content covers the whole
	// axis: cacheKey carries the outage verbatim, so per-point keys are a
	// struct copy plus an outage stamp — no per-point content hashing. The
	// persistent tier's keys follow the same split (stableAxisKeys digests
	// the invariant content once and stamps outages per point).
	key := f.scenarioCacheKey(scn)
	st := scenarioStore()
	stableAt := f.stableAxisKeys(scn, st.Persistent())
	var coldIdx []int
	for i, d := range outages {
		key.outage = d
		if v, err, ok := st.Peek(key, stableAt(d)); ok {
			if err != nil {
				return err
			}
			dst[i] = v
			continue
		}
		coldIdx = append(coldIdx, i)
	}
	if len(coldIdx) == 0 {
		return nil
	}

	cold := make([]time.Duration, len(coldIdx))
	for j, i := range coldIdx {
		cold[j] = outages[i]
	}
	batch, err := cluster.SimulateOutageBatch(scn, cold)
	if err != nil {
		return err
	}
	for j, i := range coldIdx {
		// Seeding through Do keeps the singleflight and counter semantics:
		// the first seed for a key counts the miss, a duplicate outage (or
		// a racing Evaluate) joins the existing entry as a hit, and
		// whatever the entry holds is what every caller sees. Seed also
		// writes the winning value through to the persistent tier.
		key.outage = outages[i]
		got, err := st.Seed(key, stableAt(outages[i]), batch[j])
		if err != nil {
			return err
		}
		dst[i] = got
	}
	return nil
}

// EvaluateBatchCtx is EvaluateBatch with the same up-front cancellation
// check as EvaluateCtx.
func (f *Framework) EvaluateBatchCtx(ctx context.Context, b cost.Backup, tech technique.Technique, w workload.Spec, outages []time.Duration) ([]cluster.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.EvaluateBatch(b, tech, w, outages)
}

// SizingPoint is one outage's min-cost sizing outcome on an axis:
// Feasible mirrors MinCostUPS's ok return.
type SizingPoint struct {
	Op       OperatingPoint
	Feasible bool
}

// MinCostUPSAxisCtx runs the min-cost UPS sizing across an outage axis,
// producing exactly what per-point MinCostUPSCtx would while sharing
// bracket state between adjacent outages: each search warm-starts from the
// previous point's argmin lattice index, and the warm probe only short-
// circuits when local convexity proves the hint is still the argmin — any
// ambiguity falls back to the full cold bracket, so the outputs are
// identical whatever order the axis is traversed in.
func (f *Framework) MinCostUPSAxisCtx(ctx context.Context, tech technique.Technique, w workload.Spec, outages []time.Duration) ([]SizingPoint, error) {
	out := make([]SizingPoint, len(outages))
	warm := -1
	for i, d := range outages {
		op, ok, idx, err := f.minCostUPSLattice(ctx, tech, w, d, warm)
		if err != nil {
			return nil, err
		}
		out[i] = SizingPoint{Op: op, Feasible: ok}
		if ok && idx >= 0 {
			warm = idx
		}
	}
	return out, nil
}

// BestPoint is one outage's Figure 5 selection: the winning technique's
// result and the technique itself (nil when no candidate evaluated).
type BestPoint struct {
	Result cluster.Result
	Tech   technique.Technique
}

// BestForConfigAxisCtx runs the Figure 5 technique race behind a fixed
// backup across an outage axis, returning per point exactly what
// BestForConfigCtx would.
func (f *Framework) BestForConfigAxisCtx(ctx context.Context, b cost.Backup, w workload.Spec, outages []time.Duration) ([]BestPoint, error) {
	out := make([]BestPoint, len(outages))
	if err := f.bestForConfigAxis(ctx, b, w, outages, out); err != nil {
		return nil, err
	}
	return out, nil
}

// bestForConfigAxis is the race itself, writing each outage's winner into
// dst. Each candidate is evaluated over the whole axis in one batch
// (amortizing plan construction and the segment walk) into one flat
// per-(candidate, outage) buffer, and the per-outage fold compares
// candidates in enumeration order after the parallel evaluation, so ties
// resolve exactly as in a serial run. Survival dominates, then higher
// performance, then lower downtime.
func (f *Framework) bestForConfigAxis(ctx context.Context, b cost.Backup, w workload.Spec, outages []time.Duration, dst []BestPoint) error {
	if err := f.validateAxis(outages); err != nil {
		return err
	}
	n := len(outages)
	if n == 0 {
		return ctx.Err()
	}
	// The race in enumeration order: the plain baseline, every technique
	// variant, and — behind a provisioned UPS — the budget-driven capping
	// move an underprovisioned UPS (DG-SmallPUPS, SmallP-LargeEUPS) needs
	// to keep serving under its cap.
	vs := f.variants()
	candidates := make([]variant, 1, len(vs)+2)
	candidates[0] = variant{"Baseline", technique.Baseline{}}
	candidates = append(candidates, vs...)
	if b.UPS.Provisioned() {
		candidates = append(candidates,
			variant{"CappedThrottling", technique.CappedThrottling{Budget: b.UPS.PowerCapacity}})
	}
	res := make([]cluster.Result, len(candidates)*n)
	ok := make([]bool, len(candidates)*n)
	slots := make([]int, len(candidates))
	for c := range slots {
		slots[c] = c
	}
	_, err := sweep.Map(ctx, slots, func(ctx context.Context, c int) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			return struct{}{}, err
		}
		tech, lo, hi := candidates[c].tech, c*n, (c+1)*n
		if f.evaluateAxis(b, tech, w, outages, res[lo:hi]) == nil {
			for i := lo; i < hi; i++ {
				ok[i] = true
			}
			return struct{}{}, nil
		}
		// A batch failure degrades to per-point evaluation: an unevaluable
		// candidate is skipped at that point only, never aborting the race.
		for i, d := range outages {
			r, err := f.Evaluate(b, tech, w, d)
			res[lo+i], ok[lo+i] = r, err == nil
		}
		return struct{}{}, nil
	})
	if err != nil {
		return err
	}

	better := func(a, b *cluster.Result) bool {
		if a.Survived != b.Survived {
			return a.Survived
		}
		if !units.AlmostEqual(a.Perf, b.Perf, 1e-6) {
			return a.Perf > b.Perf
		}
		return a.Downtime < b.Downtime
	}
	for i := range outages {
		have := false
		for c := range candidates {
			k := c*n + i
			if ok[k] && (!have || better(&res[k], &dst[i].Result)) {
				dst[i] = BestPoint{Result: res[k], Tech: candidates[c].tech}
				have = true
			}
		}
	}
	return nil
}
