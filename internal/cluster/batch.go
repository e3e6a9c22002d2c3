package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"backuppower/internal/technique"
)

// SimulateOutageBatch evaluates one scenario across a whole outage axis,
// returning results[i] bit-identical to SimulateAggregate with
// s.Outage = outages[i]. The Outage field of s is ignored; the axis may be
// unsorted and contain duplicates.
//
// For techniques declaring technique.OutageInvariantPlanner the plan is
// constructed once and a single walk up to max(outages) serves every
// point, one cut per outage. Techniques whose plans scale with the outage
// are planned and walked per point, each with one cut.
func SimulateOutageBatch(s Scenario, outages []time.Duration) ([]Result, error) {
	if len(outages) == 0 {
		return nil, nil
	}
	for _, d := range outages {
		if d <= 0 {
			return nil, fmt.Errorf("cluster: non-positive outage %v", d)
		}
	}
	s.Outage = outages[0]
	if err := s.Validate(); err != nil {
		return nil, err
	}

	results := make([]Result, len(outages))
	if !technique.PlanOutageInvariant(s.Technique) {
		for i, d := range outages {
			s.Outage = d
			res, err := SimulateAggregate(s)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	cuts := make([]cut, len(outages))
	for i, d := range outages {
		effEnd, _ := effectivePressureEnd(s, d)
		cuts[i] = cut{T: d, effEnd: effEnd, out: i}
	}
	slices.SortFunc(cuts, func(a, b cut) int {
		if c := cmp.Compare(a.effEnd, b.effEnd); c != 0 {
			return c
		}
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.out, b.out)
	})
	// Plan once: the declared invariance makes the outage argument inert.
	plan := s.Technique.Plan(s.Env, s.Workload, outages[0])
	if err := walk(s, plan, cuts, recorder{}, results); err != nil {
		return nil, err
	}
	return results, nil
}
