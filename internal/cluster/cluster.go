// Package cluster executes an outage scenario: a technique's plan running
// on a datacenter behind a provisioned backup infrastructure (DG + UPS),
// producing the paper's three evaluation metrics — cost comes from the
// config, performance and down time come from this simulation.
//
// The simulation is an exact piecewise sweep: within each segment
// (delimited by plan phase boundaries, DG transfer steps, and the outage
// end) the load and the DG supply fraction are constant, so UPS battery
// depletion integrates analytically (with Peukert nonlinearity handled by
// the battery model's fractional-depletion state).
//
// Every entry point runs the same segment walk: SimulateAggregate keeps
// only running aggregates (the path every framework sweep takes),
// SimulateOutageBatch serves a whole outage axis from one walk, and
// Simulate additionally records the perf/power timelines for reporting
// tools.
package cluster

import (
	"fmt"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/simkit"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/ups"
	"backuppower/internal/workload"
)

// Scenario is one evaluation point.
type Scenario struct {
	Env       technique.Env
	Workload  workload.Spec
	Backup    cost.Backup
	Technique technique.Technique
	Outage    time.Duration
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if err := s.Env.Validate(); err != nil {
		return err
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if err := s.Backup.Validate(); err != nil {
		return err
	}
	if s.Technique == nil {
		return fmt.Errorf("cluster: nil technique")
	}
	if s.Outage <= 0 {
		return fmt.Errorf("cluster: non-positive outage %v", s.Outage)
	}
	return nil
}

// Result is the outcome of a scenario.
type Result struct {
	Technique string
	Config    string
	Workload  string
	Outage    time.Duration

	// Survived reports that volatile state was never lost.
	Survived bool
	// CrashedAt is when state was lost (valid when !Survived).
	CrashedAt time.Duration

	// Perf is the mean normalized performance over the outage window
	// [0, Outage], the paper's common reporting duration.
	Perf float64

	// Downtime is the total time the application was unavailable from
	// outage start until fully restored (midpoint of Min/Max, which
	// differ only through HPC recompute spread).
	Downtime, DowntimeMin, DowntimeMax time.Duration

	// PeakUPSDraw and UPSEnergy summarize what the UPS actually supplied;
	// PeakBackupDraw includes the DG share.
	PeakUPSDraw    units.Watts
	PeakBackupDraw units.Watts
	UPSEnergy      units.WattHours
	UPSRemaining   float64

	// Cost is the configuration's normalized annual cap-ex (MaxPerf = 1).
	Cost float64

	// PerfTrace and PowerTrace record the timelines for reporting. They
	// are populated by Simulate only; SimulateAggregate leaves them nil.
	PerfTrace  *simkit.Trace
	PowerTrace *simkit.Trace
}

// meanAccum integrates a piecewise-constant signal incrementally with the
// exact term structure of simkit.Trace: runs of equal value are merged
// (matching the trace's sample compaction) and a write at the current run's
// start overwrites its value (matching same-instant overwrite), so mean()
// reproduces Trace.Mean bit for bit without materializing samples.
type meanAccum struct {
	start time.Duration // start of the current run
	val   float64       // value held since start
	sum   float64       // value·hours of completed runs
}

func (a *meanAccum) set(at time.Duration, v float64) {
	if at == a.start {
		a.val = v
		return
	}
	if v == a.val {
		return
	}
	a.sum += a.val * (at - a.start).Hours()
	a.start, a.val = at, v
}

// mean returns the time-average over [0, to]; to must be past the last set.
func (a *meanAccum) mean(to time.Duration) float64 {
	return (a.sum + a.val*(to-a.start).Hours()) / to.Hours()
}

// recorder receives the simulation's signal updates. The perf accumulator
// always runs (it produces Result.Perf); the traces are optional and only
// attached by the trace-producing Simulate wrapper.
type recorder struct {
	perf       meanAccum
	perfTrace  *simkit.Trace
	powerTrace *simkit.Trace
}

func (r *recorder) setPerf(at time.Duration, v float64) {
	r.perf.set(at, v)
	if r.perfTrace != nil {
		r.perfTrace.Set(at, v)
	}
}

func (r *recorder) setPower(at time.Duration, v float64) {
	if r.powerTrace != nil {
		r.powerTrace.Set(at, v)
	}
}

// Simulate runs the scenario and records the perf/power timelines on the
// returned Result — the entry point for timeline tooling (cmd/backupsim)
// and the reference the batch tests compare against. Aggregate-only
// callers should prefer SimulateAggregate, which skips the trace
// bookkeeping entirely; both produce bit-identical metrics.
func Simulate(s Scenario) (Result, error) {
	rec := recorder{
		perfTrace:  simkit.NewTrace("perf", 0),
		powerTrace: simkit.NewTrace("backup-load", 0),
	}
	res, err := simulatePoint(s, rec)
	if err != nil {
		return Result{}, err
	}
	res.PerfTrace, res.PowerTrace = rec.perfTrace, rec.powerTrace
	return res, nil
}

// SimulateAggregate runs the scenario keeping only the aggregate metrics:
// no traces are built and the segment walk itself performs no heap
// allocations (the only allocation on this path is the technique's plan).
// Every sweep in the framework — sizing, variant races, Monte-Carlo — goes
// through this path.
func SimulateAggregate(s Scenario) (Result, error) {
	return simulatePoint(s, recorder{})
}

// simulatePoint plans the scenario and walks it with one stack-held cut
// at s.Outage.
func simulatePoint(s Scenario, rec recorder) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	plan := s.Technique.Plan(s.Env, s.Workload, s.Outage)
	effEnd, _ := effectivePressureEnd(s, s.Outage)
	cuts := [1]cut{{T: s.Outage, effEnd: effEnd}}
	var res [1]Result
	if err := walk(s, plan, cuts[:], rec, res[:]); err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// walkState is the running state of a segment walk: the UPS depletion, the
// metric accumulators, and the early-termination markers. It is a plain
// value — copying it snapshots the walk, which is how walk emits
// per-outage metrics at each cut point without re-walking the shared
// prefix, and everything lives on the stack.
type walkState struct {
	unit ups.Unit
	rec  recorder

	peakUPS    units.Watts
	peakBackup units.Watts
	upsEnergy  units.WattHours

	crashed  bool
	crashAt  time.Duration
	darkSafe bool          // powered down with state already safe
	unavail  time.Duration // unavailable time accumulated in [0, end of plan pressure)
	lastEnd  time.Duration
}

// step advances the walk by one segment, returning false when the walk
// terminates inside it (power-capping violation or battery exhaustion).
// Bit-identity between a one-cut walk and a many-cut walk rests on both
// funneling through it with identical segment sequences.
func (st *walkState) step(seg *Segment) bool {
	dur := seg.End - seg.Start
	st.rec.setPerf(seg.Start, seg.Perf)
	st.rec.setPower(seg.Start, float64(seg.Load))

	if seg.UPSNeed > 0 {
		if !st.unit.Config.CanCarry(seg.UPSNeed) {
			// Power capping violated: the backup cannot source this
			// phase at all.
			st.crashed, st.crashAt = !seg.StateSafe, seg.Start
			if seg.StateSafe {
				st.darkSafe = true
			}
			if seg.Start > st.lastEnd {
				st.lastEnd = seg.Start
			}
			return false
		}
		if seg.UPSNeed > st.peakUPS {
			st.peakUPS = seg.UPSNeed
		}
		sustained := st.unit.Drain(seg.UPSNeed, dur)
		st.upsEnergy += seg.UPSNeed.ForDuration(sustained)
		if sustained < dur {
			at := seg.Start + sustained
			if seg.StateSafe {
				st.darkSafe = true
			} else {
				st.crashed, st.crashAt = true, at
			}
			if !seg.Available {
				st.unavail += at - seg.Start
			}
			st.lastEnd = at
			return false
		}
	}
	if seg.Load > st.peakBackup {
		st.peakBackup = seg.Load
	}
	if !seg.Available {
		st.unavail += dur
	}
	st.lastEnd = seg.End
	return true
}

// finish runs the outage epilogue on the walked state for reporting window
// T (with its effective pressure end effEnd) and assembles the Result. It
// mutates the receiver's recorder (the post-walk perf edges), so walk
// always calls it on a snapshot, never on the running state. normCost is
// the precomputed s.Backup.NormalizedCost(s.Env.PeakPower()).
func (st *walkState) finish(s Scenario, plan technique.Plan, T, effEnd, fixedPhasesEnd time.Duration, dgEndsOutage bool, normCost float64) Result {
	res := Result{
		Technique: plan.Technique,
		Config:    s.Backup.Name,
		Workload:  s.Workload.Name,
		Outage:    T,
		Cost:      normCost,
		Survived:  true,

		PeakUPSDraw:    st.peakUPS,
		PeakBackupDraw: st.peakBackup,
		UPSEnergy:      st.upsEnergy,
		UPSRemaining:   st.unit.Remaining(),
	}
	dg := s.Backup.DG
	recoveryLo, recoveryHi := technique.CrashRecovery(s.Env, s.Workload)

	switch {
	case st.crashed:
		res.Survived = false
		res.CrashedAt = st.crashAt
		// Power returns at the outage end, or earlier on the DG if it can
		// carry the datacenter.
		powerBack := T
		if dgEndsOutage {
			ready := dg.TransferCompleteAt()
			if ready < st.crashAt {
				ready = st.crashAt
			}
			if ready < powerBack {
				powerBack = ready
			}
		}
		st.rec.setPerf(st.crashAt, 0)
		// Unavailable from crash until power back plus recovery.
		dt := st.unavail + (powerBack - st.crashAt)
		res.DowntimeMin = dt + recoveryLo
		res.DowntimeMax = dt + recoveryHi
		// If recovery finishes inside the outage window (DG restored
		// power early), performance returns before T.
		if back := powerBack + (recoveryLo+recoveryHi)/2; back < T {
			st.rec.setPerf(back, 1)
		}

	case st.darkSafe:
		// State persisted; servers dark until power returns, then the
		// plan's restore path runs.
		st.rec.setPerf(st.lastEnd, 0)
		dt := st.unavail + (effEnd - st.lastEnd) + plan.RestoreDowntime
		res.DowntimeMin, res.DowntimeMax = dt, dt

	default:
		// Plan ran to the end of the outage pressure. Fixed phases that
		// outlast the outage complete on restored power before the
		// restore path runs: an in-progress hibernate save keeps the
		// application down (charged as tail downtime), whereas an
		// in-progress migration keeps serving (no charge).
		tail := unavailableTail(plan, effEnd, fixedPhasesEnd)
		restore := plan.RestoreDowntime
		if plan.RestoreAfterPowerLossOnly {
			restore = 0 // the servers never went dark
		}
		dt := st.unavail + tail + restore
		res.DowntimeMin, res.DowntimeMax = dt, dt
		// DG-carried full restoration within the outage window shows up
		// as restored performance after the restore downtime.
		if effEnd < T {
			back := effEnd + tail + restore
			if back < T {
				st.rec.setPerf(back, 1)
			}
		}
	}
	res.Downtime = (res.DowntimeMin + res.DowntimeMax) / 2

	res.Perf = st.rec.perf.mean(T)
	return res
}

// effectivePressureEnd returns whether the DG ends the outage pressure
// early and when the pressure window for reporting window T closes: at T,
// or at transfer completion if the DG can carry the full normal load (the
// paper's "DG translates long outages into short ones").
func effectivePressureEnd(s Scenario, T time.Duration) (effEnd time.Duration, dgEndsOutage bool) {
	dg := s.Backup.DG
	dgEndsOutage = dg.Provisioned() && dg.CanCarry(s.Env.NormalPower(s.Workload))
	effEnd = T
	if dgEndsOutage && dg.TransferCompleteAt() < T {
		effEnd = dg.TransferCompleteAt()
	}
	return effEnd, dgEndsOutage
}

// fixedPhasesEnd sums the plan's fixed (non-open-ended) phase durations.
func fixedPhasesEnd(plan technique.Plan) time.Duration {
	var end time.Duration
	for _, ph := range plan.Phases {
		if !ph.OpenEnded {
			end += ph.Dur
		}
	}
	return end
}

// cut is one requested outage on a walk: the reporting window T, the
// point where its plan pressure ends (effEnd, the walk's horizon for that
// outage alone), and the caller's slot for its result.
type cut struct {
	T, effEnd time.Duration
	out       int
}

// walk is the one simulation segment walk: an exact piecewise sweep of the
// plan against the backup through the allocation-free segment cursor, up
// to the last cut's horizon. cuts must be sorted by effEnd. At each cut
// the running state is snapshotted (a plain struct copy) and the outage
// epilogue runs on the snapshot, writing results[c.out]; per-cut work is
// O(1) and allocation-free. A snapshot is exact because the walk up to a
// cut never depends on what lies beyond it: a horizon only ever truncates
// the final segment, capping violations fire at segment starts, and
// battery exhaustion inside a segment yields the same sustained time
// whatever the segment's remaining length (battery.State.Drain's empty
// branch ignores dt).
//
// rec is the running recorder. A trace-less recorder keeps the whole call
// allocation-free (pinned by TestAggregatePathAllocFree); Simulate
// attaches traces as observers, which is only meaningful with one cut —
// snapshots share the trace pointers.
func walk(s Scenario, plan technique.Plan, cuts []cut, rec recorder, results []Result) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	_, dgEndsOutage := effectivePressureEnd(s, cuts[0].T)
	fixedEnd := fixedPhasesEnd(plan)
	// The battery cost model is outage-invariant: derive it once per walk
	// rather than at every cut's epilogue.
	normCost := s.Backup.NormalizedCost(s.Env.PeakPower())
	emit := func(st walkState, c *cut) {
		results[c.out] = st.finish(s, plan, c.T, c.effEnd, fixedEnd, dgEndsOutage, normCost)
	}

	st := walkState{unit: ups.Unit{Config: s.Backup.UPS}, rec: rec}
	ci := 0
	cur := newSegCursor(plan, s.Backup.DG, cuts[len(cuts)-1].effEnd)
	var seg Segment
	for cur.next(&seg) {
		// Cuts whose pressure window closed at or before this segment's
		// start: their own walk never saw this segment.
		for ; ci < len(cuts) && cuts[ci].effEnd <= seg.Start; ci++ {
			emit(st, &cuts[ci])
		}
		// Cuts strictly inside the segment: their horizon truncates
		// exactly this segment, so step a truncated copy on a snapshot.
		for ; ci < len(cuts) && cuts[ci].effEnd < seg.End; ci++ {
			cl, trunc := st, seg
			trunc.End = cuts[ci].effEnd
			cl.step(&trunc)
			emit(cl, &cuts[ci])
		}
		if !st.step(&seg) {
			break
		}
	}
	// Remaining cuts see the final state: either every segment ran (cuts
	// at the walk horizon), or the walk terminated early — at an instant
	// and in a condition identical under any of the longer horizons left.
	for ; ci < len(cuts); ci++ {
		emit(st, &cuts[ci])
	}
	return nil
}

// unavailableTail sums the unavailable portions of fixed plan phases that
// fall in [from, to) — the post-outage completion of save work.
func unavailableTail(plan technique.Plan, from, to time.Duration) time.Duration {
	if to <= from {
		return 0
	}
	var tail time.Duration
	var at time.Duration
	for _, ph := range plan.Phases {
		if ph.OpenEnded {
			break
		}
		start, end := at, at+ph.Dur
		at = end
		if end <= from || start >= to {
			continue
		}
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		if !ph.Available {
			tail += end - start
		}
	}
	return tail
}
