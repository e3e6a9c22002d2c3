package grid

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/sweep"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// The metamorphic property suite: the paper's monotone structure gives
// machine-checkable invariants over randomly generated scenarios —
// performance cannot improve as an outage lengthens, backup cost cannot
// fall as capacity grows, and every perf fraction is a fraction. Each
// property sweeps propScenarios generated scenarios from a fixed seed, so
// a run is deterministic and a failure names the seed that reproduces it.

const propScenarios = 250

// propEnv is the shared small testbed the properties evaluate against;
// its framework routes through the process-global scenario cache, so
// repeated points cost one simulation.
var propFW = core.New(8)

// genUPSOnlyScenario draws a scenario restricted to UPS-only backups.
// The outage-monotonicity properties need this restriction: a DG that can
// carry the datacenter ends the outage pressure at transfer completion,
// after which full service resumes — so a longer outage window can have
// HIGHER mean perf (the post-transfer tail pulls the average back up).
// The paper's monotone claims are about the backup-carried window.
func genUPSOnlyScenario(rng *rand.Rand) (technique.Technique, workload.Spec, cost.Backup) {
	tech, w := genTechnique(rng)
	peak := propFW.Env.PeakPower()
	ups := units.Watts(float64(peak) * (0.3 + 0.7*rng.Float64()))
	runtime := time.Duration(rng.Intn(119)+1) * time.Minute
	return tech, w, cost.Custom("prop-ups", 0, ups, runtime)
}

// genTechnique draws a technique variant and workload.
func genTechnique(rng *rand.Rand) (technique.Technique, workload.Spec) {
	ws := workload.All()
	w := ws[rng.Intn(len(ws))]
	deep := len(propFW.Env.Server.PStates) - 1
	techs := []technique.Technique{
		technique.Baseline{},
		technique.Throttling{PState: 1 + rng.Intn(deep)},
		technique.Migration{Proactive: rng.Intn(2) == 0, ThrottleDeep: rng.Intn(2) == 0},
		technique.Sleep{LowPower: rng.Intn(2) == 0},
		technique.Hibernate{Proactive: rng.Intn(2) == 0, LowPower: rng.Intn(2) == 0},
		technique.ThrottleThenSave{PState: deep, Save: technique.SaveKind(rng.Intn(2)),
			ActiveFraction: 0.05 + 0.95*rng.Float64()},
		technique.MigrationThenSleep{ActiveFraction: 0.05 + 0.95*rng.Float64()},
		technique.NVDIMM{},
		technique.NVDIMMThrottle{PState: 1 + rng.Intn(deep)},
		technique.BarelyAlive{},
	}
	return techs[rng.Intn(len(techs))], w
}

// genOutagePair draws two outage durations d1 < d2.
func genOutagePair(rng *rand.Rand) (time.Duration, time.Duration) {
	d1 := time.Duration(rng.Intn(2*3600)+30) * time.Second
	d2 := d1 + time.Duration(rng.Intn(2*3600)+30)*time.Second
	return d1, d2
}

// genMonotoneTechnique draws from the subset of techniques whose perf
// trajectory over the outage is non-increasing (serve, then degrade or
// die). Only for these is MEAN perf provably non-increasing in the
// window length. Techniques with a fixed low-perf transition up front
// (BarelyAlive's enter-state phase) or consolidation ramps can see their
// mean RISE with a longer window as the fixed penalty amortizes — a real
// property of the model, not a bug, so they are exercised by the
// served-work relation below instead.
func genMonotoneTechnique(rng *rand.Rand) (technique.Technique, workload.Spec) {
	ws := workload.All()
	w := ws[rng.Intn(len(ws))]
	deep := len(propFW.Env.Server.PStates) - 1
	techs := []technique.Technique{
		technique.Baseline{},
		technique.Throttling{PState: 1 + rng.Intn(deep)},
		technique.Sleep{LowPower: rng.Intn(2) == 0},
		technique.Hibernate{Proactive: rng.Intn(2) == 0, LowPower: rng.Intn(2) == 0},
		technique.NVDIMM{},
	}
	return techs[rng.Intn(len(techs))], w
}

// TestPropertyPerfNonIncreasingInOutage: for a fixed UPS-only backup and
// a monotone-trajectory technique, lengthening the outage can only lower
// (or preserve) the mean performance fraction.
func TestPropertyPerfNonIncreasingInOutage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	peak := propFW.Env.PeakPower()
	for i := 0; i < propScenarios; i++ {
		tech, w := genMonotoneTechnique(rng)
		ups := units.Watts(float64(peak) * (0.3 + 0.7*rng.Float64()))
		b := cost.Custom("prop-ups", 0, ups, time.Duration(rng.Intn(119)+1)*time.Minute)
		d1, d2 := genOutagePair(rng)
		r1, err := propFW.Evaluate(b, tech, w, d1)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		r2, err := propFW.Evaluate(b, tech, w, d2)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if r2.Perf > r1.Perf+1e-9 {
			t.Fatalf("scenario %d: perf rose with a longer outage: %v@%v -> %v@%v (tech %s, workload %s, backup %s)",
				i, r1.Perf, d1, r2.Perf, d2, tech.Name(), w.Name, b.Name)
		}
	}
}

// TestPropertyServedWorkBoundedInOutage: the universally valid form of
// the perf/outage relation, over the FULL technique pool. Served work
// W(T) = Perf·T (perf-hours) can only grow as the window extends —
// completed service is never un-served — and the growth is bounded by
// full-rate service of the added window: W(T2) ≤ W(T1) + (T2−T1).
func TestPropertyServedWorkBoundedInOutage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < propScenarios; i++ {
		tech, w, b := genUPSOnlyScenario(rng)
		d1, d2 := genOutagePair(rng)
		r1, err := propFW.Evaluate(b, tech, w, d1)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		r2, err := propFW.Evaluate(b, tech, w, d2)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		w1 := r1.Perf * d1.Hours()
		w2 := r2.Perf * d2.Hours()
		if w2 < w1-1e-6 {
			t.Fatalf("scenario %d: served work shrank with a longer outage: %v@%v -> %v@%v (tech %s, workload %s)",
				i, w1, d1, w2, d2, tech.Name(), w.Name)
		}
		if w2 > w1+(d2-d1).Hours()+1e-6 {
			t.Fatalf("scenario %d: served work outgrew the added window: %v@%v -> %v@%v (tech %s, workload %s)",
				i, w1, d1, w2, d2, tech.Name(), w.Name)
		}
	}
}

// TestPropertyDowntimeNonDecreasingInOutage: same restriction, the dual
// claim — a longer outage can only add down time, never remove it.
func TestPropertyDowntimeNonDecreasingInOutage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < propScenarios; i++ {
		tech, w, b := genUPSOnlyScenario(rng)
		d1, d2 := genOutagePair(rng)
		r1, err := propFW.Evaluate(b, tech, w, d1)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		r2, err := propFW.Evaluate(b, tech, w, d2)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if r2.Downtime < r1.Downtime-time.Microsecond {
			t.Fatalf("scenario %d: downtime shrank with a longer outage: %v@%v -> %v@%v (tech %s, workload %s, backup %s)",
				i, r1.Downtime, d1, r2.Downtime, d2, tech.Name(), w.Name, b.Name)
		}
	}
}

// TestPropertyCostNonDecreasingInCapacity: the cost model must be
// monotone in every provisioned dimension — growing the DG power rating,
// the UPS power rating, or the UPS rated runtime (energy) can never make
// the backup cheaper.
func TestPropertyCostNonDecreasingInCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	peak := propFW.Env.PeakPower()
	for i := 0; i < propScenarios; i++ {
		dg := units.Watts(float64(peak) * rng.Float64())
		ups := units.Watts(float64(peak) * (0.1 + 0.9*rng.Float64()))
		rt := time.Duration(rng.Intn(120)+1) * time.Minute
		base := cost.Custom("base", dg, ups, rt).AnnualCost()

		grown := []cost.Backup{
			cost.Custom("dg+", dg+units.Watts(float64(peak)*(0.1+rng.Float64())), ups, rt),
			cost.Custom("ups+", dg, ups+units.Watts(float64(peak)*(0.1+rng.Float64())), rt),
			cost.Custom("rt+", dg, ups, rt+time.Duration(rng.Intn(120)+1)*time.Minute),
		}
		for _, g := range grown {
			if float64(g.AnnualCost()) < float64(base)*(1-1e-9) {
				t.Fatalf("scenario %d: growing %s made the backup cheaper: %v < %v", i, g.Name, g.AnnualCost(), base)
			}
		}
	}
}

// TestPropertyPerfIsAFraction: over fully general scenarios (any DG/UPS
// mix, any technique), evaluated performance stays inside [0, 1].
func TestPropertyPerfIsAFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	peak := propFW.Env.PeakPower()
	for i := 0; i < propScenarios; i++ {
		tech, w := genTechnique(rng)
		configs := append(cost.Table3(peak),
			cost.Custom("prop-mix",
				units.Watts(float64(peak)*rng.Float64()),
				units.Watts(float64(peak)*(0.2+0.8*rng.Float64())),
				time.Duration(rng.Intn(90)+1)*time.Minute))
		b := configs[rng.Intn(len(configs))]
		d := time.Duration(rng.Intn(4*3600)+10) * time.Second
		r, err := propFW.Evaluate(b, tech, w, d)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if r.Perf < 0 || r.Perf > 1+1e-9 {
			t.Fatalf("scenario %d: perf %v outside [0,1] (tech %s, workload %s, backup %s, outage %v)",
				i, r.Perf, tech.Name(), w.Name, b.Name, d)
		}
	}
}

// TestPropertySizingCostNonDecreasingInOutage ties the monotone structure
// to the sizing search the grid's op "size" runs: the min-cost UPS-only
// backup for a longer outage can never be cheaper than for a shorter one
// (any backup surviving the longer outage also survives the shorter).
func TestPropertySizingCostNonDecreasingInOutage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ { // sizing is a full rating sweep per call — keep the count moderate
		tech, w := genTechnique(rng)
		d1, d2 := genOutagePair(rng)
		op1, ok1 := propFW.MinCostUPS(tech, w, d1)
		op2, ok2 := propFW.MinCostUPS(tech, w, d2)
		if !ok2 {
			continue // infeasible at the longer outage says nothing about cost order
		}
		if !ok1 {
			t.Fatalf("scenario %d: feasible at %v but infeasible at shorter %v (tech %s, workload %s)",
				i, d2, d1, tech.Name(), w.Name)
		}
		// The bracketed search quantizes runtimes to whole seconds, so
		// allow the quantization's sliver of slack.
		if op2.NormCost < op1.NormCost*(1-1e-6) {
			t.Fatalf("scenario %d: longer outage sized cheaper: %v@%v < %v@%v (tech %s, workload %s)",
				i, op2.NormCost, d2, op1.NormCost, d1, tech.Name(), w.Name)
		}
	}
}

// genBatchSpec draws a small random spec exercising every op, batchable
// and unbatchable (hybrid) techniques, and an unsorted, sometimes-
// duplicated outage axis — the shapes the batch grouping must be
// invisible for.
func genBatchSpec(rng *rand.Rand) Spec {
	durs := []string{"30s", "90s", "5m", "12m", "30m", "45m", "1h", "2h", "4h"}
	outs := make([]string, 3+rng.Intn(5))
	for i := range outs {
		outs[i] = durs[rng.Intn(len(durs))]
	}
	workloads := []string{"specjbb", "memcached", "web-search"}
	configNames := []string{"MaxPerf", "MinCost", "NoDG", "NoUPS", "DG-SmallPUPS", "LargeEUPS", "SmallP-LargeEUPS"}
	techDTO := func() TechniqueDTO {
		switch rng.Intn(6) {
		case 0:
			return TechniqueDTO{Name: "baseline"}
		case 1:
			return TechniqueDTO{Name: "throttling", PState: intp(1 + rng.Intn(3))}
		case 2:
			return TechniqueDTO{Name: "sleep", LowPower: boolp(rng.Intn(2) == 0)}
		case 3:
			return TechniqueDTO{Name: "hibernate", Proactive: boolp(rng.Intn(2) == 0)}
		case 4:
			return TechniqueDTO{Name: "throttle-then-save", PState: intp(3), Save: "sleep",
				ActiveFraction: floatp(0.25 + 0.5*rng.Float64())}
		default:
			return TechniqueDTO{Name: "migration-then-sleep", ActiveFraction: floatp(0.25 + 0.5*rng.Float64())}
		}
	}
	spec := Spec{
		Workloads: []string{workloads[rng.Intn(len(workloads))]},
		Outages:   outs,
	}
	switch rng.Intn(3) {
	case 0:
		spec.Op = OpSize
		spec.Techniques = []TechniqueDTO{techDTO()}
	case 1:
		spec.Op = OpBest
		spec.Configs = []ConfigDTO{{Name: configNames[rng.Intn(len(configNames))]}}
	default:
		spec.Op = OpEvaluate
		spec.Configs = []ConfigDTO{{Name: configNames[rng.Intn(len(configNames))]}}
		spec.Techniques = []TechniqueDTO{techDTO(), techDTO()}
	}
	return spec
}

// rowPayload is a row's op output stripped of its Point, for comparing
// rows across plans whose row order differs.
type rowPayload struct {
	Result   cluster.Result
	Feasible bool
	Sizing   core.OperatingPoint
	Best     string
	Err      string
}

func payload(r RowResult) rowPayload {
	p := rowPayload{Result: r.Result, Feasible: r.Feasible, Sizing: r.Sizing, Best: r.Best}
	if r.Err != nil {
		p.Err = r.Err.Error()
	}
	return p
}

// TestPropertyBatchMatchesScalarDispatch: for random specs at random shard
// sizes and pool widths, a run with outage-axis batch units must be deeply
// identical to a ShardSize 1 run, where every unit is one row — same
// rows, same order, same payloads. Evaluate rows are additionally checked
// against the trace-recording cluster.Simulate oracle, point by point.
// This is the grid-level dispatch-invisibility contract behind leaving
// /v1/sweep and gridrun batching on by default.
func TestPropertyBatchMatchesScalarDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	runner := NewRunner(propFW)
	for i := 0; i < propScenarios; i++ {
		spec := genBatchSpec(rng)
		plan, err := Compile(spec, CompileOptions{DefaultServers: 8})
		if err != nil {
			t.Fatalf("scenario %d: compile: %v", i, err)
		}
		wctx := sweep.WithWidth(ctx, 1+rng.Intn(4))
		batched, err := NewRunner(propFW).Run(wctx, plan, RunOptions{ShardSize: 1 + rng.Intn(7)})
		if err != nil {
			t.Fatalf("scenario %d: batched run: %v", i, err)
		}
		scalar, err := NewRunner(propFW).Run(wctx, plan, RunOptions{ShardSize: 1})
		if err != nil {
			t.Fatalf("scenario %d: scalar run: %v", i, err)
		}
		if !reflect.DeepEqual(batched, scalar) {
			t.Fatalf("scenario %d (%s op, %d outages): batch dispatch changed the rows\nspec %+v",
				i, plan.Op, len(spec.Outages), spec)
		}
		if plan.Op != OpEvaluate {
			continue
		}
		for _, row := range batched {
			p := row.Point
			want, err := cluster.Simulate(cluster.Scenario{
				Env: runner.framework(p.Servers).Env, Workload: p.Workload,
				Backup: p.Config, Technique: p.Technique, Outage: p.Outage,
			})
			if (err != nil) != (row.Err != nil) {
				t.Fatalf("scenario %d row %d: error mismatch: row %v, Simulate %v", i, p.Index, row.Err, err)
			}
			want.PerfTrace, want.PowerTrace = nil, nil
			if err == nil && row.Result != want {
				t.Fatalf("scenario %d row %d: batch row diverges from Simulate\n got %+v\nwant %+v",
					i, p.Index, row.Result, want)
			}
		}
	}
}

// TestPropertyBatchIndependentOfOutagePermutation: permuting a spec's
// outage axis permutes the rows but must not change any row's payload —
// the batch walk's cut-point snapshots cannot leak state between points.
// Row j of a block of len(outages) rows in the permuted plan must carry
// the payload row perm[j] carried in the original.
func TestPropertyBatchIndependentOfOutagePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ctx := context.Background()
	for i := 0; i < propScenarios; i++ {
		spec := genBatchSpec(rng)
		perm := rng.Perm(len(spec.Outages))
		permuted := spec
		permuted.Outages = make([]string, len(spec.Outages))
		for j, p := range perm {
			permuted.Outages[j] = spec.Outages[p]
		}
		planA, err := Compile(spec, CompileOptions{DefaultServers: 8})
		if err != nil {
			t.Fatalf("scenario %d: compile: %v", i, err)
		}
		planB, err := Compile(permuted, CompileOptions{DefaultServers: 8})
		if err != nil {
			t.Fatalf("scenario %d: compile permuted: %v", i, err)
		}
		rowsA, err := NewRunner(propFW).Run(ctx, planA, RunOptions{ShardSize: 1 + rng.Intn(7)})
		if err != nil {
			t.Fatalf("scenario %d: run: %v", i, err)
		}
		rowsB, err := NewRunner(propFW).Run(ctx, planB, RunOptions{ShardSize: 1 + rng.Intn(7)})
		if err != nil {
			t.Fatalf("scenario %d: run permuted: %v", i, err)
		}
		if len(rowsA) != len(rowsB) {
			t.Fatalf("scenario %d: row counts differ: %d vs %d", i, len(rowsA), len(rowsB))
		}
		n := len(spec.Outages)
		for blk := 0; blk+n <= len(rowsA); blk += n {
			for j, p := range perm {
				got, want := payload(rowsB[blk+j]), payload(rowsA[blk+p])
				if got != want {
					t.Fatalf("scenario %d: block %d row %d (outage %s) diverges under permutation\n got %+v\nwant %+v",
						i, blk/n, j, permuted.Outages[j], got, want)
				}
			}
		}
	}
}
