// Benchmarks that regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// executes the corresponding experiment end-to-end — workload generation,
// capacity sizing, scenario simulation — and reports the rendered rows via
// b.Log on the first iteration so a bench run doubles as a reproduction
// run. Micro-benchmarks of the core primitives follow.
package backuppower_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	backuppower "backuppower"
	"backuppower/internal/battery"
	"backuppower/internal/cluster"
	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/experiments"
	"backuppower/internal/grid"
	"backuppower/internal/memsim"
	"backuppower/internal/migration"
	"backuppower/internal/outage"
	"backuppower/internal/sweep"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tb := e.Run(context.Background())
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		// Print the reproduced table exactly once (the calibration round
		// always runs with b.N == 1), so a bench run doubles as a
		// reproduction run without flooding the output.
		if i == 0 && b.N == 1 {
			b.Log("\n" + tb.String())
		}
	}
}

// Paper tables.

func BenchmarkTable1CostParameters(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2InfrastructureCost(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3Configurations(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4TechniquePhases(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5TechniqueImpact(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6HybridTechniques(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkTable8SaveResume(b *testing.B)         { benchExperiment(b, "table8") }

// Paper figures.

func BenchmarkFig1OutageDistributions(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig3BatteryRuntime(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig5ConfigTradeoffs(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6SpecjbbTechniques(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7Memcached(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8WebSearch(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9SpecCPU(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10TCOCrossover(b *testing.B)       { benchExperiment(b, "fig10") }

// Ablations (DESIGN.md §6).

func BenchmarkAblationPeukertVsLinear(b *testing.B)   { benchExperiment(b, "ablation-peukert") }
func BenchmarkAblationProactiveInterval(b *testing.B) { benchExperiment(b, "ablation-proactive") }
func BenchmarkAblationConsolidation(b *testing.B)     { benchExperiment(b, "ablation-consolidation") }
func BenchmarkAblationDGStartup(b *testing.B)         { benchExperiment(b, "ablation-dgstartup") }
func BenchmarkAblationLiIon(b *testing.B)             { benchExperiment(b, "ablation-liion") }
func BenchmarkAblationProportionality(b *testing.B) {
	benchExperiment(b, "ablation-proportionality")
}
func BenchmarkMemSizeSensitivity(b *testing.B) { benchExperiment(b, "memsize") }

// Section 7 extensions.

func BenchmarkExtAvailability(b *testing.B) { benchExperiment(b, "ext-availability") }
func BenchmarkExtNVDIMM(b *testing.B)       { benchExperiment(b, "ext-nvdimm") }
func BenchmarkExtGeoFailover(b *testing.B)  { benchExperiment(b, "ext-geo") }
func BenchmarkExtBarelyAlive(b *testing.B)  { benchExperiment(b, "ext-barelyalive") }
func BenchmarkExtLiIonSizing(b *testing.B)  { benchExperiment(b, "ext-liion-sizing") }
func BenchmarkExtPlacement(b *testing.B)    { benchExperiment(b, "ext-placement") }
func BenchmarkExtCheckpoint(b *testing.B)   { benchExperiment(b, "ext-checkpoint") }
func BenchmarkExtDiurnal(b *testing.B)      { benchExperiment(b, "ext-diurnal") }
func BenchmarkExtPortfolio(b *testing.B)    { benchExperiment(b, "ext-portfolio") }
func BenchmarkExtOpEx(b *testing.B)         { benchExperiment(b, "ext-opex") }
func BenchmarkExtPolicy(b *testing.B)       { benchExperiment(b, "ext-policy") }
func BenchmarkExtWear(b *testing.B)         { benchExperiment(b, "ext-wear") }
func BenchmarkExtUPSTopology(b *testing.B)  { benchExperiment(b, "ext-upstopology") }
func BenchmarkExtGeoFleet(b *testing.B)     { benchExperiment(b, "ext-geofleet") }

// Micro-benchmarks of the primitives the experiments lean on.

func BenchmarkScenarioSimulate(b *testing.B) {
	env := technique.DefaultEnv(64)
	scn := cluster.Scenario{
		Env:       env,
		Workload:  workload.Specjbb(),
		Backup:    cost.LargeEUPS(env.PeakPower()),
		Technique: technique.ThrottleThenSave{PState: 6, Save: technique.SaveSleep, ActiveFraction: 0.5},
		Outage:    time.Hour,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Simulate(scn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioSimulateAggregate measures the trace-free fast path the
// framework sweeps actually take. Compare against BenchmarkScenarioSimulate
// for the cost of timeline recording; the alloc floor here is the
// technique's plan construction (the segment walk itself is pinned
// allocation-free by TestAggregatePathAllocFree).
func BenchmarkScenarioSimulateAggregate(b *testing.B) {
	env := technique.DefaultEnv(64)
	scn := cluster.Scenario{
		Env:       env,
		Workload:  workload.Specjbb(),
		Backup:    cost.LargeEUPS(env.PeakPower()),
		Technique: technique.ThrottleThenSave{PState: 6, Save: technique.SaveSleep, ActiveFraction: 0.5},
		Outage:    time.Hour,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.SimulateAggregate(scn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostSizing(b *testing.B) {
	fw := backuppower.NewFramework(64)
	w := workload.Specjbb()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := fw.MinCostUPS(technique.Throttling{PState: 6}, w, 30*time.Minute); !ok {
			b.Fatal("sizing failed")
		}
	}
}

func BenchmarkBatteryDrain(b *testing.B) {
	pack := battery.NewPack(battery.LeadAcid(), 4*units.Kilowatt, 10*time.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s battery.State
		for !s.Depleted() {
			s.Drain(pack, 3*units.Kilowatt, time.Minute)
		}
	}
}

func BenchmarkPrecopyMigration(b *testing.B) {
	cfg := migration.DefaultConfig()
	w := workload.Specjbb()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := migration.Live(cfg, w, 1)
		if !p.Converged {
			b.Fatal("did not converge")
		}
	}
}

func BenchmarkAdaptivePolicyDecide(b *testing.B) {
	fw := backuppower.NewFramework(64)
	pol, err := backuppower.NewAdaptivePolicy(fw.Env, workload.Specjbb(),
		backuppower.NewUPS(fw.Env.PeakPower(), 20*time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.Decide(time.Duration(i%3600)*time.Second, 0.8)
		if i%64 == 0 {
			pol.Reset(5 * time.Minute)
		}
	}
}

// benchSweepWidth runs a fixed 32-scenario batch through the sweep engine
// at the given pool width, simulating directly (no memoization) so the
// numbers isolate the pool itself. The Serial/Parallel pair tracks the
// engine's speedup in the bench trajectory.
func benchSweepWidth(b *testing.B, width int) {
	b.Helper()
	env := technique.DefaultEnv(16)
	w := workload.Specjbb()
	scns := make([]cluster.Scenario, 32)
	for i := range scns {
		scns[i] = cluster.Scenario{
			Env:      env,
			Workload: w,
			Backup:   cost.LargeEUPS(env.PeakPower()),
			Technique: technique.ThrottleThenSave{
				PState: 6, Save: technique.SaveSleep,
				ActiveFraction: float64(i%5+1) / 5,
			},
			Outage: time.Duration(i+1) * time.Minute,
		}
	}
	ctx := sweep.WithWidth(context.Background(), width)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Map(ctx, scns, func(_ context.Context, s cluster.Scenario) (cluster.Result, error) {
			return cluster.Simulate(s)
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(scns) {
			b.Fatalf("results = %d", len(res))
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweepWidth(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweepWidth(b, runtime.GOMAXPROCS(0)) }

// BenchmarkFullRegen regenerates the entire registry serially from a cold
// scenario cache — the wall-clock the CLI's default run tracks.
func BenchmarkFullRegen(b *testing.B) {
	ctx := sweep.WithWidth(context.Background(), 1)
	for i := 0; i < b.N; i++ {
		core.ResetScenarioCache()
		memsim.ResetPrecopyMemo()
		if _, err := experiments.RunAll(ctx, experiments.Registry()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOutageAxis builds an n-point outage axis spanning 30s..8h — the
// range the paper's figures sweep.
func benchOutageAxis(n int) []time.Duration {
	axis := make([]time.Duration, n)
	span := 8*time.Hour - 30*time.Second
	for i := range axis {
		axis[i] = 30*time.Second + time.Duration(i)*span/time.Duration(max(n-1, 1))
	}
	return axis
}

// BenchmarkOutageBatch measures the batch kernel directly: one plan and
// one segment walk amortized over the whole outage axis. Compare against
// BenchmarkOutageScalar at the same axis width for the per-point dispatch
// it replaces; per-point cost should fall as the axis widens while the
// scalar path stays flat.
func BenchmarkOutageBatch(b *testing.B) {
	for _, n := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("axis-%d", n), func(b *testing.B) {
			env := technique.DefaultEnv(64)
			scn := cluster.Scenario{
				Env:       env,
				Workload:  workload.Specjbb(),
				Backup:    cost.LargeEUPS(env.PeakPower()),
				Technique: technique.Sleep{LowPower: true},
				Outage:    time.Hour,
			}
			axis := benchOutageAxis(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cluster.SimulateOutageBatch(scn, axis)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != n {
					b.Fatalf("results = %d", len(res))
				}
			}
		})
	}
}

// BenchmarkOutageScalar is the per-point loop BenchmarkOutageBatch
// replaces: one SimulateAggregate per axis point.
func BenchmarkOutageScalar(b *testing.B) {
	for _, n := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("axis-%d", n), func(b *testing.B) {
			env := technique.DefaultEnv(64)
			scn := cluster.Scenario{
				Env:       env,
				Workload:  workload.Specjbb(),
				Backup:    cost.LargeEUPS(env.PeakPower()),
				Technique: technique.Sleep{LowPower: true},
				Outage:    time.Hour,
			}
			axis := benchOutageAxis(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range axis {
					scn.Outage = d
					if _, err := cluster.SimulateAggregate(scn); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSizingOutageAxis measures warm-started bracket sizing along a
// 32-point outage axis from a cold scenario cache each iteration (the
// memo would otherwise make every iteration after the first free).
func BenchmarkSizingOutageAxis(b *testing.B) {
	fw := backuppower.NewFramework(64)
	w := workload.Specjbb()
	axis := benchOutageAxis(32)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ResetScenarioCache()
		pts, err := fw.MinCostUPSAxisCtx(ctx, technique.Sleep{LowPower: true}, w, axis)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(axis) {
			b.Fatalf("points = %d", len(pts))
		}
	}
}

// BenchmarkSizingOutageScalar is the cold-bracket-per-point loop that
// BenchmarkSizingOutageAxis replaces.
func BenchmarkSizingOutageScalar(b *testing.B) {
	fw := backuppower.NewFramework(64)
	w := workload.Specjbb()
	axis := benchOutageAxis(32)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ResetScenarioCache()
		for _, d := range axis {
			if _, _, err := fw.MinCostUPSCtx(ctx, technique.Sleep{LowPower: true}, w, d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGridOutageAxis runs a 32-point outage-axis grid end-to-end
// through the Runner (serial width, cold cache per iteration): two batch
// units of 32 rows each.
func BenchmarkGridOutageAxis(b *testing.B) {
	outs := make([]string, 32)
	for i, d := range benchOutageAxis(32) {
		outs[i] = d.String()
	}
	spec := grid.Spec{
		Workloads:  []string{"specjbb"},
		Configs:    []grid.ConfigDTO{{Name: "LargeEUPS"}},
		Techniques: []grid.TechniqueDTO{{Name: "sleep"}, {Name: "migration"}},
		Outages:    outs,
	}
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: 16})
	if err != nil {
		b.Fatal(err)
	}
	r := grid.NewRunner(core.New(16))
	ctx := sweep.WithWidth(context.Background(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ResetScenarioCache()
		rows := 0
		err := r.RunStream(ctx, plan, grid.RunOptions{}, func(row grid.RowResult) error {
			if row.Err != nil {
				return row.Err
			}
			rows++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows != len(plan.Points) {
			b.Fatalf("rows = %d", rows)
		}
	}
}

func BenchmarkBestForConfig(b *testing.B) {
	fw := backuppower.NewFramework(16)
	w := workload.Memcached()
	cfg := cost.LargeEUPS(fw.Env.PeakPower())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res, _ := fw.BestForConfig(cfg, w, 30*time.Minute); !res.Survived {
			b.Fatal("best config should survive")
		}
	}
}

// benchProcessEval measures EvaluateProcess at a given draw count —
// the process-level batch fold (draw expansion + one EvaluateBatchCtx +
// per-draw aggregation), cold scenario cache each iteration.
func benchProcessEval(b *testing.B, draws int) {
	b.Helper()
	fw := core.New(16)
	peak := fw.Env.PeakPower()
	cfg := cost.NoDG(peak)
	w := workload.Specjbb()
	p := outage.Process{
		Seed:        42,
		Draws:       draws,
		Arrival:     outage.Dist{Kind: outage.KindExponential, Mean: 2000 * time.Hour},
		Duration:    outage.Dist{Kind: outage.KindWeibull, Mean: 30 * time.Minute, Shape: 0.8},
		Correlation: 0.3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ResetScenarioCache()
		pr, err := fw.EvaluateProcess(cfg, technique.Sleep{}, w, p)
		if err != nil {
			b.Fatal(err)
		}
		if pr.Draws != draws {
			b.Fatalf("draws = %d", pr.Draws)
		}
	}
}

func BenchmarkProcessEval8Draws(b *testing.B)  { benchProcessEval(b, 8) }
func BenchmarkProcessEval64Draws(b *testing.B) { benchProcessEval(b, 64) }
