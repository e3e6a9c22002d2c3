package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"backuppower/internal/grid"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runCLI runs the command at a minimal length and decodes its last line.
func runCLI(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.2",
		"--trace", trace, "--work-dir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	var rec struct{ Record record }
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Record.Inputs.Seed != 7 {
		t.Fatalf("first line is not a record of seed 7: %v %q", err, lines[0])
	}
	return res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, tc := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			res := runCLI(t, w, tc.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, tc.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, tc.trace, len(res.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, tc.trace, m.Name, got, m.Unit)
				}
			}
			// One compile per local op; on the fabric the coordinator and
			// every shard request compile the whole plan.
			if got := res.Metrics["grid.compiles_per_op"].Value; tc.trace == "1" &&
				(w == "fabric-warm" && got < 10 || w != "fabric-warm" && math.Abs(got-1) > 0.05) {
				t.Errorf("%s: grid.compiles_per_op = %.3f", w, got)
			}
		}
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, command knows %v", names, workloadNames)
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		names = append(names, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
}

func testConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 3, seconds: 0.3, setups: 1, workDir: t.TempDir(), corruptOp: -1}
}

func TestCorruptedByteFailsTheOp(t *testing.T) {
	for _, w := range []string{"sweep-cold", "fabric-warm"} {
		cfg := testConfig(t, w)
		cfg.corruptOp = 0
		res, _, err := runBenchmark(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 || res.Correct {
			t.Errorf("%s: attempted=%d failed=%d correct=%v, want exactly op 0 failed", w, res.Attempted, res.Failed, res.Correct)
		}
	}
}

func TestDetachedStoreTripsRecomputeCheck(t *testing.T) {
	cfg := testConfig(t, "store-rerun")
	cfg.detachStore = true
	if _, _, err := runBenchmark(cfg); err == nil || !strings.Contains(err.Error(), "recomputes") {
		t.Fatalf("set-up with a detached store: err = %v, want the warm-up op's recompute check to fail", err)
	}
	// Detach only after set-up, so the timed ops are the ones that fail.
	e := &env{spec: newInputs(3).sweepSpec(), workDir: t.TempDir()}
	var err error
	if e.ref, err = reference(e.spec); err != nil {
		t.Fatal(err)
	}
	b, err := setup("store-rerun", e)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	e.detachStore = true
	w := measure(testConfig(t, "store-rerun"), e, b, plain)
	for _, s := range w.samples {
		if s.ok {
			t.Fatal("a store-rerun op passed with the store detached")
		}
	}
	if len(w.samples) == 0 || !strings.Contains(w.firstErr.Error(), "recomputes") {
		t.Fatalf("first error = %v", w.firstErr)
	}
}

func TestSeedsChangeValuesNotShape(t *testing.T) {
	a, b := newInputs(1), newInputs(2)
	if reflect.DeepEqual(a.Outages, b.Outages) || reflect.DeepEqual(a.ProcessSeeds, b.ProcessSeeds) {
		t.Fatal("seeds 1 and 2 drew the same inputs")
	}
	if !reflect.DeepEqual(a, newInputs(1)) {
		t.Fatal("seed 1 is not reproducible")
	}
	for _, spec := range []func(inputs) grid.Spec{inputs.sweepSpec, inputs.processSpec} {
		var rows []int
		for _, in := range []inputs{a, b} {
			plan, err := grid.Compile(spec(in), grid.CompileOptions{DefaultServers: defaultServers})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, len(plan.Points))
		}
		if rows[0] != rows[1] {
			t.Errorf("row counts differ across seeds: %v", rows)
		}
	}
	plan, _ := grid.Compile(a.sweepSpec(), grid.CompileOptions{DefaultServers: defaultServers})
	if len(plan.Points) != 2880 {
		t.Errorf("sweep grid has %d rows, want 2880", len(plan.Points))
	}
}

func TestProfileShareUnderCompile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	spec := newInputs(1).sweepSpec()
	for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
		grid.Compile(spec, grid.CompileOptions{DefaultServers: defaultServers})
	}
	share, err := p.stop(compileFunc)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.1 || share > 1 { // the race detector runs its own work beside the loop
		t.Errorf("share under %s = %.3f while compiling in a loop, want a clear share", compileFunc, share)
	}
	p, _ = startCPUProfile()
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
		drawTimes(newInputs(1).processSpec().OutageProcesses)
	}
	if share, err = p.stop(compileFunc); err != nil || share != 0 {
		t.Errorf("share under %s = %.3f (err %v) with no compile running, want 0", compileFunc, share, err)
	}
}
