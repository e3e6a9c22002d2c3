// Command perfbench is the repository's end-to-end benchmark. It drives
// the sweep pipeline from outside, through its public entry points, with
// one closed-loop client: one op at a time, back to back, for a fixed
// number of seconds. Every op's NDJSON output is compared byte for byte
// with a reference run made at set-up.
//
//	go run . --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced ops, keeps the traced ops' spans in
// memory, writes them out when the run ends, and prints the per-layer
// metrics plus the tracing overhead. A traced run ends with untraced ops
// under a CPU profile and then the memory profile, which measure compile
// work inside the fabric's workers. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"backuppower/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	setups   int // set-ups per run; setup_s is their median

	// corruptOp flips one output byte of that op (tests; -1 = none).
	corruptOp   int
	detachStore bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is printed before the result: what a reader needs to trust it.
type record struct {
	Workload    string    `json:"workload"`
	Inputs      inputs    `json:"inputs"`
	Trace       bool      `json:"trace"`
	NProc       int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	StoreFS     string    `json:"store_fs"`
	RowsPerOp   int       `json:"rows_per_op"`
	RefSHA256   string    `json:"reference_sha256"`
	Ops         int       `json:"ops"`
	TracedOps   int       `json:"traced_ops"`
	FailedShare float64   `json:"failed_share"`
	P90Rank     string    `json:"pass_ms_p90_rank"`
	SetupCPU    []float64 `json:"setup_cpu_s_runs"`
	SetupWall   []float64 `json:"setup_wall_s_runs"`
	WindowS     float64   `json:"window_s"`
	FirstError  string    `json:"first_error,omitempty"`

	// StealShare is the share of the host's CPU time the hypervisor gave
	// to other guests during the window (/proc/stat steal): the co-tenant
	// interference behind a jump in the wall-clock figures.
	StealShare float64 `json:"host_steal_share"`

	// WallClock holds the wall-clock figures of an untraced run. They
	// are printed and recorded but carry no bound: on a shared host they
	// move with the steal share (see README.md).
	WallClock map[string]metric `json:"wall_clock,omitempty"`

	// Runtime holds an untraced run's Go runtime figures, to compare with
	// the runtime.* per-layer metrics of a traced run.
	Runtime map[string]metric `json:"runtime,omitempty"`

	// Accounted says, on a traced run of a local workload, whether the
	// grid.run spans account for the untraced pass_ms_p50.
	Accounted string `json:"accounted,omitempty"`
}

// setups is how many times a run sets its workload up from scratch.
const setups = 9

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: setups, corruptOp: -1}
	fs.StringVar(&cfg.workload, "workload", "", "workload: sweep-cold, store-rerun, fabric-warm or process-cold")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (outage durations and process seeds)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "perfbench"), "directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	if !known || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --trace 0|1, --seconds > 0\n", workloadNames)
		return 2
	}
	res, rec, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	recJSON, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Fprintf(stdout, "%s\n", recJSON)
	printTable(stdout, res.Metrics, "")
	printTable(stdout, rec.WallClock, " (wall clock, no bound)")
	fmt.Fprintf(stdout, "%-36s %14.6g %s\n", "failed_share", rec.FailedShare, "ratio")
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func printTable(w io.Writer, m map[string]metric, note string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

// sample is one timed op.
type sample struct {
	wall, first, cpu time.Duration
	traced, ok       bool
}

// window is what the timed loop measured.
type window struct {
	samples              []sample
	wall, cpu            time.Duration
	rows, tracedRows     int
	mallocs, allocBytes  uint64
	cacheHits, cacheMiss uint64 // traced ops only
	cacheEntries         []float64
	recomputesWarm       uint64
	rt0, rt1             rtSnapshot
	compileShare         float64 // profiled phase: CPU profile share under grid.Compile
	compilesPerOp        float64 // counting phase: compiles per op
	firstErr             error
}

func runBenchmark(cfg config) (*result, *record, error) {
	in := newInputs(cfg.seed)
	spec := in.sweepSpec()
	if cfg.workload == "process-cold" {
		spec = in.processSpec()
	}
	workDir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(workDir)

	ref, err := reference(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	sum := sha256.Sum256(ref)
	e := &env{spec: spec, ref: ref, workDir: workDir, detachStore: cfg.detachStore}
	if cfg.trace {
		e.tr = newTracer()
		defer e.tr.release()
	}

	// Set up several times from scratch and keep the last. setup_s is the
	// median CPU time of a set-up: the work it does, which co-tenant load
	// on a shared host moves far less than its wall time.
	var setupCPU, setupWall []float64
	var b *bench
	for i := 0; i < cfg.setups; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t0, c0 := time.Now(), cpuTime()
		bb, err := setup(cfg.workload, e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			bb.close()
		} else {
			b = bb
		}
	}
	defer b.close()

	// A traced run spends its last fifth on untraced ops under a CPU
	// profile, so that the profiler's own heap stays out of the first
	// four fifths, where the runtime.* metrics are read.
	ph, mc := plain, cfg
	if cfg.trace {
		ph, mc.seconds = alternate, cfg.seconds*4/5
	}
	fab0, steal0 := fabricCounters(b), hostSteal()
	w := measure(mc, e, b, ph)
	fab1, steal1 := fabricCounters(b), hostSteal()
	var pw, cw window
	if cfg.trace {
		prof := cfg
		prof.seconds, prof.corruptOp = cfg.seconds-mc.seconds, -1
		pw = measure(prof, e, b, profiled)
		cw = countCompiles(cfg, e, b)
	}
	phases := []window{w, pw, cw}

	rec := &record{
		Workload:   cfg.workload,
		Inputs:     in,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StoreFS:    fsName(workDir),
		RowsPerOp:  b.rowsPerOp,
		RefSHA256:  hex.EncodeToString(sum[:]),
		SetupCPU:   setupCPU,
		SetupWall:  setupWall,
		WindowS:    w.wall.Seconds(),
		StealShare: float64(steal1-steal0) / clockTicks / (w.wall.Seconds() * float64(runtime.NumCPU())),
	}
	res := &result{Metrics: map[string]metric{}}
	var recomputes uint64
	for _, ph := range phases {
		for _, s := range ph.samples {
			if !s.ok {
				res.Failed++
			}
			if s.traced {
				rec.TracedOps++
			}
		}
		res.Attempted += len(ph.samples)
		recomputes += ph.recomputesWarm
		if ph.firstErr != nil && rec.FirstError == "" {
			rec.FirstError = ph.firstErr.Error()
		}
	}
	rec.Ops = res.Attempted
	res.Correct = res.Failed == 0 && recomputes == 0
	rec.FailedShare = float64(res.Failed) / float64(res.Attempted)

	if !cfg.trace {
		var walls, firsts []float64
		for _, s := range w.samples {
			walls = append(walls, ms(int64(s.wall)))
			firsts = append(firsts, ms(int64(s.first)))
		}
		p90, rank := tailPercentile(walls, 0.90)
		rec.P90Rank = rank
		put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		rows := float64(max(w.rows, 1))
		rec.WallClock = map[string]metric{
			"rows_per_s":       {float64(w.rows) / w.wall.Seconds(), "1/s"},
			"pass_ms_p50":      {median(walls), "ms"},
			"pass_ms_p90":      {p90, "ms"},
			"first_row_ms_p50": {median(firsts), "ms"},
			"setup_wall_s":     {median(setupWall), "s"},
		}
		put("setup_s", median(setupCPU), "s")
		put("cpu_ms_per_krow", ms(int64(w.cpu))/rows*1000, "ms")
		put("allocs_per_row", float64(w.mallocs)/rows, "count")
		put("alloc_bytes_per_row", float64(w.allocBytes)/rows, "B")
		put("max_rss_mb", maxRSSMiB(), "MiB")
		rec.Runtime = map[string]metric{}
		runtimeMetrics(rec.Runtime, w)
		return res, rec, nil
	}

	if e.tr.err != nil {
		return nil, nil, e.tr.err
	}
	share := layers(res.Metrics, cfg, e, b, w, pw, cw, fab0, fab1)
	if cfg.workload != "fabric-warm" {
		verdict := "within"
		if share < 1-accountTolerance || share > 1+accountTolerance {
			verdict = "outside"
		}
		rec.Accounted = fmt.Sprintf("grid.emit + grid.run_self = %.3f of untraced pass_ms_p50, %s the tolerance 1±%.2f",
			share, verdict, accountTolerance)
	}
	if err := e.tr.dump(filepath.Join(cfg.workDir, "trace-"+cfg.workload+".tsv.gz")); err != nil {
		return nil, nil, fmt.Errorf("span dump: %w", err)
	}
	return res, rec, nil
}

// phase says how measure runs its ops.
type phase int

const (
	plain     phase = iota // untraced ops
	alternate              // untraced and traced ops in turn
	profiled               // untraced ops under a CPU profile
)

// measure runs ops back to back until the window has lasted cfg.seconds.
// A traced run alternates untraced and traced ops, so the tracing
// overhead is measured against ops from the same minutes.
func measure(cfg config, e *env, b *bench, ph phase) window {
	var w window
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof *cpuProfile
	if ph == profiled {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			w.firstErr = fmt.Errorf("cpu profile: %w", err)
		}
	}
	w.rt0 = readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	for id := 0; time.Since(t0) < limit; id++ {
		if coldBeforeOp(cfg.workload) {
			purgeCaches()
		}
		o := &opRun{id: id, corrupt: id == cfg.corruptOp}
		traced := ph == alternate && id%2 == 1
		var sp span
		if traced {
			e.tr.curOp.Store(int32(id))
			sp = e.tr.begin(spanOp, 0)
			e.tr.curSpan.Store(sp.id)
			o.tr, o.span = e.tr, sp.id
			e.tr.on.Store(true)
		}
		h0, m0 := core.ScenarioCacheStats()
		c0 := cpuTime()
		o.start = time.Now()
		err := b.op(o)
		s := sample{wall: time.Since(o.start), first: o.first, traced: traced, ok: err == nil}
		s.cpu = cpuTime() - c0
		if traced {
			e.tr.on.Store(false)
			e.tr.finish(sp)
			h1, m1 := core.ScenarioCacheStats()
			w.cacheHits += h1 - h0
			w.cacheMiss += m1 - m0
			w.cacheEntries = append(w.cacheEntries, float64(core.ScenarioCacheLen()))
		}
		if b.after != nil {
			b.after(o)
		}
		w.recomputesWarm += o.warmRecomputes
		if err != nil && w.firstErr == nil {
			w.firstErr = fmt.Errorf("op %d: %w", id, err)
		}
		if s.ok {
			w.rows += b.rowsPerOp
			if traced {
				w.tracedRows += b.rowsPerOp
			}
		}
		w.samples = append(w.samples, s)
	}
	w.wall = time.Since(t0)
	w.cpu = cpuTime() - cpu0
	w.rt1 = readRuntime()
	if prof != nil {
		var err error
		if w.compileShare, err = prof.stop(compileFunc); err != nil {
			w.firstErr = fmt.Errorf("cpu profile: %w", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return w
}

// cpuTime is the process's user+sys CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/stat times.
const clockTicks = 100

// hostSteal is the steal time of all CPUs from /proc/stat, in clock
// ticks; 0 where the kernel does not report it.
func hostSteal() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile is the nearest-rank q-th percentile, lowered when
// needed so that at least ten samples lie beyond it; rank says which
// percentile it is and over how many samples.
func tailPercentile(v []float64, q float64) (float64, string) {
	n := len(v)
	if n == 0 {
		return 0, "n=0"
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(float64(n)*q + 0.999999) // nearest rank, 1-based
	if n-rank < 10 {
		rank = max(n-10, 1)
	}
	return s[rank-1], fmt.Sprintf("p%.1f of n=%d", 100*float64(rank)/float64(n), n)
}
