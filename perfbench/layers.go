package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/metrics"
	"time"

	"backuppower/internal/grid"
)

// rtSnapshot holds the Go runtime counters the per-layer metrics use.
type rtSnapshot struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	sched           *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSnapshot
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		r.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: h.Buckets,
		}
	}
	return r
}

// schedP90 is the 90th percentile of the scheduling latencies observed
// between two snapshots, as the upper edge of its histogram bucket.
func schedP90(a, b rtSnapshot) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range d {
		cum += c
		if float64(cum) >= 0.9*float64(total) {
			edge := b.sched.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.sched.Buckets[i]
			}
			return edge * 1000
		}
	}
	return 0
}

// fabCounters are the coordinator's shard counters (Fabric.Metrics).
type fabCounters struct {
	Shards struct {
		Dispatched, Hedged, Retried float64
	} `json:"shards"`
}

func fabricCounters(b *bench) fabCounters {
	var c fabCounters
	if b.fabric == nil {
		return c
	}
	var buf bytes.Buffer
	b.fabric.Metrics().Write(&buf)
	json.Unmarshal(buf.Bytes(), &c) // a layout change leaves the counters at 0
	return c
}

// accountTolerance bounds how far a local workload's traced emit plus
// runner self time (the grid.run spans) may differ from its untraced
// pass_ms_p50, as a share of it. The difference is compile time, the
// benchmark's own op overhead and the tracing overhead.
const accountTolerance = 0.25

// layers fills the per-layer metrics of a traced run from its spans,
// its counters and direct calls into the layers.
// It returns how much of the untraced pass_ms_p50 the grid.run spans
// account for.
func layers(m map[string]metric, cfg config, e *env, b *bench, w, pw, cw window, fab0, fab1 fabCounters) float64 {
	put := func(name string, v float64, unit string) { m[name] = metric{finite(v), unit} }
	lt := e.tr.analyze()
	ops := float64(max(lt.count[spanOp], 1))
	krows := float64(max(w.tracedRows, 1)) / 1000
	rows := float64(max(w.tracedRows, 1))

	// Tracing overhead: traced minus untraced ops of this run.
	var tw, uw []float64
	var tc, uc time.Duration
	var tn, un int
	for _, s := range w.samples {
		if s.traced {
			tw = append(tw, ms(int64(s.wall)))
			tc += s.cpu
			tn++
		} else {
			uw = append(uw, ms(int64(s.wall)))
			uc += s.cpu
			un++
		}
	}
	perK := float64(b.rowsPerOp) / 1000
	put("trace.overhead_pass_ms_p50", median(tw)-median(uw), "ms")
	put("trace.overhead_cpu_ms_per_krow",
		ms(int64(tc))/(float64(max(tn, 1))*perK)-ms(int64(uc))/(float64(max(un, 1))*perK), "ms")
	put("trace.spans_per_op", float64(e.tr.n)/ops, "count")

	// grid
	// Compiles inside the fabric's workers cannot be wrapped, so they are
	// read from the profiled and counting phases.
	put("grid.compile_ms", compileMS(e.spec), "ms")
	put("grid.compile_cpu_share", pw.compileShare, "ratio")
	put("grid.compiles_per_op", cw.compilesPerOp, "count")
	emit := lt.totalMS[spanEmit]
	put("grid.emit_ms_per_krow", emit/krows, "ms")
	put("grid.run_self_ms_per_krow", (lt.totalMS[spanRun]-emit)/krows, "ms")
	put("grid.ndjson_bytes_per_row", float64(len(e.ref))/float64(max(b.rowsPerOp/opsHalves(cfg), 1)), "B")
	accounted := lt.totalMS[spanRun] / ops / median(uw)
	put("trace.accounted_share", accounted, "ratio")

	// core
	put("core.cache_hit_ratio", float64(w.cacheHits)/float64(w.cacheHits+w.cacheMiss), "ratio")
	put("core.cache_entries", median(w.cacheEntries), "count")

	// outage
	drawUS, events := drawTimes(b.processes)
	put("outage.draw_us", drawUS, "us")
	put("outage.events_per_draw", events, "count")

	// resultstore
	gets := float64(lt.count[spanStoreGet])
	put("store.open_ms", mean(lt.durs[spanStoreOpen]), "ms")
	put("store.get_us_p50", median(lt.durs[spanStoreGet])*1000, "us")
	put("store.gets_per_row", gets/rows, "count")
	put("store.hit_ratio", float64(lt.hits)/gets, "ratio")
	put("store.get_bytes_per_row", float64(lt.bytes[spanStoreGet])/rows, "B")
	put("store.put_us_p50", median(lt.durs[spanStorePut])*1000, "us")
	put("store.put_bytes_per_row", float64(lt.bytes[spanStorePut])/rows, "B")
	put("store.seal_ms", mean(lt.durs[spanStoreSeal]), "ms")
	put("store.recomputes_warm", float64(w.recomputesWarm), "count")

	// httpapi
	put("httpapi.handler_ms_p50", median(lt.durs[spanHandler]), "ms")
	put("httpapi.ttfb_ms_p50", median(lt.ttfbMS), "ms")
	put("httpapi.bytes_per_row", float64(lt.bytes[spanHandler])/rows, "B")
	busy, n := 0.0, 0
	if len(lt.workers) > 0 {
		for op, wall := range lt.opMS {
			for wk := range lt.workers {
				busy += lt.busyMS[[2]int32{op, int32(wk)}] / wall
				n++
			}
		}
	}
	put("httpapi.worker_busy_share", busy/float64(max(n, 1)), "ratio")

	// fabric
	put("fabric.shards_per_op", float64(lt.count[spanShard])/ops, "count")
	put("fabric.shard_rtt_ms_p50", median(lt.durs[spanShard]), "ms")
	coordSelf := 0.0
	if lt.count[spanShard] > 0 {
		for op, wall := range lt.opMS {
			coordSelf += wall - lt.shardCov[op]
		}
		coordSelf /= ops
	}
	put("fabric.coord_self_ms", coordSelf, "ms")
	dispatched := fab1.Shards.Dispatched - fab0.Shards.Dispatched
	put("fabric.hedge_ratio", (fab1.Shards.Hedged-fab0.Shards.Hedged)/dispatched, "ratio")
	put("fabric.retry_ratio", (fab1.Shards.Retried-fab0.Shards.Retried)/dispatched, "ratio")

	runtimeMetrics(m, w)

	// Self time per layer, per traced op.
	for k := spanKind(0); k < numSpanKinds; k++ {
		put("self."+spanNames[k]+"_ms", lt.selfMS[k]/ops, "ms")
	}
	return accounted
}

// runtimeMetrics puts the Go runtime figures of the whole window. The
// spans of a traced run are kept off the Go heap, so they do not move
// the garbage collector's pacing.
func runtimeMetrics(m map[string]metric, w window) {
	cpu := w.rt1.totalCPU - w.rt0.totalCPU
	m["runtime.gc_cpu_share"] = metric{finite((w.rt1.gcCPU - w.rt0.gcCPU) / cpu), "ratio"}
	m["runtime.gc_cycles_per_krow"] = metric{float64(w.rt1.gcCycles-w.rt0.gcCycles) / (float64(max(w.rows, 1)) / 1000), "count"}
	m["runtime.sched_latency_ms_p90"] = metric{schedP90(w.rt0, w.rt1), "ms"}
}

// finite maps NaN and infinities to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// opsHalves is how many passes over the grid one op makes.
func opsHalves(cfg config) int {
	if cfg.workload == "store-rerun" {
		return 2
	}
	return 1
}

// compileMS times grid.Compile of the workload's spec directly: the
// median of 21 calls.
func compileMS(spec grid.Spec) float64 {
	var v []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		grid.Compile(spec, grid.CompileOptions{DefaultServers: defaultServers})
		v = append(v, ms(int64(time.Since(t0))))
	}
	return median(v)
}

// drawTimes times Process.Draw over every draw of the workload's
// processes: the median over 21 passes of the mean time per draw, and
// the mean events per draw.
func drawTimes(procs []grid.ProcessDTO) (us, events float64) {
	var draws, evs int
	var v []float64
	for pass := 0; pass < 21; pass++ {
		var d time.Duration
		draws, evs = 0, 0
		for _, dto := range procs {
			p, err := grid.ResolveProcess(dto)
			if err != nil {
				continue
			}
			for i := 0; i < p.Draws; i++ {
				t0 := time.Now()
				evs += len(p.Draw(i))
				d += time.Since(t0)
				draws++
			}
		}
		if draws == 0 {
			return 0, 0
		}
		v = append(v, float64(d)/1e3/float64(draws))
	}
	return median(v), float64(evs) / float64(draws)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
