package grid

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/core"
	"backuppower/internal/sweep"
	"backuppower/internal/technique"
)

// DefaultShardSize is the number of rows evaluated (in parallel) per
// emitted shard when RunOptions does not say otherwise. Shards batch
// emission only — they never change row values or order — so the size is
// purely a latency/throughput knob for streaming consumers.
const DefaultShardSize = 64

// Runner executes compiled plans against a framework, instantiating
// sibling frameworks for cluster sizes the base does not cover (same
// battery chemistry, testbed scaled to the row's server count). All rows
// evaluate through core's process-global scenario memo cache, so a grid
// that revisits a scenario — or two grids that overlap — simulate it once.
type Runner struct {
	base *core.Framework

	mu      sync.Mutex
	derived map[int]*core.Framework
}

// NewRunner returns a runner over the given base framework.
func NewRunner(base *core.Framework) *Runner {
	return &Runner{base: base, derived: map[int]*core.Framework{}}
}

// framework returns the framework for an n-server row: the base when it
// already has that scale, else a memoized sibling sharing its battery.
func (r *Runner) framework(n int) *core.Framework {
	if r.base.Env.Servers == n {
		return r.base
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.derived[n]; ok {
		return f
	}
	f := &core.Framework{Env: technique.DefaultEnv(n), Battery: r.base.Battery}
	r.derived[n] = f
	return f
}

// RowResult is one evaluated plan row. Exactly one payload group is
// meaningful, selected by the plan's op: evaluate fills Result; size
// fills Feasible and (when feasible) Sizing; best fills Best and Result.
// Err records a row-level evaluation failure (the sweep continues);
// cancellation and deadline expiry abort the whole run instead.
type RowResult struct {
	Point    Point
	Result   cluster.Result
	Feasible bool
	Sizing   core.OperatingPoint
	Best     string

	// Process is the payload of an evaluate row whose Point carries a
	// stochastic outage process instead of a point duration.
	Process *core.ProcessResult

	Err error
}

// Progress reports shard completion during a streaming run.
type Progress struct {
	Shard    int // shards completed so far
	Shards   int // total shards in the plan
	RowsDone int // rows completed so far
	Rows     int // total rows in the plan
}

// RunOptions parameterize a run.
type RunOptions struct {
	// ShardSize is the emission batch size (default DefaultShardSize).
	// Any value yields identical rows in identical order.
	ShardSize int

	// Progress, when set, is called after each shard completes, from the
	// emitting goroutine, before the shard's rows are emitted.
	Progress func(Progress)
}

// RunStream evaluates the plan's rows in order, fanning each shard out
// through the sweep engine (pool width from sweep.WithWidth on ctx), and
// calls emit for every row as its shard completes. Rows and their order
// are invariant under pool width and shard size. An emit error or a
// context cancellation/deadline stops the remaining shards; row-level
// evaluation failures are reported in RowResult.Err and do not stop the
// sweep.
// Rows with consecutive indices that differ only in their outage form one
// batch unit dispatched through the axis-batched framework calls
// (EvaluateBatchCtx / MinCostUPSAxisCtx / BestForConfigAxisCtx), which is
// where the speedup comes from: Compile emits the outage axis innermost,
// so a dense axis collapses into a handful of plan constructions and
// segment walks. Units never span shard boundaries, so ShardSize 1 is the
// unbatched reference dispatch: every row an axis of length one.
// With a row store attached (SetRowStore), each shard consults the store
// first and dispatches only the rows it has never seen; stored rows merge
// back at their plan positions, so output bytes, order, and Progress are
// identical to a store-less run — a warm rerun just evaluates nothing.
// Freshly computed rows write through, and a fully successful run seals
// the store's write-ahead log into an immutable block.
func (r *Runner) RunStream(ctx context.Context, plan *Plan, opts RunOptions, emit func(RowResult) error) error {
	size := opts.ShardSize
	if size <= 0 {
		size = DefaultShardSize
	}
	n := len(plan.Points)
	shards := 0
	if n > 0 {
		if size > n {
			size = n
		}
		shards = (n + size - 1) / size
	}
	store := rowStore()
	done := 0
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		pts := plan.Points[start:end]
		coldPts := pts
		var merged []RowResult
		var coldPos []int
		var st shardStoreState
		if store != nil {
			merged = make([]RowResult, len(pts))
			coldPts, coldPos, st = consultStore(store, plan.Op, pts, merged)
		}
		units := groupUnits(coldPts)
		out, err := sweep.Map(ctx, units, func(ctx context.Context, unit []Point) ([]RowResult, error) {
			return r.evalUnit(ctx, plan.Op, unit)
		})
		if err != nil {
			return err
		}
		if store != nil {
			// Scatter computed rows back to their shard positions and
			// write them through.
			k := 0
			for _, rows := range out {
				for i := range rows {
					pos := coldPos[k]
					merged[pos] = rows[i]
					st.writeBack(store, plan.Op, pos, &merged[pos])
					k++
				}
			}
		}
		done++
		if opts.Progress != nil {
			opts.Progress(Progress{
				Shard:    done,
				Shards:   shards,
				RowsDone: end,
				Rows:     n,
			})
		}
		if store != nil {
			for i := range merged {
				if err := emit(merged[i]); err != nil {
					return err
				}
			}
		} else {
			// The store-less emit path is exactly the pre-store code: no
			// merge buffer, no per-shard allocation.
			for _, rows := range out {
				for i := range rows {
					if err := emit(rows[i]); err != nil {
						return err
					}
				}
			}
		}
	}
	if store != nil {
		// Seal is best-effort: a failure leaves rows in the WAL, where a
		// reopen still replays them; Stats exposes the attempt counts.
		_ = store.Seal()
	}
	return nil
}

// groupUnits splits a shard into batch units: maximal runs of consecutive
// points that are batchable with their predecessor. Units are subslices —
// no points are copied.
func groupUnits(points []Point) [][]Point {
	units := make([][]Point, 0, len(points))
	for start := 0; start < len(points); {
		end := start + 1
		for end < len(points) && batchable(&points[end-1], &points[end]) {
			end++
		}
		units = append(units, points[start:end])
		start = end
	}
	return units
}

// batchable reports whether two adjacent rows differ only in their outage,
// making them one axis-batch unit. Pointer receivers keep the hot grouping
// loop from copying the config-bearing Point struct per comparison.
// Process rows never batch: each is one unit of one row, so a shard cut
// can never split a process's Monte-Carlo draws (the process evaluates
// whole, inside its single row).
func batchable(a, b *Point) bool {
	return a.Process == nil && b.Process == nil &&
		a.Servers == b.Servers &&
		a.Workload == b.Workload &&
		a.HasConfig == b.HasConfig &&
		a.Config == b.Config &&
		a.Family == b.Family &&
		sameTechnique(a.Technique, b.Technique)
}

// sameTechnique reports whether two technique values are interchangeable
// for batching: both nil (best rows), or the same comparable dynamic type
// holding equal values. Non-comparable techniques never batch — the ==
// below would panic on them.
func sameTechnique(a, b technique.Technique) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// Run is RunStream collecting every row.
func (r *Runner) Run(ctx context.Context, plan *Plan, opts RunOptions) ([]RowResult, error) {
	rows := make([]RowResult, 0, len(plan.Points))
	err := r.RunStream(ctx, plan, opts, func(row RowResult) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// evalUnit evaluates one batch unit through the axis-batched framework
// calls; a one-row unit is an axis of length one. Process rows are units
// of one row and keep their single EvaluateProcessCtx call. Context
// errors propagate, aborting the run; any other error becomes a row-level
// Err. A longer unit that fails is re-evaluated row by row, because a
// batch call validates the whole axis up front and cannot say which rows
// are at fault.
func (r *Runner) evalUnit(ctx context.Context, op string, pts []Point) ([]RowResult, error) {
	fw := r.framework(pts[0].Servers)
	rows := make([]RowResult, len(pts))
	outages := make([]time.Duration, len(pts))
	for i := range pts {
		outages[i] = pts[i].Outage
		rows[i].Point = pts[i]
	}
	var err error
	switch {
	case op == OpSize:
		var sz []core.SizingPoint
		sz, err = fw.MinCostUPSAxisCtx(ctx, pts[0].Technique, pts[0].Workload, outages)
		if err == nil {
			for i := range rows {
				rows[i].Sizing, rows[i].Feasible = sz[i].Op, sz[i].Feasible
			}
		}
	case op == OpBest:
		var best []core.BestPoint
		best, err = fw.BestForConfigAxisCtx(ctx, pts[0].Config, pts[0].Workload, outages)
		if err == nil {
			for i := range rows {
				rows[i].Result = best[i].Result
				if best[i].Tech != nil {
					rows[i].Best = best[i].Tech.Name()
				}
			}
		}
	case pts[0].Process != nil:
		var pr core.ProcessResult
		pr, err = fw.EvaluateProcessCtx(ctx, pts[0].Config, pts[0].Technique, pts[0].Workload, *pts[0].Process)
		if err == nil {
			rows[0].Process = &pr
		}
	default: // OpEvaluate
		var res []cluster.Result
		res, err = fw.EvaluateBatchCtx(ctx, pts[0].Config, pts[0].Technique, pts[0].Workload, outages)
		if err == nil {
			for i := range rows {
				rows[i].Result = res[i]
			}
		}
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, err
	case len(pts) == 1:
		rows[0].Err = err
	default:
		for i := range pts {
			row, err := r.evalUnit(ctx, op, pts[i:i+1])
			if err != nil {
				return nil, err
			}
			rows[i] = row[0]
		}
	}
	return rows, nil
}
