package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"backuppower/internal/core"
	"backuppower/internal/resultstore"
	"backuppower/internal/sweep"
)

// storeRunNDJSON streams one plan through a fresh runner at the given
// pool width and returns the NDJSON bytes, exactly as the serving
// surfaces encode them.
func storeRunNDJSON(t *testing.T, plan *Plan, width int, opts RunOptions) []byte {
	t.Helper()
	ctx := context.Background()
	if width > 0 {
		ctx = sweep.WithWidth(ctx, width)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := NewRunner(core.New(8)).RunStream(ctx, plan, opts, func(row RowResult) error {
		return enc.Encode(NewRowDTO(plan.Op, row))
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	return buf.Bytes()
}

func storePlans(t *testing.T) map[string]*Plan {
	t.Helper()
	return map[string]*Plan{
		"evaluate": compileOK(t, Spec{
			Workloads: []string{"specjbb", "memcached"},
			Configs:   []ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}},
			Techniques: []TechniqueDTO{
				{Name: "baseline"},
				{Name: "sleep", LowPower: boolp(true)},
			},
			Outages: []string{"30s", "5m", "30m"},
		}),
		"size": compileOK(t, Spec{
			Op:        OpSize,
			Workloads: []string{"specjbb"},
			Techniques: []TechniqueDTO{
				{Name: "throttling", PState: intp(6)},
				{Name: "baseline"},
			},
			Outages: []string{"5m", "2h"},
		}),
		"best": compileOK(t, Spec{
			Op:        OpBest,
			Workloads: []string{"specjbb"},
			Configs:   []ConfigDTO{{Name: "NoDG"}},
			Outages:   []string{"5m", "30m"},
		}),
	}
}

// TestRunStreamWarmRerunServedFromStore is the tentpole acceptance at
// the grid layer: a rerun of an identical plan against a warm store
// evaluates zero new fingerprints (proven by the store's recompute/put
// counters) and emits byte-identical NDJSON at any parallel width and
// shard size.
func TestRunStreamWarmRerunServedFromStore(t *testing.T) {
	for name, plan := range storePlans(t) {
		t.Run(name, func(t *testing.T) {
			disk, err := resultstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			SetRowStore(disk)
			defer func() {
				SetRowStore(nil)
				disk.Close()
			}()

			cold := storeRunNDJSON(t, plan, 0, RunOptions{})
			st := disk.Stats()
			if int(st.RecomputesRows) != len(plan.Points) || int(st.Puts) != len(plan.Points) {
				t.Fatalf("cold run stats: %+v for %d points", st, len(plan.Points))
			}
			if st.Seals == 0 {
				t.Fatalf("completed sweep did not seal: %+v", st)
			}

			for _, cfg := range []struct {
				width int
				opts  RunOptions
			}{
				{0, RunOptions{}},
				{1, RunOptions{}},
				{4, RunOptions{ShardSize: 1}},
				{2, RunOptions{ShardSize: 3}},
				{0, RunOptions{ShardSize: 7}},
				{0, RunOptions{ShardSize: 1}},
			} {
				before := disk.Stats()
				warm := storeRunNDJSON(t, plan, cfg.width, cfg.opts)
				if !bytes.Equal(warm, cold) {
					t.Fatalf("width %d opts %+v: warm rerun bytes diverged", cfg.width, cfg.opts)
				}
				after := disk.Stats()
				if d := after.RecomputesRows - before.RecomputesRows; d != 0 {
					t.Fatalf("width %d opts %+v: warm rerun recomputed %d rows", cfg.width, cfg.opts, d)
				}
				if d := after.Puts - before.Puts; d != 0 {
					t.Fatalf("width %d opts %+v: warm rerun re-put %d rows", cfg.width, cfg.opts, d)
				}
				if d := after.HitsRows - before.HitsRows; int(d) != len(plan.Points) {
					t.Fatalf("width %d opts %+v: warm rerun hit %d of %d rows", cfg.width, cfg.opts, d, len(plan.Points))
				}
			}
		})
	}
}

// TestRunStreamBackfillsLostRows pins crash recovery end to end: corrupt
// the sealed block so a suffix of the stored rows is lost, reopen, and a
// rerun must evaluate exactly the missing fingerprints — no more, no
// less — while reproducing the cold run's bytes.
func TestRunStreamBackfillsLostRows(t *testing.T) {
	plan := storePlans(t)["evaluate"]
	dir := t.TempDir()
	disk, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetRowStore(disk)
	cold := storeRunNDJSON(t, plan, 0, RunOptions{})
	SetRowStore(nil)
	disk.Close()

	// Chop the tail off the block file: the valid prefix stays readable,
	// the rest of the rows are gone — the same shape a torn WAL leaves.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var blockPath string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".blk") {
			blockPath = filepath.Join(dir, e.Name())
		}
	}
	if blockPath == "" {
		t.Fatal("no sealed block found")
	}
	info, err := os.Stat(blockPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(blockPath, info.Size()*3/5); err != nil {
		t.Fatal(err)
	}

	reopened, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetRowStore(reopened)
	defer func() {
		SetRowStore(nil)
		reopened.Close()
	}()
	surviving := reopened.Stats().Keys
	lost := len(plan.Points) - surviving
	if lost <= 0 || surviving <= 0 {
		t.Fatalf("truncation lost %d of %d rows — test needs a partial loss", lost, len(plan.Points))
	}

	warm := storeRunNDJSON(t, plan, 0, RunOptions{})
	if !bytes.Equal(warm, cold) {
		t.Fatal("backfill rerun bytes diverged from the cold run")
	}
	st := reopened.Stats()
	if int(st.RecomputesRows) != lost {
		t.Fatalf("rerun recomputed %d rows, want exactly the %d lost", st.RecomputesRows, lost)
	}
	if int(st.HitsRows) != surviving {
		t.Fatalf("rerun hit %d rows, want the %d survivors", st.HitsRows, surviving)
	}
	if int(st.Puts) != lost {
		t.Fatalf("rerun re-put %d rows, want exactly the %d lost", st.Puts, lost)
	}
	if st.Keys != len(plan.Points) {
		t.Fatalf("store holds %d keys after backfill, want %d", st.Keys, len(plan.Points))
	}
}

// TestStoredRowCrossCheck pins the alias guard: a stored payload whose
// coordinates disagree with the requesting point (a key collision, a
// digest bug) is rejected rather than emitted.
func TestStoredRowCrossCheck(t *testing.T) {
	plan := storePlans(t)["evaluate"]
	rows, err := NewRunner(core.New(8)).Run(context.Background(), plan, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	p := row.Point
	sr, ok := storedFromRow(plan.Op, &row)
	if !ok {
		t.Fatal("clean row not storable")
	}
	if _, ok := rowFromStored(plan.Op, p, &sr); !ok {
		t.Fatal("faithful payload rejected")
	}
	for name, mut := range map[string]func(*resultstore.StoredRow){
		"op":        func(r *resultstore.StoredRow) { r.Op = OpSize },
		"servers":   func(r *resultstore.StoredRow) { r.Servers++ },
		"workload":  func(r *resultstore.StoredRow) { r.Workload = "other" },
		"outage":    func(r *resultstore.StoredRow) { r.OutageNS++ },
		"technique": func(r *resultstore.StoredRow) { r.Technique = "other" },
	} {
		bad := sr
		mut(&bad)
		if _, ok := rowFromStored(plan.Op, p, &bad); ok {
			t.Errorf("payload with mismatched %s accepted", name)
		}
	}
}
