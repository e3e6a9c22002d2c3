package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/fabric"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
	"backuppower/internal/memsim"
	"backuppower/internal/resultstore"
)

// defaultServers is backupd's, gridrun's and sweepfront's default
// cluster scale, so every surface compiles the same plan.
const defaultServers = 64

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-cold", "store-rerun", "fabric-warm", "process-cold"}

// opRun is one op in flight. tr is nil when the op is not traced.
type opRun struct {
	id      int
	tr      *tracer
	span    int32 // the op span's id when traced
	start   time.Time
	first   time.Duration // op start to first NDJSON row; 0 until seen
	corrupt bool          // flip one output byte before the check (tests)

	// warmRecomputes is the store-rerun warm half's recompute delta.
	warmRecomputes uint64
}

// checker compares an op's NDJSON output byte for byte with the
// reference run, stamping the arrival of the first row.
type checker struct {
	o   *opRun
	ref []byte
	off int
	bad bool
}

func (c *checker) Write(p []byte) (int, error) {
	if c.o.first == 0 && bytes.IndexByte(p, '\n') >= 0 {
		c.o.first = time.Since(c.o.start)
	}
	q := p
	if c.o.corrupt && len(p) > 0 {
		q = append([]byte(nil), p...)
		q[0] ^= 0x20
		c.o.corrupt = false
	}
	if !c.bad && (c.off+len(q) > len(c.ref) || !bytes.Equal(q, c.ref[c.off:c.off+len(q)])) {
		c.bad = true
	}
	c.off += len(q)
	return len(p), nil
}

func (c *checker) verdict() error {
	if c.bad || c.off != len(c.ref) {
		return fmt.Errorf("output differs from the reference run (%d of %d bytes seen)", c.off, len(c.ref))
	}
	return nil
}

// bench is a workload after set-up: its op and its teardown.
type bench struct {
	rowsPerOp int
	op        func(o *opRun) error
	close     func()
	// after, when set, runs once an op's timing has stopped.
	after func(o *opRun)

	// fabric is set on fabric-warm, for its hedge and retry counters.
	fabric *fabric.Fabric
	// processes is set on process-cold, for the direct Draw timing.
	processes []grid.ProcessDTO
}

// env is what set-up needs: the workload's grid, the reference output,
// where stores live, and the tracer of a traced run (nil otherwise).
type env struct {
	spec    grid.Spec
	ref     []byte
	workDir string
	tr      *tracer

	// detachStore runs store-rerun's warm half without the store, so
	// the recompute check must trip (tests).
	detachStore bool
}

func purgeCaches() {
	core.ResetScenarioCache()
	memsim.ResetPrecopyMemo()
}

// reference is a plain in-process run of spec from cold caches: the bytes
// every op must reproduce.
func reference(spec grid.Spec) ([]byte, error) {
	purgeCaches()
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: defaultServers})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err = grid.NewRunner(core.New(defaultServers)).RunStream(context.Background(), plan, grid.RunOptions{},
		func(row grid.RowResult) error {
			if row.Err != nil {
				return row.Err
			}
			return enc.Encode(grid.NewRowDTO(plan.Op, row))
		})
	return buf.Bytes(), err
}

// compile is grid.Compile inside a grid.compile span.
func (e *env) compile(o *opRun) (*grid.Plan, error) {
	sp := o.tr.begin(spanCompile, o.span)
	plan, err := grid.Compile(e.spec, grid.CompileOptions{DefaultServers: defaultServers})
	o.tr.finish(sp)
	return plan, err
}

// runLocal is Runner.RunStream with NDJSON encoding into the checker,
// inside a grid.run span with one grid.emit span per row.
func (e *env) runLocal(o *opRun, runner *grid.Runner, plan *grid.Plan) error {
	c := &checker{o: o, ref: e.ref}
	enc := json.NewEncoder(c)
	run := o.tr.begin(spanRun, o.span)
	if o.tr != nil {
		o.tr.curRun.Store(run.id)
	}
	err := runner.RunStream(context.Background(), plan, grid.RunOptions{}, func(row grid.RowResult) error {
		sp := o.tr.begin(spanEmit, run.id)
		if row.Err != nil {
			return row.Err
		}
		err := enc.Encode(grid.NewRowDTO(plan.Op, row))
		o.tr.finish(sp)
		return err
	})
	o.tr.finish(run)
	if err != nil {
		return err
	}
	return c.verdict()
}

// newLocal sets up sweep-cold and process-cold: a runner over a fresh
// framework. Each op purges the scenario cache and the precopy memo
// first, then compiles and runs the grid.
func newLocal(e *env) *bench {
	runner := grid.NewRunner(core.New(defaultServers))
	return &bench{
		rowsPerOp: len(bytes.Split(e.ref, []byte{'\n'})) - 1,
		op: func(o *opRun) error {
			plan, err := e.compile(o)
			if err != nil {
				return err
			}
			return e.runLocal(o, runner, plan)
		},
		close:     func() {},
		processes: e.spec.OutageProcesses,
	}
}

// newStoreRerun sets up store-rerun. Each op opens a store in a fresh
// directory, attaches it, runs the grid cold (compute, put, seal),
// purges the memory caches, reruns it warm from disk, and closes the
// store. Both halves are one op, so a change that speeds reads by
// slowing writes still shows in the op time.
func newStoreRerun(e *env) *bench {
	runner := grid.NewRunner(core.New(defaultServers))
	rows := len(bytes.Split(e.ref, []byte{'\n'})) - 1
	return &bench{
		rowsPerOp: 2 * rows,
		op: func(o *opRun) error {
			sp := o.tr.begin(spanStoreOpen, o.span)
			disk, err := resultstore.Open(storeDir(e, o))
			o.tr.finish(sp)
			if err != nil {
				return err
			}
			var store resultstore.Store = disk
			if e.tr != nil {
				store = tracedStore{Store: disk, t: e.tr}
			}
			attach := func(s resultstore.Store) {
				core.SetResultStore(s)
				grid.SetRowStore(s)
			}
			attach(store)
			defer func() {
				attach(nil)
				disk.Close()
			}()
			plan, err := e.compile(o)
			if err != nil {
				return err
			}
			if err := e.runLocal(o, runner, plan); err != nil {
				return fmt.Errorf("cold half: %w", err)
			}
			purgeCaches()
			if e.detachStore {
				attach(nil)
			}
			before := disk.Stats()
			if err := e.runLocal(o, runner, plan); err != nil {
				return fmt.Errorf("warm half: %w", err)
			}
			after := disk.Stats()
			o.warmRecomputes = after.Recomputes - before.Recomputes
			if o.warmRecomputes != 0 || after.HitsRows-before.HitsRows != uint64(rows) {
				return fmt.Errorf("warm half: %d recomputes and %d row hits, want 0 and %d",
					o.warmRecomputes, after.HitsRows-before.HitsRows, rows)
			}
			return nil
		},
		close: func() {},
		after: func(o *opRun) { os.RemoveAll(storeDir(e, o)) },
	}
}

// storeDir is the fresh store directory of one store-rerun op.
func storeDir(e *env, o *opRun) string {
	return filepath.Join(e.workDir, fmt.Sprintf("store-%d", o.id))
}

// newFabricWarm sets up fabric-warm: two backupd workers built with
// httpapi.New the way fabric.Loopback builds them, a fabric.Handler
// coordinator over them, all on loopback sockets, and one client
// connection. Options are the shipped defaults (sweepfront -serve).
func newFabricWarm(e *env) (*bench, error) {
	var servers []*http.Server
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	stop := func() {
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
		client.CloseIdleConnections()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		servers = append(servers, srv)
		go srv.Serve(ln)
		return "http://" + ln.Addr().String(), nil
	}
	var urls []string
	for i := 0; i < 2; i++ {
		api, err := httpapi.New(httpapi.Config{
			Framework: core.New(defaultServers),
			WorkerID:  fmt.Sprintf("perfbench-%d", i),
		})
		if err != nil {
			stop()
			return nil, err
		}
		h := api.Handler()
		if e.tr != nil {
			h = e.tr.workerMiddleware(i, h)
		}
		u, err := serve(h)
		if err != nil {
			stop()
			return nil, err
		}
		urls = append(urls, u)
	}
	opt := fabric.Options{Workers: urls}
	if e.tr != nil {
		opt.Client = &http.Client{Transport: shardTransport{base: http.DefaultTransport, t: e.tr}}
	}
	f, err := fabric.New(opt)
	if err != nil {
		stop()
		return nil, err
	}
	h := f.Handler()
	if e.tr != nil {
		h = e.tr.coordMiddleware(h)
	}
	coord, err := serve(h)
	if err != nil {
		stop()
		return nil, err
	}
	body, err := json.Marshal(map[string]any{"spec": e.spec})
	if err != nil {
		stop()
		return nil, err
	}
	return &bench{
		rowsPerOp: len(bytes.Split(e.ref, []byte{'\n'})) - 1,
		op: func(o *opRun) error {
			resp, err := client.Post(coord+"/v1/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST /v1/sweep: %s", resp.Status)
			}
			c := &checker{o: o, ref: e.ref}
			if _, err := io.Copy(c, resp.Body); err != nil {
				return err
			}
			return c.verdict()
		},
		close:  stop,
		fabric: f,
	}, nil
}

// setup builds a workload from scratch and runs its warm-up op.
func setup(name string, e *env) (*bench, error) {
	purgeCaches()
	var b *bench
	switch name {
	case "sweep-cold", "process-cold":
		b = newLocal(e)
	case "store-rerun":
		b = newStoreRerun(e)
	case "fabric-warm":
		var err error
		if b, err = newFabricWarm(e); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	o := &opRun{id: -1, start: time.Now()}
	err := b.op(o)
	if b.after != nil {
		b.after(o)
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

// coldBeforeOp reports whether the workload purges the memory caches
// before each op (every workload but fabric-warm, whose set-up op warms
// them for the rest of the run).
func coldBeforeOp(name string) bool { return name != "fabric-warm" }
