package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"backuppower/internal/resultstore"
)

// spanKind names a layer boundary the benchmark wraps from outside.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanCompile
	spanRun
	spanEmit
	spanStoreOpen
	spanStoreGet
	spanStorePut
	spanStoreSeal
	spanCoord
	spanShard
	spanHandler
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "grid.compile", "grid.run", "grid.emit",
	"store.open", "store.get", "store.put", "store.seal",
	"fabric.coord", "fabric.shard", "httpapi.handler",
}

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch; bytes and aux carry the layer's count (payload or body bytes,
// time to first byte).
type span struct {
	start, end int64
	bytes, aux int64
	id, parent int32
	op         int32
	kind       spanKind
	worker     int8
	ok         bool
}

// spanHeader carries the fabric.shard span id to the worker so its
// handler span links to the shard that caused it.
const spanHeader = "X-Perfbench-Span"

// tracer keeps every span in memory until the run ends. Only one op is
// in flight at a time (a single closed-loop client), so the current op
// and its open grid.run / fabric.coord spans are plain atomics that the
// wrappers read to find their parent.
//
// The spans live in anonymous memory mappings outside the Go heap (a span
// holds no pointers), so however many pile up they do not raise the
// garbage collector's heap goal, and the runtime.* metrics of a traced
// run measure the program rather than the span store.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int32

	curOp    atomic.Int32 // op number of the traced op in flight
	curSpan  atomic.Int32 // its op span id
	curRun   atomic.Int32 // its open grid.run span id
	curCoord atomic.Int32 // its open fabric.coord span id

	mu     sync.Mutex
	chunks [][]span // full chunks, then the one being filled
	n      int      // spans kept
	err    error    // the first failure to map span memory; spans after it are dropped
}

// spanChunk is the size of one mapping of spans.
const spanChunk = 4 << 20

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// keep appends s to the off-heap chunks, mapping a new one when the last
// is full.
func (t *tracer) keep(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if k := len(t.chunks); k == 0 || len(t.chunks[k-1]) == cap(t.chunks[k-1]) {
		mem, err := syscall.Mmap(-1, 0, spanChunk, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.err = fmt.Errorf("mapping span memory: %w", err)
			return
		}
		c := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), spanChunk/unsafe.Sizeof(span{}))
		t.chunks = append(t.chunks, c[:0])
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
	t.n++
}

// each calls f on every span kept, in the order they finished.
func (t *tracer) each(f func(s span)) {
	for _, c := range t.chunks {
		for _, s := range c {
			f(s)
		}
	}
}

// release unmaps the span memory; the tracer keeps no spans after it.
func (t *tracer) release() {
	for _, c := range t.chunks {
		mem := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c))), spanChunk)
		syscall.Munmap(mem) // fails only for a range that was never mapped
	}
	t.chunks, t.n = nil, 0
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; a nil tracer (an untraced op) yields a no-op span.
func (t *tracer) begin(kind spanKind, parent int32) span {
	if t == nil {
		return span{}
	}
	return span{id: t.ids.Add(1), parent: parent, kind: kind, op: t.curOp.Load(), start: t.now()}
}

// finish closes and keeps a span.
func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.end = t.now()
	t.keep(s)
}

// dump writes the spans as gzipped tab-separated lines, one per span.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	w := bufio.NewWriter(z)
	fmt.Fprintln(w, "op\tid\tparent\tname\tstart_ns\tend_ns\tworker\tbytes\taux_ns\tok")
	t.each(func(s span) {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%t\n",
			s.op, s.id, s.parent, spanNames[s.kind], s.start, s.end, s.worker, s.bytes, s.aux, s.ok)
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := z.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore is a resultstore.Store decorator recording store.get,
// store.put and store.seal spans under the op's open grid.run span.
type tracedStore struct {
	resultstore.Store
	t *tracer
}

func (s tracedStore) Get(k resultstore.Key) ([]byte, bool) {
	if !s.t.on.Load() {
		return s.Store.Get(k)
	}
	sp := s.t.begin(spanStoreGet, s.t.curRun.Load())
	p, ok := s.Store.Get(k)
	sp.bytes, sp.ok = int64(len(p)), ok
	s.t.finish(sp)
	return p, ok
}

func (s tracedStore) Put(k resultstore.Key, payload []byte) {
	if !s.t.on.Load() {
		s.Store.Put(k, payload)
		return
	}
	sp := s.t.begin(spanStorePut, s.t.curRun.Load())
	s.Store.Put(k, payload)
	sp.bytes = int64(len(payload))
	s.t.finish(sp)
}

func (s tracedStore) Seal() error {
	if !s.t.on.Load() {
		return s.Store.Seal()
	}
	sp := s.t.begin(spanStoreSeal, s.t.curRun.Load())
	err := s.Store.Seal()
	s.t.finish(sp)
	return err
}

// coordMiddleware records a fabric.coord span around the coordinator's
// handler for each traced request.
func (t *tracer) coordMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin(spanCoord, t.curSpan.Load())
		t.curCoord.Store(sp.id)
		h.ServeHTTP(w, r)
		t.finish(sp)
	})
}

// workerMiddleware records an httpapi.handler span per worker request,
// with the body bytes written and the time to the first of them.
func (t *tracer) workerMiddleware(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		sp := t.begin(spanHandler, int32(parent))
		sp.worker = int8(worker)
		cw := &countingWriter{ResponseWriter: w, t: t}
		h.ServeHTTP(cw, r)
		sp.bytes = cw.n
		if cw.first > 0 {
			sp.aux = cw.first - sp.start
		}
		t.finish(sp)
	})
}

// countingWriter counts response body bytes and stamps the first write.
// It forwards Flush so streaming handlers still flush per shard.
type countingWriter struct {
	http.ResponseWriter
	t     *tracer
	n     int64
	first int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.first == 0 && len(p) > 0 {
		c.first = c.t.now()
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// shardTransport is the coordinator's http.RoundTripper: one
// fabric.shard span per shard request, from dispatch until its body is
// drained or closed.
type shardTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (s shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !s.t.on.Load() {
		return s.base.RoundTrip(req)
	}
	sp := s.t.begin(spanShard, s.t.curCoord.Load())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(int(sp.id)))
	resp, err := s.base.RoundTrip(req)
	if err != nil {
		s.t.finish(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: s.t, sp: sp}
	return resp, nil
}

// spanBody finishes its shard span at EOF or Close, whichever is first.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	n    atomic.Int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	if err != nil {
		b.done()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.done()
	return b.ReadCloser.Close()
}

func (b *spanBody) done() {
	b.once.Do(func() {
		b.sp.bytes = b.n.Load()
		b.t.finish(b.sp)
	})
}

// layerTimes is what the spans say about each traced op.
type layerTimes struct {
	selfMS   [numSpanKinds]float64   // summed self time per kind, ms
	totalMS  [numSpanKinds]float64   // summed duration per kind, ms
	count    [numSpanKinds]int       // spans per kind
	durs     [numSpanKinds][]float64 // span durations per kind, ms
	bytes    [numSpanKinds]int64     // summed bytes per kind
	hits     int                     // store.get spans that hit
	ttfbMS   []float64               // handler time to first byte, ms
	busyMS   map[[2]int32]float64    // (op, worker) -> union of handler intervals, ms
	shardCov map[int32]float64       // op -> union of shard intervals, ms
	opMS     map[int32]float64       // op -> op span duration, ms
	workers  map[int8]bool           // workers that served a traced request
}

// analyze folds the spans into per-kind totals and self times. A span's
// self time is its duration minus the union of its children's
// intervals, clipped to its own.
func (t *tracer) analyze() *layerTimes {
	lt := &layerTimes{
		busyMS:   map[[2]int32]float64{},
		shardCov: map[int32]float64{},
		opMS:     map[int32]float64{},
		workers:  map[int8]bool{},
	}
	children := map[int32][][2]int64{}
	shardIv := map[int32][][2]int64{}
	busyIv := map[[2]int32][][2]int64{}
	t.each(func(s span) {
		d := ms(s.end - s.start)
		lt.totalMS[s.kind] += d
		lt.count[s.kind]++
		lt.durs[s.kind] = append(lt.durs[s.kind], d)
		lt.bytes[s.kind] += s.bytes
		switch s.kind {
		case spanOp:
			lt.opMS[s.op] = d
		case spanStoreGet:
			if s.ok {
				lt.hits++
			}
		case spanShard:
			shardIv[s.op] = append(shardIv[s.op], [2]int64{s.start, s.end})
		case spanHandler:
			lt.workers[s.worker] = true
			if s.aux > 0 {
				lt.ttfbMS = append(lt.ttfbMS, ms(s.aux))
			}
			k := [2]int32{s.op, int32(s.worker)}
			busyIv[k] = append(busyIv[k], [2]int64{s.start, s.end})
		}
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	})
	t.each(func(s span) {
		covered := unionLen(children[s.id], s.start, s.end)
		lt.selfMS[s.kind] += ms(s.end-s.start) - ms(covered)
	})
	for op, iv := range shardIv {
		lt.shardCov[op] = ms(unionLen(iv, -1<<62, 1<<62))
	}
	for k, iv := range busyIv {
		lt.busyMS[k] = ms(unionLen(iv, -1<<62, 1<<62))
	}
	return lt
}

// unionLen is the length of the union of intervals, clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	started := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if !started || s > curE {
			if started {
				total += curE - curS
			}
			curS, curE, started = s, e, true
		} else if e > curE {
			curE = e
		}
	}
	if started {
		total += curE - curS
	}
	return total
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
