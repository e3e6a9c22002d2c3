package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"backuppower/internal/grid"
)

// compileFunc is the function whose CPU samples and allocations a traced
// run counts.
const compileFunc = "backuppower/internal/grid.Compile"

// cpuProfile records a runtime/pprof CPU profile of the whole process,
// workers and coordinator included, so work done inside a layer the
// benchmark cannot wrap still shows up.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the share of its CPU time spent with
// fn on the stack, inlined frames included.
func (p *cpuProfile) stop(fn string) (float64, error) {
	pprof.StopCPUProfile()
	z, err := gzip.NewReader(&p.buf)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(z)
	if err != nil {
		return 0, err
	}
	return stackShare(raw, fn)
}

// stackShare decodes a profile.proto message just far enough to sum the
// last sample value (CPU nanoseconds) of every sample, and of the samples
// with fn on the stack.
func stackShare(raw []byte, fn string) (float64, error) {
	type sample struct {
		locs []uint64
		v    int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids
	)
	err := fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals := appendPacked(nil, v, b)
					if len(vals) > 0 {
						s.v = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	under := map[uint64]bool{}
	for loc, fns := range locFuncs {
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) && strs[i] == fn {
				under[loc] = true
			}
		}
	}
	var total, hit int64
	for _, s := range samples {
		total += s.v
		for _, l := range s.locs {
			if under[l] {
				hit += s.v
				break
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(hit) / float64(total), nil
}

// countedOps is how many ops the counting phase of a traced run makes.
const countedOps = 2

// countCompiles is a traced run's counting phase: a few ops with every
// allocation recorded in the memory profile. grid.Compile makes the same
// allocations for the same spec wherever it runs, so the allocations made
// with it on the stack per op, over those of one direct compile, count
// the compiles an op makes, the fabric workers' included.
func countCompiles(cfg config, e *env, b *bench) window {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	opts := grid.CompileOptions{DefaultServers: defaultServers}
	const direct = 5
	a0 := compileAllocs()
	for i := 0; i < direct; i++ {
		grid.Compile(e.spec, opts)
	}
	a1 := compileAllocs()
	var w window
	for id := 0; id < countedOps; id++ {
		if coldBeforeOp(cfg.workload) {
			purgeCaches()
		}
		o := &opRun{id: id, start: time.Now()}
		err := b.op(o)
		w.samples = append(w.samples, sample{wall: time.Since(o.start), ok: err == nil})
		if b.after != nil {
			b.after(o)
		}
		w.recomputesWarm += o.warmRecomputes
		if err != nil && w.firstErr == nil {
			w.firstErr = fmt.Errorf("counted op %d: %w", id, err)
		}
	}
	a2 := compileAllocs()
	w.compilesPerOp = float64(a2-a1) / countedOps / (float64(a1-a0) / direct)
	return w
}

// compileAllocs is the number of allocations recorded so far in the
// memory profile with compileFunc on the stack. Two collections first
// publish every allocation made before the call.
func compileAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == compileFunc {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

var errProto = errors.New("malformed profile")

// fields walks the fields of one protobuf message. f gets the field
// number and either the varint value or the length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either as one value
// or packed into b.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a varint; n is 0 when b holds none.
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
