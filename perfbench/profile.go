package main

// Per-package attribution of the benchmark process's own CPU and
// allocation profiles. The CPU profile is runtime/pprof's gzipped
// protobuf, decoded here with a minimal wire-format reader so the
// benchmark needs nothing beyond the standard library; the allocation
// profile comes straight from runtime.MemProfile.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// modulePrefix is the import path every package of the simulator
// starts with.
const modulePrefix = "github.com/hipe-sim/hipe"

// Buckets that are not module packages.
const (
	bucketBench    = "bench"      // the benchmark's own frames
	bucketGC       = "runtime.gc" // background garbage collection
	bucketOther    = "other"      // scheduler, idle and other runtime-only stacks
	bucketProfiler = "profiler"   // the profiler itself, left out of shares
)

// modulePackage returns the short package name ("cpu", "serve", or
// "hipe" for the root package) of a fully qualified function name, and
// whether the function belongs to the simulator module at all.
func modulePackage(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations list type arguments in brackets
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	rest := fn[len(modulePrefix):]
	switch {
	case strings.HasPrefix(rest, "."):
		return "hipe", true
	case strings.HasPrefix(rest, "/"):
		rest = rest[1:]
	default:
		return "", false // another module sharing the prefix
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// attribute charges one sampled stack, leaf first, to a bucket: the
// innermost frame in a module package, so runtime work (allocation,
// memclr, map access, GC assist) lands on the module code that caused
// it. Stacks with no module frame go to the benchmark when it is on the
// stack, to background GC when a mark worker is, and to "other" else.
// The profiler's own work is set apart first.
func attribute(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime/pprof.") {
			return bucketProfiler
		}
	}
	bench, gc := false, false
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, modulePrefix+"/perfbench.") {
			bench = true
			continue
		}
		if pkg, ok := modulePackage(f); ok {
			return pkg
		}
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			gc = true
		}
	}
	switch {
	case bench:
		return bucketBench
	case gc:
		return bucketGC
	default:
		return bucketOther
	}
}

// shares normalises per-bucket weights to fractions of their total,
// leaving out the profiler's own work. The HIVE engine is an instance of
// the core engine, so its weight counts as core.
func shares(w map[string]int64) map[string]float64 {
	w["core"] += w["hive"]
	delete(w, "hive")
	delete(w, bucketProfiler)
	var total int64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(w))
	if total == 0 {
		return out
	}
	for k, v := range w {
		out[k] = float64(v) / float64(total)
	}
	return out
}

// cpuProfile profiles fn's execution and returns CPU time per bucket.
func cpuProfile(fn func() error) (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	return attributeCPUProfile(buf.Bytes())
}

// attributeCPUProfile decodes a gzipped pprof CPU profile and sums each
// sample's last value (CPU nanoseconds) per bucket.
func attributeCPUProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	var frames []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				frames = append(frames, p.functions[fid])
			}
		}
		out[attribute(frames)] += s.values[len(s.values)-1]
	}
	return out, nil
}

// profile is the subset of a pprof Profile message attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]string   // function id → name
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile parses an uncompressed pprof Profile message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcNames := map[uint64]int64{} // function id → string table index
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNames {
		if idx < 0 || idx >= int64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited payload.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as
// one unpacked value (data nil) or as a packed run.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// memProfileRate samples one allocation per this many bytes in the
// traced run, fine enough for per-package shares of a few seconds'
// allocation.
const memProfileRate = 16 << 10

// allocSnapshot is the cumulative allocated bytes per sampled stack.
type allocSnapshot map[[32]uintptr]int64

// takeAllocSnapshot reads the runtime's allocation profile after two
// collections, so every allocation made so far is published in it.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] += r.AllocBytes
	}
	return snap
}

// attributeAllocs charges the bytes allocated between two snapshots to
// buckets by the same rule as CPU samples.
func attributeAllocs(before, after allocSnapshot) map[string]int64 {
	out := map[string]int64{}
	var frames []string
	for stk, bytes := range after {
		d := bytes - before[stk]
		if d <= 0 {
			continue
		}
		frames = frames[:0]
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		it := runtime.CallersFrames(pcs)
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		out[attribute(frames)] += d
	}
	return out
}
