package main

import (
	"runtime"
	"testing"
)

func TestModulePackage(t *testing.T) {
	for _, c := range []struct {
		fn, pkg string
		ok      bool
	}{
		{"github.com/hipe-sim/hipe/internal/cpu.(*Core).Tick", "cpu", true},
		{"github.com/hipe-sim/hipe/internal/sweep.RunCells.func1", "sweep", true},
		{"github.com/hipe-sim/hipe/internal/sim.(*Queue[go.shape.struct { github.com/hipe-sim/hipe/internal/cpu.x int }]).Push", "sim", true},
		{"github.com/hipe-sim/hipe.Run", "hipe", true},
		{"github.com/hipe-sim/hipe-other/x.F", "", false},
		{"slices.SortFunc[go.shape.[]github.com/hipe-sim/hipe/internal/serve.T]", "", false},
		{"runtime.mallocgc", "", false},
	} {
		pkg, ok := modulePackage(c.fn)
		if pkg != c.pkg || ok != c.ok {
			t.Errorf("modulePackage(%q) = %q, %v; want %q, %v", c.fn, pkg, ok, c.pkg, c.ok)
		}
	}
}

// Samples are charged to their innermost module frame: runtime work goes
// to the module code that caused it, background GC and the profiler to
// their own buckets, and the benchmark's frames only when no module
// frame is below them.
func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"github.com/hipe-sim/hipe/internal/cache.(*Cache).Access", "github.com/hipe-sim/hipe/internal/cpu.(*Core).issue"}, "cache"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "github.com/hipe-sim/hipe/internal/machine.New", "main.replayOp"}, "machine"},
		{[]string{"runtime.mapaccess2", "github.com/hipe-sim/hipe/internal/cache.(*Cache).Access"}, "cache"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "github.com/hipe-sim/hipe/internal/query.(*emitter).emit"}, "query"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"time.Now", "main.(*timedStream).Next", "github.com/hipe-sim/hipe/internal/cpu.(*Core).fetch"}, "cpu"},
		{[]string{"runtime.mallocgc", "main.(*tracer).begin", "main.tracedRun"}, bucketBench},
		{[]string{"runtime.mallocgc", "github.com/hipe-sim/hipe/perfbench.sum"}, bucketBench},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, bucketProfiler},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketOther},
		{[]string{"github.com/hipe-sim/hipe/internal/hive.New", "main.x"}, "hive"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestSharesFoldHiveAndDropProfiler(t *testing.T) {
	s := shares(map[string]int64{"core": 2, "hive": 1, "cpu": 5, bucketProfiler: 10, bucketGC: 2})
	if s["core"] != 0.3 || s["cpu"] != 0.5 || s[bucketGC] != 0.2 {
		t.Fatalf("shares = %v", s)
	}
	if _, ok := s["hive"]; ok {
		t.Fatal("hive share not folded into core")
	}
	if _, ok := s[bucketProfiler]; ok {
		t.Fatal("profiler share reported")
	}
}

//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i * i % 7
	}
	return x
}

// A real CPU profile of this process decodes, and its samples land on
// the benchmark's own frames.
func TestCPUProfileDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a second")
	}
	var sink int
	w, err := cpuProfile(func() error {
		for i := 0; i < 400; i++ {
			sink += spin(1 << 20)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	var total int64
	for _, v := range w {
		total += v
	}
	if total == 0 {
		t.Skip("no CPU samples collected")
	}
	if w[bucketBench]*2 < total {
		t.Fatalf("benchmark frames got %d of %d ns: %v", w[bucketBench], total, w)
	}
}

var allocSink [][]byte

// Allocations between two snapshots are charged to the allocating frame.
func TestAllocAttribution(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := takeAllocSnapshot()
	for i := 0; i < 100; i++ {
		allocSink = append(allocSink, make([]byte, 4096))
	}
	w := attributeAllocs(before, takeAllocSnapshot())
	if w[bucketBench] < 100*4096 {
		t.Fatalf("benchmark allocations %d bytes, want at least %d: %v", w[bucketBench], 100*4096, w)
	}
}
