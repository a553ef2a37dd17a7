package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// runBinary executes this command via `go run` from the module root —
// the command resolves its bench packages (./internal/sim/) relative to
// the working directory, exactly as its documented invocations do.
func runBinary(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/hipe-benchjson"}, args...)...)
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestFlagValidation: malformed invocations die with a usage message
// and exit status 2, before any `go test -bench` child runs.
func TestFlagValidation(t *testing.T) {
	// prevAt writes a previous document measured at GOMAXPROCS procs
	// with figure benches at benchtime. The child inherits this
	// process's GOMAXPROCS.
	prevAt := func(procs int, benchtime string) string {
		path := filepath.Join(t.TempDir(), "prev.json")
		doc := fmt.Sprintf(`{"gomaxprocs": %d, "figure_benchtime": %q, "scheduler_benches": []}`, procs, benchtime)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"empty out", []string{"-out", ""}, "-out must name a path"},
		{"empty benchtime", []string{"-micro-benchtime", ""}, "must not be empty"},
		{"negative regress budget", []string{"-max-regress-pct", "-5"}, "must not be negative"},
		{"regress gate without prev", []string{"-max-regress-pct", "10"}, "needs a -prev document"},
		{"negative sweep gate", []string{"-min-sweep-speedup", "-1"}, "must not be negative"},
		{"sweep gate without figures", []string{"-min-sweep-speedup", "5", "-skip-figures"}, "drop -skip-figures"},
		{"alloc gate without figures", []string{"-check-allocs", "-prev", "BENCH_14.json", "-skip-figures"}, "drop -skip-figures"},
		{"alloc gate at another benchtime", []string{"-check-allocs", "-prev", prevAt(procs, "2s"), "-figure-benchtime", "3x"},
			"previous document at 2s"},
		{"alloc gate at another GOMAXPROCS", []string{"-check-allocs", "-prev", prevAt(procs+1, "2s")},
			fmt.Sprintf("previous document at %d", procs+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBinary(t, tc.args...)
			// `go run` reports the child's failure as its own exit 1 and
			// appends the child's "exit status 2" line.
			if code == 0 {
				t.Fatalf("usage error exited 0\n%s", out)
			}
			if !strings.Contains(out, "exit status 2") {
				t.Fatalf("child did not exit with usage status 2\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output %q does not contain %q", out, tc.want)
			}
		})
	}
}

// TestParseBench covers the benchmark-line parser without shelling out:
// names lose their GOMAXPROCS suffix, standard units land in their
// fields and custom metrics in the Metrics map.
func TestParseBench(t *testing.T) {
	out := `
goos: linux
BenchmarkScheduleRing-8   	12345678	        95.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig3a-8          	       3	 410000000 ns/op	 1234567 cycles/plan	     890 DRAM-pJ/plan	  200 B/op	       5 allocs/op
PASS
`
	rs := parseBench(out)
	if len(rs) != 2 {
		t.Fatalf("parsed %d results, want 2", len(rs))
	}
	fig, ring := rs[0], rs[1]
	if fig.Name != "BenchmarkFig3a" || ring.Name != "BenchmarkScheduleRing" {
		t.Fatalf("names not sorted/stripped: %q, %q", fig.Name, ring.Name)
	}
	if ring.NsPerOp != 95.1 || ring.AllocsPerOp != 0 {
		t.Fatalf("ring mis-parsed: %+v", ring)
	}
	if fig.Metrics["cycles/plan"] != 1234567 || fig.Metrics["DRAM-pJ/plan"] != 890 {
		t.Fatalf("custom metrics mis-parsed: %+v", fig.Metrics)
	}
}

// TestSweepGridPairing covers the sweep_grid lane pairing without
// shelling out: the three BenchmarkSweepGrid lanes collapse into one
// summary row with both speedup ratios.
func TestSweepGridPairing(t *testing.T) {
	g := sweepGrid([]BenchResult{
		{Name: "BenchmarkSweepGrid/exact", NsPerOp: 1000},
		{Name: "BenchmarkSweepGrid/exact-sharded", NsPerOp: 400},
		{Name: "BenchmarkSweepGrid/estimate", NsPerOp: 10},
		{Name: "BenchmarkFig3a", NsPerOp: 5},
	})
	if g == nil {
		t.Fatal("lanes present but no sweep_grid row")
	}
	if g.ShardSpeedup != 2.5 || g.FastPathSpeedup != 100 {
		t.Fatalf("speedups mis-paired: %+v", g)
	}
	if sweepGrid([]BenchResult{{Name: "BenchmarkFig3a", NsPerOp: 5}}) != nil {
		t.Fatal("sweep_grid row fabricated without lanes")
	}
}

// TestAllocRegressions covers the -check-allocs -prev figure gate
// without shelling out: only the Figure 3 and Q01 best-case benches are
// gated, each may exceed its previous allocs/op by at most 1%, and
// documents measured at different GOMAXPROCS or figure benchtimes are
// refused; a previous document that records no benchtime is not
// checked for it.
func TestAllocRegressions(t *testing.T) {
	prev := Doc{GOMAXPROCS: 1, Figures: []BenchResult{
		{Name: "BenchmarkFig3aTupleAtATime", AllocsPerOp: 1000},
		{Name: "BenchmarkFig3bColumnAtATime", AllocsPerOp: 1000},
		{Name: "BenchmarkQ1BestCases", AllocsPerOp: 1000},
		{Name: "BenchmarkFleet", AllocsPerOp: 1000},
	}}
	cur := Doc{GOMAXPROCS: 1, Figures: []BenchResult{
		{Name: "BenchmarkFig3aTupleAtATime", AllocsPerOp: 1010},  // at the budget
		{Name: "BenchmarkFig3bColumnAtATime", AllocsPerOp: 1011}, // over it
		{Name: "BenchmarkFig3dBestCases", AllocsPerOp: 9999},     // absent from prev
		{Name: "BenchmarkQ1BestCases", AllocsPerOp: 1500},        // over it
		{Name: "BenchmarkFleet", AllocsPerOp: 5000},              // not gated
	}}
	got, err := allocRegressions(cur, prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !strings.HasPrefix(got[0], "BenchmarkFig3bColumnAtATime ") ||
		!strings.HasPrefix(got[1], "BenchmarkQ1BestCases ") {
		t.Fatalf("regressions %q, want Fig3b and Q1BestCases", got)
	}
	cur.FigureBenchtime = "3x"
	if _, err := allocRegressions(cur, prev); err != nil {
		t.Fatalf("previous document without a benchtime refused: %v", err)
	}
	prev.FigureBenchtime = "2s"
	if _, err := allocRegressions(cur, prev); err == nil || !strings.Contains(err.Error(), "-figure-benchtime 2s") {
		t.Fatalf("benchtime mismatch not refused: %v", err)
	}
	cur.FigureBenchtime = "2s"
	cur.GOMAXPROCS = 4
	if _, err := allocRegressions(cur, prev); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=1") {
		t.Fatalf("GOMAXPROCS mismatch not refused: %v", err)
	}
}

// TestMicrobenchRun drives the scheduler microbenches once through the
// real `go test -bench` pipeline and checks the emitted document.
func TestMicrobenchRun(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go test -bench")
	}
	code, out := runBinary(t, "-skip-figures", "-micro-benchtime", "1x", "-out", "-")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	for _, want := range []string{`"go_version"`, `"scheduler_benches"`, "BenchmarkSchedule"} {
		if !strings.Contains(out, want) {
			t.Fatalf("document missing %q:\n%s", want, out)
		}
	}
}
