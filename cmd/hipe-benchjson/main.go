// Command hipe-benchjson runs the repository's benchmark suite — the
// Figure 3, Q01, routing, fleet-serving and counter-overhead benches at
// the module root and the scheduler microbenches in internal/sim — and
// emits one machine-readable JSON document per invocation: ns/op, B/op,
// allocs/op and every custom metric
// (simulated cycles per plan, DRAM pJ) for each benchmark. The
// committed BENCH_<n>.json files form the repo's performance
// trajectory: each perf PR appends one, measured on the PR's HEAD,
// optionally against a captured baseline of the previous HEAD.
//
// Usage:
//
//	hipe-benchjson -out BENCH_3.json \
//	    [-figure-benchtime 2s] [-micro-benchtime 10000x] \
//	    [-baseline old-bench.txt] [-check-allocs] [-skip-figures] \
//	    [-prev BENCH_7.json] [-max-regress-pct 10] [-min-sweep-speedup 5]
//
// -baseline takes a raw `go test -bench` output file (captured before a
// change) and records each baseline benchmark alongside, with a
// wall-clock speedup ratio for benchmarks present in both runs.
//
// -check-allocs exits non-zero if any scheduler microbench reports a
// nonzero allocs/op — the CI bench-smoke job's allocation-regression
// tripwire (beside the testing.AllocsPerRun unit tests). With -prev it
// also fails if a Figure 3 or Q01 best-case bench (BenchmarkFig3*,
// BenchmarkQ1BestCases) allocates more than 1% above its allocs/op in
// the previous document. Allocations are deterministic but scale with
// the sweep worker count, so both documents must be measured at the
// same GOMAXPROCS and, for the document to record the same warm-up
// share, at the same -figure-benchtime; a -prev that differs in either
// is refused before any bench runs.
//
// -prev takes a previously committed BENCH_<n>.json document and, with
// -max-regress-pct P, exits non-zero if any figure bench present in
// both documents got more than P% slower — the CI wall-clock regression
// tripwire across the committed performance trajectory.
//
// -min-sweep-speedup S gates the BenchmarkSweepGrid lanes: the emitted
// sweep_grid section records the exact, sharded and estimate lanes'
// ns/op plus the estimate fast path's aggregate speedup over exact, and
// the run exits non-zero if that speedup falls below S.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Comparison pairs a benchmark with its baseline.
type Comparison struct {
	Name            string  `json:"name"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	NsPerOp         float64 `json:"ns_per_op"`
	Speedup         float64 `json:"speedup"`
	BaselineAllocs  float64 `json:"baseline_allocs_per_op"`
	Allocs          float64 `json:"allocs_per_op"`
}

// Overhead pairs a counters-on benchmark lane with its counters-off
// twin: the measured cost of enabling machine-counter capture on the
// same workload. The repo-wide budget is overhead_pct < 5.
type Overhead struct {
	Name        string  `json:"name"`
	OffNsPerOp  float64 `json:"off_ns_per_op"`
	OnNsPerOp   float64 `json:"on_ns_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
}

// SweepGrid summarises the BenchmarkSweepGrid execution-mode lanes:
// the same sweep grid run exact, exact with 4-way cell sharding, and
// through the cost-model estimate fast path. FastPathSpeedup is the
// PR 9 figure-of-merit (estimate lane throughput over exact).
type SweepGrid struct {
	ExactNsPerOp    float64 `json:"exact_ns_per_op"`
	ShardedNsPerOp  float64 `json:"sharded_ns_per_op"`
	EstimateNsPerOp float64 `json:"estimate_ns_per_op"`
	ShardSpeedup    float64 `json:"shard_speedup"`
	FastPathSpeedup float64 `json:"fast_path_speedup"`
}

// AdaptiveRouting summarises the BenchmarkAdaptiveRouting lanes: the
// identical drifted-prior load test routed statically and with the
// feedback loop closed. CycleReductionPct is the PR 10 figure-of-merit
// (simulated service cycles the adaptive planner recovers from the
// mis-calibration); OverheadPct is the feedback loop's wall-clock cost
// over the static lane.
type AdaptiveRouting struct {
	StaticNsPerOp     float64 `json:"static_ns_per_op"`
	AdaptiveNsPerOp   float64 `json:"adaptive_ns_per_op"`
	OverheadPct       float64 `json:"overhead_pct"`
	StaticServiceCyc  float64 `json:"static_service_cycles"`
	AdaptServiceCyc   float64 `json:"adaptive_service_cycles"`
	CycleReductionPct float64 `json:"cycle_reduction_pct"`
	StaticP50         float64 `json:"static_p50_cycles"`
	AdaptP50          float64 `json:"adaptive_p50_cycles"`
	Explored          float64 `json:"explored_requests"`
}

// Doc is the emitted document.
type Doc struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// FigureBenchtime is the -figure-benchtime the figure benches ran
	// at. Documents written before it was recorded carry none.
	FigureBenchtime string           `json:"figure_benchtime,omitempty"`
	Figures         []BenchResult    `json:"figure_benches,omitempty"`
	Scheduler       []BenchResult    `json:"scheduler_benches"`
	CounterOverhead []Overhead       `json:"counter_overhead,omitempty"`
	SweepGrid       *SweepGrid       `json:"sweep_grid,omitempty"`
	AdaptiveRouting *AdaptiveRouting `json:"adaptive_routing,omitempty"`
	Baseline        []BenchResult    `json:"baseline,omitempty"`
	Comparisons     []Comparison     `json:"comparisons,omitempty"`
}

// sweepGrid pairs the BenchmarkSweepGrid lanes into one summary row;
// nil when the lanes are absent (e.g. -skip-figures).
func sweepGrid(rs []BenchResult) *SweepGrid {
	byName := map[string]BenchResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	exact, ok := byName["BenchmarkSweepGrid/exact"]
	if !ok || exact.NsPerOp == 0 {
		return nil
	}
	g := &SweepGrid{ExactNsPerOp: exact.NsPerOp}
	if sharded, ok := byName["BenchmarkSweepGrid/exact-sharded"]; ok && sharded.NsPerOp > 0 {
		g.ShardedNsPerOp = sharded.NsPerOp
		g.ShardSpeedup = exact.NsPerOp / sharded.NsPerOp
	}
	if est, ok := byName["BenchmarkSweepGrid/estimate"]; ok && est.NsPerOp > 0 {
		g.EstimateNsPerOp = est.NsPerOp
		g.FastPathSpeedup = exact.NsPerOp / est.NsPerOp
	}
	return g
}

// adaptiveRouting pairs the BenchmarkAdaptiveRouting lanes into one
// summary row; nil when the lanes are absent (e.g. -skip-figures).
func adaptiveRouting(rs []BenchResult) *AdaptiveRouting {
	byName := map[string]BenchResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	static, ok := byName["BenchmarkAdaptiveRouting/static"]
	adapt, ok2 := byName["BenchmarkAdaptiveRouting/adaptive"]
	if !ok || !ok2 || static.NsPerOp == 0 {
		return nil
	}
	a := &AdaptiveRouting{
		StaticNsPerOp:    static.NsPerOp,
		AdaptiveNsPerOp:  adapt.NsPerOp,
		OverheadPct:      100 * (adapt.NsPerOp - static.NsPerOp) / static.NsPerOp,
		StaticServiceCyc: static.Metrics["simcyc:service"],
		AdaptServiceCyc:  adapt.Metrics["simcyc:service"],
		StaticP50:        static.Metrics["simcyc:p50"],
		AdaptP50:         adapt.Metrics["simcyc:p50"],
		Explored:         adapt.Metrics["explored"],
	}
	if a.StaticServiceCyc > 0 {
		a.CycleReductionPct = 100 * (a.StaticServiceCyc - a.AdaptServiceCyc) / a.StaticServiceCyc
	}
	return a
}

// counterOverhead pairs every ".../counters-off" lane with its
// ".../counters-on" sibling (the BenchmarkFigCounters sub-benchmarks).
func counterOverhead(rs []BenchResult) []Overhead {
	byName := map[string]BenchResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	var out []Overhead
	for _, r := range rs {
		if !strings.HasSuffix(r.Name, "/counters-off") || r.NsPerOp == 0 {
			continue
		}
		base := strings.TrimSuffix(r.Name, "/counters-off")
		on, ok := byName[base+"/counters-on"]
		if !ok {
			continue
		}
		out = append(out, Overhead{
			Name:        base,
			OffNsPerOp:  r.NsPerOp,
			OnNsPerOp:   on.NsPerOp,
			OverheadPct: 100 * (on.NsPerOp - r.NsPerOp) / r.NsPerOp,
		})
	}
	return out
}

// allocSlackPct is how far above its previous allocs/op a gated figure
// bench may go before -check-allocs fails it.
const allocSlackPct = 1

// allocGated reports whether -check-allocs gates a figure bench's
// allocs/op against the previous document: the Figure 3 panels and the
// Q01 best cases, whose allocations µop emission once dominated.
func allocGated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkFig3") || name == "BenchmarkQ1BestCases"
}

// allocComparable reports why cur's allocs/op cannot be gated against
// prev's. Figure benches keep one machine and one set of pooled
// buffers per sweep worker, so documents measured at different
// GOMAXPROCS cannot be compared. A document recorded at another
// -figure-benchtime is refused too: a short run leaves a different
// share of warm-up in allocs/op. A prev that records no benchtime
// predates the field and is not checked for it.
func allocComparable(cur, prev Doc) error {
	if cur.GOMAXPROCS != prev.GOMAXPROCS {
		return fmt.Errorf("measured at GOMAXPROCS=%d, previous document at %d; allocs/op scale with the sweep worker count, so run with GOMAXPROCS=%d",
			cur.GOMAXPROCS, prev.GOMAXPROCS, prev.GOMAXPROCS)
	}
	if prev.FigureBenchtime != "" && cur.FigureBenchtime != prev.FigureBenchtime {
		return fmt.Errorf("figure benches at -figure-benchtime %s, previous document at %s; run with -figure-benchtime %s",
			cur.FigureBenchtime, prev.FigureBenchtime, prev.FigureBenchtime)
	}
	return nil
}

// allocRegressions lists every gated figure bench of cur that allocates
// more than allocSlackPct above its allocs/op in prev; documents that
// allocComparable refuses are an error.
func allocRegressions(cur, prev Doc) ([]string, error) {
	if err := allocComparable(cur, prev); err != nil {
		return nil, err
	}
	prevByName := map[string]BenchResult{}
	for _, b := range prev.Figures {
		prevByName[b.Name] = b
	}
	var out []string
	for _, r := range cur.Figures {
		b, ok := prevByName[r.Name]
		if !ok || !allocGated(r.Name) {
			continue
		}
		if r.AllocsPerOp > b.AllocsPerOp*(1+allocSlackPct/100.0) {
			out = append(out, fmt.Sprintf("%s %.0f -> %.0f allocs/op (budget +%d%%)",
				r.Name, b.AllocsPerOp, r.AllocsPerOp, allocSlackPct))
		}
	}
	return out, nil
}

// benchLine matches one `go test -bench` result line: the name, the
// iteration count, then value/unit pairs. procSuffix strips the -P
// GOMAXPROCS suffix so names are stable across machines.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
	procSuffix = regexp.MustCompile(`-\d+$`)
)

// parseBench extracts benchmark results from raw `go test -bench` output.
func parseBench(out string) []BenchResult {
	var results []BenchResult
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := BenchResult{
			Name:       procSuffix.ReplaceAllString(m[1], ""),
			Iterations: iters,
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results
}

// runBench executes one `go test -bench` invocation and parses it.
func runBench(pkg, pattern, benchtime string) ([]BenchResult, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem", "-benchtime", benchtime, pkg}
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return parseBench(string(out)), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hipe-benchjson: ")
	out := flag.String("out", "BENCH.json", "output JSON path (- for stdout)")
	figureBenchtime := flag.String("figure-benchtime", "2s", "benchtime for the Figure 3 benches")
	microBenchtime := flag.String("micro-benchtime", "200ms", "benchtime for the scheduler microbenches")
	baselinePath := flag.String("baseline", "", "raw `go test -bench` output captured before the change; recorded with speedups")
	checkAllocs := flag.Bool("check-allocs", false, "exit 1 if a scheduler microbench reports allocs/op > 0, or (with -prev) a Figure 3/Q01 bench allocates more than 1% above it")
	skipFigures := flag.Bool("skip-figures", false, "skip the (slow) figure benches; scheduler microbenches only")
	prevPath := flag.String("prev", "", "previously committed BENCH_<n>.json; with -max-regress-pct, gates wall-clock regressions on matching figure benches")
	maxRegressPct := flag.Float64("max-regress-pct", 0, "exit 1 if a figure bench present in -prev got more than this many percent slower (0 disables)")
	minSweepSpeedup := flag.Float64("min-sweep-speedup", 0, "exit 1 if the sweep-grid estimate lane's speedup over exact falls below this factor (0 disables)")
	flag.Parse()

	// fail rejects a bad flag combination up front: message plus usage
	// on stderr, exit 2 — matching the other CLIs' usage-error convention.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hipe-benchjson: "+format+"\n\nusage of hipe-benchjson:\n", args...)
		flag.PrintDefaults()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected argument %q (all options are flags)", flag.Arg(0))
	}
	if *out == "" {
		fail("-out must name a path (- for stdout)")
	}
	if *figureBenchtime == "" || *microBenchtime == "" {
		fail("-figure-benchtime and -micro-benchtime must not be empty")
	}
	if *maxRegressPct < 0 {
		fail("-max-regress-pct %g must not be negative", *maxRegressPct)
	}
	if *maxRegressPct > 0 && *prevPath == "" {
		fail("-max-regress-pct needs a -prev document to compare against")
	}
	if *minSweepSpeedup < 0 {
		fail("-min-sweep-speedup %g must not be negative", *minSweepSpeedup)
	}
	if (*minSweepSpeedup > 0 || *maxRegressPct > 0 || *checkAllocs && *prevPath != "") && *skipFigures {
		fail("the -min-sweep-speedup, -max-regress-pct and -check-allocs -prev gates need the figure benches; drop -skip-figures")
	}

	doc := Doc{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if !*skipFigures {
		doc.FigureBenchtime = *figureBenchtime
	}
	var prev *Doc
	if *prevPath != "" {
		raw, err := os.ReadFile(*prevPath)
		if err != nil {
			log.Fatal(err)
		}
		prev = new(Doc)
		if err := json.Unmarshal(raw, prev); err != nil {
			log.Fatalf("parse %s: %v", *prevPath, err)
		}
		if *checkAllocs {
			if err := allocComparable(doc, *prev); err != nil {
				fail("-check-allocs -prev %s: %v", *prevPath, err)
			}
		}
	}

	var err error
	if !*skipFigures {
		log.Printf("running figure benches (-benchtime %s)...", *figureBenchtime)
		// The Q01 aggregation, routing and fleet-serving benches ride
		// with the figure panels: whole-workload simulations (and, for
		// routing, the planner's per-request overhead and plannerpct
		// share) on the paper's configurations. BenchmarkFigCounters'
		// counters-off/on lanes are paired into the counter_overhead
		// section and BenchmarkAdaptiveRouting's static/adaptive lanes
		// into the adaptive_routing section below.
		doc.Figures, err = runBench(".", "^(BenchmarkFig|BenchmarkQ1|BenchmarkAutoRouting|BenchmarkAdaptiveRouting|BenchmarkFleet|BenchmarkSweepGrid)", *figureBenchtime)
		if err != nil {
			log.Fatal(err)
		}
		doc.CounterOverhead = counterOverhead(doc.Figures)
		doc.SweepGrid = sweepGrid(doc.Figures)
		doc.AdaptiveRouting = adaptiveRouting(doc.Figures)
	}
	log.Printf("running scheduler microbenches (-benchtime %s)...", *microBenchtime)
	doc.Scheduler, err = runBench("./internal/sim/", "^(BenchmarkSchedule|BenchmarkEngine)", *microBenchtime)
	if err != nil {
		log.Fatal(err)
	}

	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		doc.Baseline = parseBench(string(raw))
		byName := map[string]BenchResult{}
		for _, b := range doc.Baseline {
			byName[b.Name] = b
		}
		for _, rs := range [][]BenchResult{doc.Figures, doc.Scheduler} {
			for _, r := range rs {
				b, ok := byName[r.Name]
				if !ok || r.NsPerOp == 0 {
					continue
				}
				doc.Comparisons = append(doc.Comparisons, Comparison{
					Name:            r.Name,
					BaselineNsPerOp: b.NsPerOp,
					NsPerOp:         r.NsPerOp,
					Speedup:         b.NsPerOp / r.NsPerOp,
					BaselineAllocs:  b.AllocsPerOp,
					Allocs:          r.AllocsPerOp,
				})
			}
		}
	}

	if *checkAllocs {
		failed := false
		for _, r := range doc.Scheduler {
			// The steady-state scheduler lanes must stay allocation-free;
			// EngineRandom/EngineScheduleRun build a fresh engine per
			// iteration and are exempt.
			if strings.HasPrefix(r.Name, "BenchmarkSchedule") && r.AllocsPerOp > 0 {
				log.Printf("ALLOC REGRESSION: %s reports %.1f allocs/op, want 0", r.Name, r.AllocsPerOp)
				failed = true
			}
		}
		if prev != nil {
			regressions, err := allocRegressions(doc, *prev)
			if err != nil {
				log.Fatalf("alloc check against %s: %v", *prevPath, err)
			}
			for _, msg := range regressions {
				log.Printf("ALLOC REGRESSION: %s", msg)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		log.Printf("alloc check passed: all scheduler lanes at 0 allocs/op")
		if prev != nil {
			log.Printf("alloc check passed: no Figure 3/Q01 bench above %s by more than %d%%", *prevPath, allocSlackPct)
		}
	}

	if prev != nil && *maxRegressPct > 0 {
		prevByName := map[string]BenchResult{}
		for _, b := range prev.Figures {
			prevByName[b.Name] = b
		}
		failed := false
		for _, r := range doc.Figures {
			b, ok := prevByName[r.Name]
			if !ok || b.NsPerOp == 0 || r.NsPerOp == 0 {
				continue
			}
			pct := 100 * (r.NsPerOp - b.NsPerOp) / b.NsPerOp
			if pct > *maxRegressPct {
				log.Printf("WALL-CLOCK REGRESSION: %s %.0f -> %.0f ns/op (%+.1f%%, budget %.1f%%)",
					r.Name, b.NsPerOp, r.NsPerOp, pct, *maxRegressPct)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		log.Printf("regression check passed: no figure bench slower than %s by more than %.1f%%", *prevPath, *maxRegressPct)
	}

	if *minSweepSpeedup > 0 {
		if doc.SweepGrid == nil {
			log.Fatal("sweep-speedup gate: BenchmarkSweepGrid lanes missing from the figure run")
		}
		if doc.SweepGrid.FastPathSpeedup < *minSweepSpeedup {
			log.Printf("SWEEP SPEEDUP BELOW GATE: estimate fast path %.1fx over exact, want >= %.1fx",
				doc.SweepGrid.FastPathSpeedup, *minSweepSpeedup)
			os.Exit(1)
		}
		log.Printf("sweep-speedup gate passed: estimate fast path %.1fx over exact (gate %.1fx)",
			doc.SweepGrid.FastPathSpeedup, *minSweepSpeedup)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}
