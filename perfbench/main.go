// Command perfbench is the repository's performance benchmark: it runs
// one workload of the HIPE simulator for a fixed host time, checks every
// op's answer, and prints its metrics as one JSON line. See README.md.
//
//	perfbench --workload figures --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
)

// Seeds. Tune against defaultSeed; a claimed gain must also hold on
// heldOutSeed, which is never used while a change is written.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

const (
	// setupReps is how many set-ups are timed together, before the
	// first op and then every setupEvery between passes.
	setupReps = 5
	// setupEvery spaces the further set-ups an end-to-end run times
	// between passes. Host speed drifts over seconds, so set-up samples
	// spread over the whole run give a steadier median than a burst of
	// them at the start.
	setupEvery = time.Second
	// tailPercentile is the reported tail (op_ms_p90); a run continues
	// until minSamples(tailPercentile) ops have been timed.
	tailPercentile = 90
	// maxMeasure caps a run's measuring time whatever the sample count,
	// so a pathologically slow build still exits in time.
	maxMeasure = 120 * time.Second
	// tracedMinOps is how many ops the traced run replays at least.
	tracedMinOps = 8
	// costReps repeats each cost-model call; the median is reported.
	costReps = 31
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figures, q01-oneshot, fleet-plain or fleet-faults")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out %d)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 20, "host seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(sortedKeys(workloads), ", "))
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(mk, *seed, *seconds, stderr)
	} else {
		runtime.MemProfileRate = memProfileRate
		spans := fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.csv", *name, *seed)
		res, err = tracedRun(mk(), *seed, *seconds, spans, stderr)
	}
	if err != nil {
		return err
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// timeSetups runs set-up reps times, each from scratch, and returns the
// durations in seconds. The inputs of the last repetition stay in w.
// Set-up does not force a collection first: between passes that would
// free the last machine image just before set-up allocates, and set-up
// data in the freed space makes the next image take fresh memory.
func timeSetups(w workload, seed uint64, tr *tracer, reps int) ([]float64, error) {
	var s []float64
	for i := 0; i < reps; i++ {
		t := hostNow()
		if err := w.setup(seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s = append(s, (hostNow() - t).Seconds())
	}
	return s, nil
}

// totals accumulates passes.
type totals struct {
	opMs              []float64
	attempted, failed int
	requests          int
	allocBytes        uint64
	mallocs           uint64
	passes            int
}

// add folds pass p in; a pass whose exact outputs differ from first's
// counts every one of its ops as failed.
func (t *totals) add(p passResult, first *passResult, stderr io.Writer) {
	if first != nil && !equalExact(first.exact, p.exact) {
		fmt.Fprintf(stderr, "pass %d: simulated outputs differ from the first pass\n", t.passes)
		p.failed = p.attempted
	}
	t.opMs = append(t.opMs, p.opMs...)
	t.attempted += p.attempted
	t.failed += p.failed
	t.requests += p.requests
	t.allocBytes += p.allocBytes
	t.mallocs += p.mallocs
	t.passes++
}

func equalExact(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// endToEnd is the untraced run: set-up, then whole passes until the
// measuring time and the tail-percentile sample count are both reached
// (and at least two passes ran, so the first pass is checked against a
// repeat of itself). Between passes it times further set-ups of
// throwaway instances.
func endToEnd(mk func() workload, seed uint64, seconds float64, stderr io.Writer) (*result, error) {
	w := mk()
	// The run's records are allocated up front, so that nothing it keeps
	// is allocated into the space a freed machine image leaves; the next
	// image would then need fresh memory and inflate peak RSS by chance.
	setups := make([]float64, 0, 1<<10)
	t := totals{opMs: make([]float64, 0, 1<<14)}
	s, err := timeSetups(w, seed, nil, setupReps)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s...)
	var first *passResult
	start := time.Now()
	lastSetup := start
	for {
		p, err := w.pass()
		if err != nil {
			return nil, err
		}
		t.add(p, first, stderr)
		if first == nil {
			first = &p
		}
		if time.Since(lastSetup) >= setupEvery {
			s, err := timeSetups(mk(), seed, nil, setupReps)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s...)
			lastSetup = time.Now()
		}
		el := time.Since(start)
		if el >= maxMeasure {
			fmt.Fprintf(stderr, "stopped at the %v cap with %d samples\n", maxMeasure, len(t.opMs))
			break
		}
		if t.passes >= 2 && el.Seconds() >= seconds && len(t.opMs) >= minSamples(tailPercentile) {
			break
		}
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	ops := float64(len(t.opMs))
	// Every pass runs the same ops; byOp[i] holds op i's times.
	perPass := len(first.opMs)
	byOp := make([][]float64, perPass)
	for i, ms := range t.opMs {
		byOp[i%perPass] = append(byOp[i%perPass], ms)
	}
	// The rates are those of a typical pass: each op at its median time.
	var passS float64
	for _, g := range byOp {
		passS += median(g) / 1e3
	}
	q1, q2, q3 := quartiles(t.opMs)
	fmt.Fprintf(stderr, "%d ops in %d passes; op ms quartiles %.3f %.3f %.3f; %d samples beyond p%d; %d set-ups\n",
		len(t.opMs), t.passes, q1, q2, q3, samplesBeyond(len(t.opMs), tailPercentile), tailPercentile, len(setups))
	vals := map[string]float64{
		"setup_s":           median(setups),
		"sim_mcycles_per_s": float64(first.simCycles) / 1e6 / passS,
		"requests_per_s":    float64(first.requests) / passS,
		"op_ms_p50":         medianOfMedians(byOp),
		"op_ms_p90":         percentile(t.opMs, tailPercentile),
		"alloc_mb_per_op":   float64(t.allocBytes) / 1e6 / ops,
		"peak_rss_mb":       float64(rss) / 1e6,
	}
	return newResult(endToEndMetrics, vals, t.attempted, t.failed, stderr), nil
}

// newResult assembles the printed result from a metric list and values,
// and prints a readable copy to stderr.
func newResult(list []metric, vals map[string]float64, attempted, failed int, stderr io.Writer) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range list {
		res.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(stderr, "%-34s %16.6g %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(stderr, "attempted %d, failed %d\n", attempted, failed)
	return res
}

// peakRSSBytes reads the process's peak resident set size.
func peakRSSBytes() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// tracedRun is the separate run the per-layer metrics come from: an
// untraced reference replay, the same ops replayed stage by stage with
// spans, a CPU and allocation profile of further passes, and the
// substrate microbenches and cost-model timings.
func tracedRun(w workload, seed uint64, seconds float64, spansPath string, stderr io.Writer) (*result, error) {
	hostNow = wallTime
	tr := newTracer()
	if _, err := timeSetups(w, seed, tr, setupReps); err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	vals["db.generate_ms"] = median(tr.durations("db.generate"))
	vals["db.reference_ms"] = median(tr.durations("db.reference"))

	// Untraced reference passes.
	var ref totals
	var refs []passResult
	for len(ref.opMs) < tracedMinOps {
		p, err := w.pass()
		if err != nil {
			return nil, err
		}
		var first *passResult
		if len(refs) > 0 {
			first = &refs[0]
		}
		ref.add(p, first, stderr)
		refs = append(refs, p)
	}
	for k, v := range refs[0].model {
		vals[k] = v
	}
	if _, ok := vals["serve.completed"]; ok {
		vals["serve.allocs_per_request"] = float64(ref.mallocs) / float64(ref.requests)
	}

	// Traced replay of the same passes.
	var traced tracedResult
	opSpans := len(tr.spans)
	for _, p := range refs {
		t, err := w.traced(tr, p)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		traced.add(t)
	}
	var tracedMs float64
	for _, s := range tr.spans[opSpans:] {
		if s.parent < 0 {
			tracedMs += float64(s.dur()) / 1e6
		}
	}
	self := tr.selfTimes()
	fmt.Fprintf(stderr, "self ms: %s\n", formatSelf(self))
	vals["trace.overhead_frac"] = tracedMs/sum(ref.opMs) - 1
	vals["trace.stage_coverage_min"] = tr.minCoverage("op")
	vals["query.prepare_ms"] = median(tr.durations("query.prepare"))
	vals["query.verify_ms"] = median(tr.durations("query.verify"))
	vals["machine.new_ms"] = median(tr.durations("machine.new"))
	vals["machine.image_mb"] = float64(traced.imageBytes) / 1e6
	counterMetrics(vals, traced, refs[0], self)

	// Profiled passes.
	var prof totals
	before := takeAllocSnapshot()
	cpuW, err := cpuProfile(func() error {
		start := time.Now()
		for prof.passes == 0 || time.Since(start).Seconds() < seconds {
			p, err := w.pass()
			if err != nil {
				return err
			}
			prof.add(p, &refs[0], stderr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	allocW := attributeAllocs(before, takeAllocSnapshot())
	cpuS, allocS := shares(cpuW), shares(allocW)
	for _, pkg := range cpuSharePackages {
		vals[pkg+".cpu_share"] = cpuS[pkg]
	}
	for _, pkg := range allocSharePackages {
		vals[pkg+".alloc_share"] = allocS[pkg]
	}
	vals["runtime.gc_share"] = cpuS[bucketGC]
	fmt.Fprintf(stderr, "cpu shares: %s\n", formatShares(cpuS))
	fmt.Fprintf(stderr, "alloc shares: %s\n", formatShares(allocS))

	if err := microMetrics(vals, seed); err != nil {
		return nil, err
	}
	if err := costMetrics(vals, w); err != nil {
		return nil, err
	}

	attempted := ref.attempted + traced.attempted + prof.attempted
	failed := ref.failed + traced.failed + prof.failed
	vals["fail_frac"] = float64(failed) / float64(attempted)
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stderr, "spans written to %s\n", spansPath)
	return newResult(layerMetrics, vals, attempted, failed, stderr), nil
}

func formatSelf(self map[string]int64) string {
	var b strings.Builder
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(&b, "%s=%.1f ", k, float64(self[k])/1e6)
	}
	return b.String()
}

func formatShares(s map[string]float64) string {
	keys := sortedKeys(s)
	sort.SliceStable(keys, func(i, j int) bool { return s[keys[i]] > s[keys[j]] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%.3f ", k, s[k])
	}
	return b.String()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics derives the count-based layer metrics from the machine
// counters of the traced replay (all zero when the workload builds no
// machines), and the per-event and per-µop host times from the stage
// spans' self times.
func counterMetrics(vals map[string]float64, t tracedResult, ref passResult, self map[string]int64) {
	get := func(keys ...string) float64 {
		var s float64
		if t.counters == nil {
			return 0
		}
		for _, k := range keys {
			v, _ := t.counters.Get(k)
			s += float64(v)
		}
		return s
	}
	ops := float64(t.ops)
	events := get("engine.events_executed")
	vals["sim.events_per_op"] = ratio(events, ops)
	vals["sim.heap_lane_frac"] = ratio(get("engine.heap_lane_events"), get("engine.events_scheduled"))
	vals["sim.ns_per_event"] = ratio(float64(self["machine.run"]), events)
	vals["query.emit_ns_per_uop"] = ratio(float64(self["query.emit"]), float64(t.uops))

	uops := get("cpu0.committed_uops")
	vals["cpu.uops_per_op"] = ratio(uops, ops)
	vals["cpu.ipc"] = ratio(uops, get("cpu0.active_cycles"))
	vals["cpu.rob_full_frac"] = ratio(get("cpu0.rob_full_stalls"), get("cpu0.active_cycles"))
	vals["cpu.cache_retry_per_uop"] = ratio(get("cpu0.cache_retries"), uops)
	vals["cpu.mispredict_frac"] = ratio(get("cpu0.branch_mispredicts"), get("cpu0.branches"))

	hitFrac := func(l string) float64 {
		hits := get(l+".read_hits", l+".write_hits")
		return ratio(hits, hits+get(l+".read_misses", l+".write_misses"))
	}
	vals["cache.l1d_hit_frac"] = hitFrac("l1d")
	vals["cache.l2_hit_frac"] = hitFrac("l2")
	vals["cache.mshr_stalls_per_op"] = ratio(get("l1d.mshr_stalls", "l2.mshr_stalls", "l3.mshr_stalls"), ops)
	vals["cache.prefetch_useful_frac"] = ratio(
		get("l1d.prefetches_useful", "l2.prefetches_useful", "l3.prefetches_useful"),
		get("l1d.prefetches_issued", "l2.prefetches_issued", "l3.prefetches_issued"))

	vals["link.bytes_per_op"] = ratio(get("link.req_bytes", "link.resp_bytes"), ops)
	vals["dram.reads_per_op"] = ratio(get("dram.reads"), ops)
	vals["dram.activations_per_op"] = ratio(get("dram.activations"), ops)

	hmcInsts := get("hmc.instructions")
	vals["hmc.instructions_per_op"] = ratio(hmcInsts, ops)
	vals["hmc.window_reject_per_inst"] = ratio(get("hmc.window_rejects"), hmcInsts)

	coreInsts := get("hipe.instructions", "hive.instructions")
	vals["core.instructions_per_op"] = ratio(coreInsts, ops)
	vals["core.squash_frac"] = ratio(get("hipe.squashed", "hive.squashed"), coreInsts)
	vals["core.squashed_dram_bytes_per_op"] = ratio(get("hipe.squashed_dram_bytes", "hive.squashed_dram_bytes"), ops)
	vals["core.interlock_stall_frac"] = ratio(
		get("hipe.interlock_stall_cycles", "hive.interlock_stall_cycles"), ref.model["model.sim_cycles"])
}

// microMetrics runs the substrate microbenches.
func microMetrics(vals map[string]float64, seed uint64) error {
	for _, m := range []struct {
		name string
		run  func() (float64, error)
	}{
		{"cache.ns_per_access", func() (float64, error) { return microCache(seed) }},
		{"dram.ns_per_access", microDRAM},
		{"link.ns_per_packet", microLink},
		{"core.ns_per_inst", microCore},
		{"cpu.ns_per_uop", microCPU},
	} {
		v, err := m.run()
		if err != nil {
			return fmt.Errorf("%s microbench: %w", m.name, err)
		}
		vals[m.name] = v
	}
	return nil
}

// costMetrics times the cost model standalone over the workload's
// distinct plans: profiling, estimating each candidate backend, and
// picking among them.
func costMetrics(vals map[string]float64, w workload) error {
	tab, plans := w.costPlans()
	params := cost.ParamsFor(machine.Default(), energy.Default())
	var prof, est, pick []float64
	us := func(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }
	for rep := 0; rep < costReps; rep++ {
		for _, p := range plans {
			cands := p.Candidates(tab.N)
			for _, c := range cands {
				t := time.Now()
				pr := cost.ProfileFor(tab, c)
				prof = append(prof, us(t))
				t = time.Now()
				if _, err := cost.EstimatePlan(params, c, pr); err != nil {
					return fmt.Errorf("estimating %s: %w", c, err)
				}
				est = append(est, us(t))
			}
			t := time.Now()
			if _, err := cost.Pick(params, tab, cands); err != nil {
				return fmt.Errorf("picking for %s: %w", p, err)
			}
			pick = append(pick, us(t))
		}
	}
	vals["cost.profile_us"] = median(prof)
	vals["cost.estimate_us"] = median(est)
	vals["cost.pick_us"] = median(pick)
	return nil
}

// Host time. End-to-end runs measure the process's CPU time, user and
// system, over all its threads: on a shared machine, wall-clock time
// also counts the time the machine's CPUs spend on other tenants' work,
// which is most of the run-to-run noise. The traced run measures
// wall-clock time, because its spans enclose a per-µop emission timer
// that only the wall clock is cheap enough to read.
var hostNow = cpuTime

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var wallStart = time.Now()

// wallTime returns the wall-clock time since the process started.
func wallTime() time.Duration { return time.Since(wallStart) }

// msSince returns the host milliseconds since hostNow returned t.
func msSince(t time.Duration) float64 { return float64(hostNow()-t) / 1e6 }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
