package main

// The four workloads. Each builds its inputs from the seed in setup and
// then runs passes of ops: an op is the unit a caller waits on, and a
// pass is the fixed op sequence whose simulated outputs must repeat
// exactly from one pass to the next.

import (
	"runtime"
	"time"

	hipe "github.com/hipe-sim/hipe"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// Workload sizes: the figure panels at the size the repository's figure
// benches use, Q01 and the fleets at hipe-sim's default table size.
const (
	figureTuples  = 4096
	q01Tuples     = 16384
	fleetTuples   = 16384
	clusterNoise  = 10 // days of shipdate noise in clustered tables
	fleetShards   = 4
	fleetRequests = 20000
	// fleetGap is the mean Poisson interarrival gap in simulated cycles:
	// near saturation, where admission control sheds a few percent.
	fleetGap = 12000
)

// passResult is what one pass reports.
type passResult struct {
	opMs       []float64 // host milliseconds per op
	attempted  int
	failed     int
	simCycles  uint64 // simulated cycles the pass covered
	requests   int    // simulated requests the pass replayed
	allocBytes uint64
	mallocs    uint64
	// exact holds every simulated output of the pass, op by op; two
	// passes over the same inputs must produce identical slices.
	exact []float64
	// model holds the pass's named model outputs (model.*, serve.*).
	model map[string]float64
}

// tracedResult is what one traced replay of a pass reports.
type tracedResult struct {
	attempted, failed int
	counters          *obs.Counters // machine counters summed over the pass
	ops               int
	uops              int64  // µops the replayed streams emitted
	imageBytes        uint64 // memory image of the machines built
}

// add folds another replay's results in.
func (t *tracedResult) add(o tracedResult) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops += o.ops
	t.uops += o.uops
	t.imageBytes = o.imageBytes
	t.addCounters(o.counters)
}

func (t *tracedResult) addCounters(c *obs.Counters) {
	switch {
	case c == nil:
	case t.counters == nil:
		t.counters = c
	default:
		t.counters.Add(c)
	}
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs from seed; tr (nil in untraced runs)
	// records the set-up stages.
	setup(seed uint64, tr *tracer) error
	// pass runs one pass of ops, untraced.
	pass() (passResult, error)
	// traced replays one pass through the layers' stage calls,
	// recording spans, and checks it against ref, an untraced pass.
	traced(tr *tracer, ref passResult) (tracedResult, error)
	// costPlans returns the table and the distinct plans whose cost
	// estimation the traced run times.
	costPlans() (*db.Table, []query.Plan)
}

var workloads = map[string]func() workload{
	"figures":      func() workload { return &figures{} },
	"q01-oneshot":  func() workload { return &q01{} },
	"fleet-plain":  func() workload { return &fleet{} },
	"fleet-faults": func() workload { return &fleet{faults: true} },
}

// memDelta measures the bytes and objects fn allocates. A collection
// runs first, outside the measurement, so every op starts from the same
// heap: what an op costs, and the peak memory it drives, then no longer
// depends on when the previous op's garbage happens to be collected.
func memDelta(fn func()) (bytes, objects uint64) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// ---------------------------------------------------------------------
// figures: the four Figure 3 panels through the sweep engine.

type figures struct {
	cfg    hipe.Config
	tab    *db.Table
	refs   map[db.Q06]*db.ReferenceResult
	panels [][]hipe.Cell
}

func (f *figures) setup(seed uint64, tr *tracer) error {
	f.cfg = hipe.Default()
	f.cfg.Tuples, f.cfg.Seed = figureTuples, seed
	tr.stage("db.generate", -1, -1, func() { f.tab = db.Generate(figureTuples, seed) })
	var err error
	tr.stage("sweep.expand", -1, -1, func() {
		f.panels = f.panels[:0]
		for _, name := range hipe.Figures() {
			var cells []hipe.Cell
			if cells, err = hipe.FigureCells(f.cfg, name); err != nil {
				return
			}
			f.panels = append(f.panels, cells)
		}
	})
	if err != nil {
		return err
	}
	tr.stage("db.reference", -1, -1, func() {
		f.refs = map[db.Q06]*db.ReferenceResult{}
		for _, cells := range f.panels {
			for _, c := range cells {
				if _, ok := f.refs[c.Plan.Q]; !ok {
					f.refs[c.Plan.Q] = db.Reference(f.tab, c.Plan.Q)
				}
			}
		}
	})
	return nil
}

// check compares a cell's outcome with the benchmark's own reference:
// the cell ran on the same table, so its selectivity matches the
// reference exactly. (The sweep engine already failed the cell if its
// simulated answer disagreed with the table's reference evaluator.)
func (f *figures) check(c hipe.CellResult) bool {
	ref := f.refs[c.Cell.Plan.Q]
	return c.Cell.Tuples == f.tab.N &&
		c.Selectivity == float64(ref.Matches)/float64(f.tab.N)
}

func (f *figures) pass() (passResult, error) {
	var p passResult
	for _, cells := range f.panels {
		var rs *hipe.ResultSet
		var err error
		alloc, objs := memDelta(func() {
			last := hostNow()
			rs, err = hipe.SweepCells(f.cfg, cells, hipe.SweepOptions{
				Workers: 1,
				OnCell: func(int, int, hipe.CellResult) {
					p.opMs = append(p.opMs, msSince(last))
					last = hostNow()
				},
			})
		})
		p.allocBytes += alloc
		p.mallocs += objs
		p.attempted += len(cells)
		p.requests += len(cells)
		if err != nil {
			p.failed += len(cells)
			continue
		}
		for _, c := range rs.Cells {
			if !f.check(c) {
				p.failed++
			}
			p.addResult(c.Result)
		}
	}
	return p, nil
}

// exactPerOp is how many exact outputs addResult records per op.
const exactPerOp = 4

// addResult folds one simulated result into the pass's exact outputs.
func (p *passResult) addResult(r hipe.Result) {
	if p.model == nil {
		p.model = map[string]float64{}
	}
	p.simCycles += r.Cycles
	p.exact = append(p.exact, float64(r.Cycles), r.Energy.DRAMPJ(),
		float64(r.SquashedDRAMBytes), float64(r.Checked))
	p.model["model.sim_cycles"] += float64(r.Cycles)
	p.model["model.dram_pj"] += r.Energy.DRAMPJ()
	p.model["model.squashed_dram_bytes"] += float64(r.SquashedDRAMBytes)
	p.model["model.checked"] += float64(r.Checked)
}

// sweepMachineConfig is the machine the sweep engine builds for the
// figure cells: the default machine with its image sized to the table.
func sweepMachineConfig(tuples int) machine.Config {
	mc := machine.Default()
	if ib := db.ImageBytesFor(tuples); ib < mc.ImageBytes {
		mc.ImageBytes = ib
	}
	return mc
}

func (f *figures) traced(tr *tracer, ref passResult) (tracedResult, error) {
	var t tracedResult
	mc := sweepMachineConfig(f.tab.N)
	i := 0
	for _, cells := range f.panels {
		var m *machine.Machine // one pooled machine per sweep, as the engine keeps
		for _, c := range cells {
			got, err := replayOp(tr, &t, i, &m, mc, f.tab, c.Plan)
			if err != nil {
				return t, err
			}
			got.ok = got.ok && got.matches == f.refs[c.Plan.Q].Matches
			compareExact(&t, got, ref, i)
			i++
		}
	}
	return t, nil
}

// compareExact checks a traced replay's result against op i of the
// untraced reference pass: every exact output must match.
func compareExact(t *tracedResult, got *stageResult, ref passResult, i int) {
	t.attempted++
	if exactPerOp*(i+1) > len(ref.exact) {
		t.failed++
		return
	}
	want := ref.exact[exactPerOp*i : exactPerOp*(i+1)]
	if !got.ok || float64(got.cycles) != want[0] || got.dramPJ != want[1] ||
		float64(got.squashed) != want[2] || float64(got.checked) != want[3] {
		t.failed++
	}
}

func (f *figures) costPlans() (*db.Table, []query.Plan) {
	return f.tab, []query.Plan{hipe.ServePlan(hipe.ArchAuto, hipe.DefaultQ06())}
}

// stageResult is one replayed op's outcome.
type stageResult struct {
	ok       bool // verified, and the answer matches the reference
	cycles   uint64
	dramPJ   float64
	squashed uint64
	checked  int
	matches  int // selection scans: the workload's reference match count
	groups   []db.GroupAgg
}

// replayOp drives one op through the same public stage calls as the
// sweep engine and hipe.Run: machine.New (when *m is nil) or
// Machine.Reset, query.Prepare, Machine.Run with the µop stream wrapped
// to time emission, Workload.Verify, then the energy audit. Machine
// counters are captured after the op span closes.
func replayOp(tr *tracer, t *tracedResult, op int, m **machine.Machine, mc machine.Config, tab *db.Table, plan query.Plan) (*stageResult, error) {
	res := &stageResult{}
	root := tr.begin("op", -1, op)
	var err error
	if *m == nil {
		tr.stage("machine.new", root, op, func() { *m, err = machine.New(mc) })
		if err != nil {
			return nil, err
		}
	} else {
		tr.stage("machine.reset", root, op, func() { (*m).Reset() })
	}
	mach := *m
	var w *query.Workload
	tr.stage("query.prepare", root, op, func() { w, err = query.Prepare(mach, tab, plan) })
	if err != nil {
		return nil, err
	}
	run := tr.begin("machine.run", root, op)
	start := tr.spans[run].start
	t0 := time.Now()
	ts := &timedStream{inner: w.Stream()}
	ts.ns += int64(time.Since(t0))
	res.cycles = uint64(mach.Run(ts))
	tr.end(run)
	tr.add(span{name: "query.emit", op: op, parent: run, start: start, end: start + ts.ns})
	tr.stage("query.verify", root, op, func() { err = w.Verify() })
	res.ok = err == nil
	var br energy.Breakdown
	tr.stage("energy.audit", root, op, func() {
		br = energy.Default().Audit(mach.Registry, res.cycles,
			int(mc.Geometry.Vaults), uint64(mc.DRAM.ClockRatio))
	})
	tr.end(root)

	scope := "hipe"
	if plan.Arch == query.HIVE {
		scope = "hive"
	}
	res.dramPJ = br.DRAMPJ()
	res.squashed = mach.Registry.Scope(scope).Get("squashed_dram_bytes")
	res.checked = w.Checked()
	res.groups = w.GroupResults()
	if w.Ref != nil {
		res.matches = w.Ref.Matches
	}
	t.addCounters(obs.Capture(mach.Registry, mach.Engine))
	t.ops++
	t.imageBytes = mc.ImageBytes
	t.uops += ts.uops
	return res, nil
}

// ---------------------------------------------------------------------
// q01-oneshot: TPC-H Q01 through the public one-shot hipe.Run.

type q01 struct {
	cfg   hipe.Config
	tabs  []*db.Table
	refs  []*db.Q1Result
	plans []query.Plan
}

func (q *q01) setup(seed uint64, tr *tracer) error {
	q.cfg = hipe.Default()
	q.cfg.Seed = seed
	tr.stage("db.generate", -1, -1, func() {
		q.tabs = []*db.Table{
			db.Generate(q01Tuples, seed),
			db.GenerateClustered(q01Tuples, seed, clusterNoise),
		}
	})
	pred := hipe.DefaultQ01()
	tr.stage("db.reference", -1, -1, func() {
		q.refs = q.refs[:0]
		for _, t := range q.tabs {
			q.refs = append(q.refs, db.ReferenceQ1(t, pred))
		}
	})
	q.plans = q.plans[:0]
	for _, a := range []hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE} {
		q.plans = append(q.plans, hipe.ServeQ1Plan(a, pred))
	}
	return nil
}

// groupsMatch reports whether simulated group aggregates equal the
// reference's, group by group.
func groupsMatch(got []db.GroupAgg, ref *db.Q1Result) bool {
	if len(got) != len(ref.Groups) {
		return false
	}
	for i := range got {
		if got[i] != ref.Groups[i] {
			return false
		}
	}
	return true
}

func (q *q01) pass() (passResult, error) {
	var p passResult
	for ti, tab := range q.tabs {
		for _, plan := range q.plans {
			var r hipe.Result
			var err error
			var ms float64
			alloc, objs := memDelta(func() {
				t := hostNow()
				r, err = hipe.Run(q.cfg, tab, plan)
				ms = msSince(t)
			})
			p.opMs = append(p.opMs, ms)
			p.allocBytes += alloc
			p.mallocs += objs
			p.attempted++
			p.requests++
			if err != nil || !groupsMatch(r.Groups, q.refs[ti]) {
				p.failed++
			}
			p.addResult(r)
		}
	}
	return p, nil
}

func (q *q01) traced(tr *tracer, ref passResult) (tracedResult, error) {
	var t tracedResult
	mc := machine.Default() // hipe.Run builds a fresh default machine per call
	i := 0
	for ti, tab := range q.tabs {
		for _, plan := range q.plans {
			var m *machine.Machine
			got, err := replayOp(tr, &t, i, &m, mc, tab, plan)
			if err != nil {
				return t, err
			}
			got.ok = got.ok && groupsMatch(got.groups, q.refs[ti])
			compareExact(&t, got, ref, i)
			i++
		}
	}
	return t, nil
}

func (q *q01) costPlans() (*db.Table, []query.Plan) {
	return q.tabs[0], []query.Plan{hipe.ServeQ1Plan(hipe.ArchAuto, hipe.DefaultQ01())}
}

// ---------------------------------------------------------------------
// fleet-plain / fleet-faults: replicated-fleet load tests, estimate mode.

type fleet struct {
	faults bool
	tab    *db.Table
	fl     *hipe.Fleet
	spec   hipe.LoadSpec
	// refs holds the reference (matches, revenue) per distinct plan
	// predicate of the stream.
	refs map[query.Plan][2]int64
}

// answerKey reduces a plan to the predicate that determines its answer.
func answerKey(p query.Plan) query.Plan {
	if p.Kind == query.Q1Agg {
		return query.Plan{Kind: query.Q1Agg, Q1: p.Q1}
	}
	return query.Plan{Q: p.Q}
}

func (f *fleet) setup(seed uint64, tr *tracer) error {
	tr.stage("db.generate", -1, -1, func() { f.tab = db.GenerateClustered(fleetTuples, seed, clusterNoise) })
	var err error
	tr.stage("serve.new_fleet", -1, -1, func() {
		f.fl, err = hipe.ServeFleet(hipe.Default(), f.tab, fleetShards, []hipe.Arch{hipe.HIPE, hipe.X86})
	})
	if err != nil {
		return err
	}
	var reqs []hipe.ServeRequest
	tr.stage("serve.stream", -1, -1, func() {
		reqs, err = hipe.StreamSpec{
			N: fleetRequests, Seed: seed, Archs: []hipe.Arch{hipe.ArchAuto},
			Classes: 2, Q1Every: 8,
		}.Requests()
	})
	if err != nil {
		return err
	}
	f.spec = hipe.OpenLoop(reqs, fleetGap, 0, seed)
	f.spec.Classes = []hipe.ClassSpec{
		{Name: "batch", SLOCycles: 40_000, PatienceCycles: 5_000},
		{Name: "rt", SLOCycles: 20_000, PatienceCycles: 0},
	}
	f.spec.Shed = true
	if f.faults {
		// Moderate faults over the ~240 M-cycle test: a few crashes per
		// pool, frequent short stragglers and stalls, so every recovery
		// action fires while admission still sheds about a tenth.
		const m = 1_000_000
		f.spec.Faults = &hipe.FaultSpec{
			Seed:       seed,
			CrashEvery: 60 * m, CrashDown: m,
			StraggleEvery: 20 * m, StraggleFor: m, StraggleFactor: 2,
			StallEvery: 10 * m, StallFor: 10_000,
		}
		f.spec.Recovery = &hipe.RecoverySpec{
			MaxRetries: 2, BackoffCycles: 2_000, BackoffCapCycles: 16_000,
			Hedge: true, Failover: true,
		}
		f.spec.Classes[0].TimeoutCycles = 400_000
		f.spec.Classes[1].TimeoutCycles, f.spec.Classes[1].HedgeCycles = 200_000, 100_000
		f.spec.Adaptive = &hipe.AdaptiveSpec{Seed: seed}
	}
	tr.stage("db.reference", -1, -1, func() {
		f.refs = map[query.Plan][2]int64{}
		for _, r := range reqs {
			k := answerKey(r.Plan)
			if _, ok := f.refs[k]; ok {
				continue
			}
			if k.Kind == query.Q1Agg {
				ref := db.ReferenceQ1(f.tab, k.Q1)
				f.refs[k] = [2]int64{int64(ref.Matches), ref.Revenue()}
			} else {
				ref := db.Reference(f.tab, k.Q)
				f.refs[k] = [2]int64{int64(ref.Matches), ref.Revenue}
			}
		}
	})
	return nil
}

// loadTest runs one op.
func (f *fleet) loadTest() (*hipe.LoadReport, error) {
	return f.fl.LoadTest(f.spec, hipe.ServeOptions{Exec: hipe.ExecEstimate, Workers: 1})
}

// check verifies the report's accounting identity and every complete
// answer against the benchmark's reference.
func (f *fleet) check(r *hipe.LoadReport) bool {
	if r.Offered != len(f.spec.Requests) || r.Offered != r.Completed+r.Shed ||
		r.Degraded > r.Completed || len(r.Requests) != r.Completed {
		return false
	}
	for _, tr := range r.Requests {
		if tr.Degraded {
			continue
		}
		ref, ok := f.refs[answerKey(tr.Plan)]
		if !ok || int64(tr.Matches) != ref[0] || tr.Revenue != ref[1] {
			return false
		}
	}
	return true
}

// fleetModel extracts a report's simulated outputs.
func fleetModel(r *hipe.LoadReport) map[string]float64 {
	m := map[string]float64{
		"model.sim_cycles":  float64(r.MakespanCycles),
		"model.checked":     float64(r.Completed - r.Degraded),
		"serve.completed":   float64(r.Completed),
		"serve.shed":        float64(r.Shed),
		"serve.degraded":    float64(r.Degraded),
		"serve.sim_p50_cyc": float64(r.LatencyP50),
		"serve.sim_p99_cyc": float64(r.LatencyP99),
	}
	for _, c := range r.Classes {
		m["serve.slo_attain_"+c.Name] = c.Attainment
	}
	if fs := r.Faults; fs != nil {
		m["fault.retries_per_op"] = float64(fs.Retries)
		m["fault.hedges_per_op"] = float64(fs.Hedges)
		m["fault.failovers_per_op"] = float64(fs.Failovers)
	}
	return m
}

func (f *fleet) pass() (passResult, error) {
	var p passResult
	var r *hipe.LoadReport
	var err error
	var ms float64
	p.allocBytes, p.mallocs = memDelta(func() {
		t := hostNow()
		r, err = f.loadTest()
		ms = msSince(t)
	})
	p.opMs = []float64{ms}
	p.attempted = 1
	if err != nil {
		p.failed = 1
		return p, nil
	}
	if !f.check(r) {
		p.failed = 1
	}
	p.simCycles = r.MakespanCycles
	p.requests = r.Offered
	p.model = fleetModel(r)
	for _, k := range sortedKeys(p.model) {
		p.exact = append(p.exact, p.model[k])
	}
	return p, nil
}

func (f *fleet) traced(tr *tracer, ref passResult) (tracedResult, error) {
	var t tracedResult
	s := tr.begin("serve.load_test", -1, 0)
	r, err := f.loadTest()
	tr.end(s)
	t.attempted, t.ops = 1, 1
	if err != nil || !f.check(r) {
		t.failed = 1
		return t, nil
	}
	got := fleetModel(r)
	for k, v := range ref.model {
		if got[k] != v {
			t.failed = 1
		}
	}
	return t, nil
}

func (f *fleet) costPlans() (*db.Table, []query.Plan) {
	seen := map[query.Plan]bool{}
	var plans []query.Plan
	for _, r := range f.spec.Requests {
		if !seen[r.Plan] {
			seen[r.Plan] = true
			plans = append(plans, r.Plan)
		}
	}
	return f.tab, plans
}
