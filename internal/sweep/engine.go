// The cell executor: every cell is cut into one or more shards, the
// (cell, shard) tasks fan out over GOMAXPROCS goroutines, each
// simulation runs single-threaded, and results land in an index-ordered
// ResultSet so the outcome is independent of scheduling.
package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// Options tune a sweep run.
type Options struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// The worker count never changes results, only wall-clock time.
	Workers int
	// OnCell, when non-nil, is called once per finished cell — failed
	// cells included, with a zero Result — with the number of cells
	// finished so far and the grid total. Calls are serialised but
	// arrive in completion order, not index order — use it for
	// progress reporting, not aggregation.
	OnCell func(completed, total int, r CellResult)
	// Counters enables machine-counter capture: each shard's machine
	// registry (plus its event engine's scheduler accounting) is
	// snapshotted after its run, before the machine is reused, and a
	// cell's snapshots sum into CellResult.Counters. Off by default; when
	// off no capture code runs and exports carry no counter columns.
	// Counters need real simulation: estimate mode refuses them.
	Counters bool
	// Exec selects the execution mode. ExecExact (the zero value) runs
	// full machine simulations; ExecEstimate prices each cell with the
	// analytic cost model instead — no machines are built — and marks
	// every result with CellResult.Mode.
	Exec ExecMode
	// CellShards is the number of contiguous shards each exact cell's
	// table is cut into (db.Partition). The shards simulate concurrently
	// on the worker pool and merge in shard order — cycles as the
	// critical path (slowest shard), energy and counter totals summed —
	// so results are byte-identical at any worker count. 0 or 1 runs
	// each cell as one shard: the whole table on one machine.
	CellShards int
}

// validate rejects option combinations the engine refuses to run:
// estimate mode can produce neither machine counters nor per-shard
// machine simulations, because there are no machines.
func (o Options) validate() error {
	switch o.Exec {
	case ExecExact:
	case ExecEstimate:
		if o.Counters {
			return fmt.Errorf("sweep: estimate mode cannot capture machine counters (µop-level counters need exact simulation)")
		}
		if o.CellShards > 1 {
			return fmt.Errorf("sweep: estimate mode prices whole cells analytically and has no shard machines to parallelise")
		}
	default:
		return fmt.Errorf("sweep: unknown exec mode %d", int(o.Exec))
	}
	if o.CellShards < 0 {
		return fmt.Errorf("sweep: negative cell shard count %d", o.CellShards)
	}
	return nil
}

// EffectiveWorkers resolves the worker-pool size these options produce.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CellResult is one aggregated sweep outcome.
type CellResult struct {
	// Index is the cell's position in the expanded grid.
	Index int
	// Cell is the experiment that ran.
	Cell Cell
	// Result is the simulation outcome.
	Result Result
	// Selectivity is the fraction of the cell's table matching its
	// predicate (computed once per workload group).
	Selectivity float64
	// Speedup is the cell's speedup against its workload group's
	// baseline: the best x86 cycles over the same table and predicate,
	// or the group's best cycles when the group has no x86 cell.
	Speedup float64
	// Routing records the adaptive planner's decision for an auto-arch
	// cell: the candidates were the cell's shape with each registered
	// backend's architecture substituted (trimmed to fitting
	// envelopes), and Result.Plan is the chosen backend's plan. Nil —
	// and JSON-omitted — for fixed-architecture cells.
	Routing *cost.Decision `json:",omitempty"`
	// Counters is the cell's machine-counter snapshot when
	// Options.Counters was set; nil — and JSON-omitted — otherwise.
	Counters *obs.Counters `json:",omitempty"`
	// Mode records the execution mode that produced Result: ExecEstimate
	// cells carry model-predicted cycles over reference-evaluator
	// answers. ExecExact (the zero value) is JSON-omitted.
	Mode ExecMode `json:",omitempty"`
	// Shards records the intra-cell shard count when the cell ran as a
	// parallel shard simulation (Options.CellShards > 1): Result.Cycles
	// is then the critical path over Shards concurrent machines. 0 —
	// and JSON-omitted — for whole-table runs.
	Shards int `json:",omitempty"`
}

// ResultSet is the aggregate outcome of a sweep, ordered by cell index.
type ResultSet struct {
	Cells []CellResult
}

// Results flattens the set into its simulation results, in cell order.
func (rs *ResultSet) Results() []Result {
	out := make([]Result, len(rs.Cells))
	for i, c := range rs.Cells {
		out[i] = c.Result
	}
	return out
}

// BestCycles reports the lowest cycle count among cells of arch, or 0
// when the set has none — the normalisation baseline figure tables use.
func (rs *ResultSet) BestCycles(arch query.Arch) uint64 {
	var best uint64
	for _, c := range rs.Cells {
		if c.Cell.Plan.Arch == arch && (best == 0 || c.Result.Cycles < best) {
			best = c.Result.Cycles
		}
	}
	return best
}

// Best returns the lowest-cycle cell per architecture, in architecture
// order.
func (rs *ResultSet) Best() []CellResult {
	best := map[query.Arch]CellResult{}
	for _, c := range rs.Cells {
		b, ok := best[c.Cell.Plan.Arch]
		if !ok || c.Result.Cycles < b.Result.Cycles {
			best[c.Cell.Plan.Arch] = c
		}
	}
	archs := make([]query.Arch, 0, len(best))
	for a := range best {
		archs = append(archs, a)
	}
	sort.Slice(archs, func(i, j int) bool { return archs[i] < archs[j] })
	out := make([]CellResult, len(archs))
	for i, a := range archs {
		out[i] = best[a]
	}
	return out
}

// Run expands the grid and executes every cell through the worker pool.
// Empty Tuples/Seeds axes inherit cfg's values, so a grid that doesn't
// sweep the workload runs at the scale the caller configured — matching
// how Config.Tuples governs Run and Figure.
func Run(cfg Config, g Grid, opt Options) (*ResultSet, error) {
	if len(g.Tuples) == 0 && cfg.Tuples > 0 {
		g.Tuples = []int{cfg.Tuples}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{cfg.Seed}
	}
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	return RunCells(cfg, cells, opt)
}

// tableEntry is one distinct workload's table, cut into the run's shard
// count, and its predicate selectivity.
type tableEntry struct {
	tab    *db.Table
	shards []*db.Table
	sel    float64
	err    error
}

// resolveTable generates w's table through the process-wide db memo, so
// repeated sweeps and figure runs share one generated table, and cuts
// it into n contiguous shards. db.Partition shares the column slices,
// so a shard costs one Table header.
func resolveTable(w workload, n int) tableEntry {
	var e tableEntry
	if w.Clustered {
		e.tab = db.GenerateClusteredMemo(w.Tuples, w.Seed, w.NoiseDays)
	} else {
		e.tab = db.GenerateMemo(w.Tuples, w.Seed)
	}
	if w.Kind == query.Q1Agg {
		e.sel = db.SelectivityQ1(e.tab, w.Q1)
	} else {
		e.sel = db.Selectivity(e.tab, w.Q)
	}
	e.shards, e.err = db.Partition(e.tab, n)
	return e
}

// cellRun is one cell resolved for execution.
type cellRun struct {
	plan   query.Plan  // the plan its shards run: an auto cell's routed choice
	shards []*db.Table // nil when the cell failed to resolve
	left   int         // shard tasks not yet landed
	err    error
}

// partial is one (cell, shard) task's outcome.
type partial struct {
	res      Result
	counters *obs.Counters
	err      error
}

// RunCells executes an explicit cell list through the worker pool. The
// cells' Tuples/Seed fields select their tables; cfg contributes the
// machine and energy models. Every cell runs even if another fails, and
// the returned error is the first failure in cell order (deterministic
// regardless of worker count); the ResultSet is nil on error.
//
// Cells are resolved serially first: each one's table, selectivity,
// max(1, CellShards) shards and, for an auto cell, routing, decided on
// the whole table so that it depends on neither the shard nor the
// worker count. The workers then run (cell, shard) tasks: a simulation
// on a machine drawn from machine.Get or, in estimate mode, a
// cost-model price. A cell is merged and reported to OnCell when its
// last task lands. A cell that fails to resolve runs no tasks and is
// reported with a zero Result.
func RunCells(cfg Config, cells []Cell, opt Options) (*ResultSet, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := max(1, opt.CellShards)
	params := cost.ParamsFor(cfg.machineConfig(), cfg.energyModel())
	rs := &ResultSet{Cells: make([]CellResult, len(cells))}
	runs := make([]cellRun, len(cells))
	tables := map[workload]tableEntry{}
	tasks, maxRows := 0, 0
	for i, cell := range cells {
		w := cell.workload()
		t, ok := tables[w]
		if !ok {
			t = resolveTable(w, n)
			tables[w] = t
		}
		cr, r := &rs.Cells[i], &runs[i]
		*cr = CellResult{Index: i, Cell: cell, Selectivity: t.sel, Mode: opt.Exec}
		if opt.CellShards > 1 {
			cr.Shards = n
		}
		r.plan, r.err = cell.Plan, t.err
		if r.err == nil && cell.Plan.Auto() {
			var d *cost.Decision
			if d, r.err = cost.Pick(params, t.tab, cell.Plan.Candidates(cell.Tuples)); r.err == nil {
				r.plan, cr.Routing = d.Chosen, d
			}
		}
		if r.err != nil {
			continue
		}
		r.shards, r.left = t.shards, n
		tasks += n
		for _, s := range t.shards {
			maxRows = max(maxRows, s.N)
		}
	}
	// Machines only ever see shard-sized tables, so the default image
	// sizes to the largest shard instead of the full 64 MiB default.
	cfg = cfg.sizedFor(maxRows)

	parts := make([]partial, len(cells)*n)
	var mu sync.Mutex
	completed := 0
	// finish merges cell c, or names its first failure, and reports it;
	// callers hold mu.
	finish := func(c int) {
		cr, r := &rs.Cells[c], &runs[c]
		for s, p := range parts[c*n : (c+1)*n] {
			if r.err == nil && p.err != nil {
				r.err = p.err
				if n > 1 {
					r.err = fmt.Errorf("shard %d: %w", s, p.err)
				}
			}
		}
		if r.err != nil {
			r.err = fmt.Errorf("sweep: cell %d (%s): %w", c, cr.Cell, r.err)
		} else {
			cr.Result, cr.Counters = merge(parts[c*n : (c+1)*n])
		}
		completed++
		if opt.OnCell != nil {
			opt.OnCell(completed, len(cells), *cr)
		}
	}

	indices := make(chan int)
	var done sync.WaitGroup
	for range min(opt.EffectiveWorkers(), tasks) {
		done.Add(1)
		go func() {
			defer done.Done()
			for ti := range indices {
				c := ti / n
				r, p := &runs[c], &parts[ti]
				if opt.Exec == ExecEstimate {
					p.res, p.err = estimate(params, rs.Cells[c].Routing, r.plan, r.shards[ti%n])
				} else {
					p.res, p.counters, p.err = cfg.simulate(r.shards[ti%n], r.plan, opt.Counters)
				}
				mu.Lock()
				if r.left--; r.left == 0 {
					finish(c)
				}
				mu.Unlock()
			}
		}()
	}
	for c := range runs {
		if runs[c].err != nil {
			mu.Lock()
			finish(c)
			mu.Unlock()
			continue
		}
		for s := range n {
			indices <- c*n + s
		}
	}
	close(indices)
	done.Wait()

	for _, r := range runs {
		if r.err != nil {
			return nil, r.err
		}
	}
	rs.computeSpeedups()
	return rs, nil
}

// simulate runs p over tab on a machine drawn from machine.Get and
// returns the machine with machine.Put, on every path: a reset machine
// is bit-identical to a fresh one, so reuse changes wall-clock only.
// With counters set it copies the machine's registry before Put's
// Reset clears it. c.Machine must be set (sizedFor).
func (c Config) simulate(tab *db.Table, p query.Plan, counters bool) (Result, *obs.Counters, error) {
	m, err := machine.Get(*c.Machine)
	if err != nil {
		return Result{}, nil, err
	}
	defer machine.Put(m)
	res, err := c.runOn(m, tab, p)
	if err != nil || !counters {
		return res, nil, err
	}
	return res, obs.Capture(m.Registry, m.Engine), nil
}

// estimate prices p over tab with the analytic cost model; an auto
// cell reuses its routing decision's estimate of the chosen plan. The
// model predicts DRAM read traffic and link energy only, so those are
// the populated energy components: DRAMPJ() and TotalPJ() then
// reproduce the model's own figures in the shared export columns.
func estimate(pr cost.Params, d *cost.Decision, p query.Plan, tab *db.Table) (Result, error) {
	var est cost.Estimate
	if d != nil {
		est = d.Estimates[d.ChosenIndex]
	} else {
		var err error
		if est, err = cost.EstimatePlan(pr, p, cost.ProfileFor(tab, p)); err != nil {
			return Result{}, err
		}
	}
	dram := est.DRAMBytes * 8 * pr.DRAMReadBitPJ
	return Result{
		Plan:   p,
		Cycles: uint64(math.Round(est.Cycles)),
		Energy: energy.Breakdown{ReadPJ: dram, LinkPJ: est.EnergyPJ - dram},
	}, nil
}

// merge folds a cell's shard outcomes, in shard order, into its result:
// cycles are the critical path (the slowest shard, since the shards
// would run concurrently on real hardware), and energy, answers,
// squashes and counters are summed. The first shard's Result and
// counters accumulate the rest, so a one-shard cell's outcome is
// returned as it ran.
func merge(parts []partial) (Result, *obs.Counters) {
	res, ctr := parts[0].res, parts[0].counters
	for _, p := range parts[1:] {
		res.Cycles = max(res.Cycles, p.res.Cycles)
		e := &res.Energy
		e.ActivationPJ += p.res.Energy.ActivationPJ
		e.ReadPJ += p.res.Energy.ReadPJ
		e.WritePJ += p.res.Energy.WritePJ
		e.RefreshPJ += p.res.Energy.RefreshPJ
		e.BackgroundPJ += p.res.Energy.BackgroundPJ
		e.LinkPJ += p.res.Energy.LinkPJ
		e.LogicPJ += p.res.Energy.LogicPJ
		res.Checked += p.res.Checked
		res.Squashed += p.res.Squashed
		res.SquashedDRAMBytes += p.res.SquashedDRAMBytes
		for g := range res.Groups {
			res.Groups[g].Add(p.res.Groups[g])
		}
		ctr.Add(p.counters)
	}
	return res, ctr
}

// computeSpeedups fills the per-cell speedup against each workload
// group's baseline (best x86 cycles in the group, else the group best).
func (rs *ResultSet) computeSpeedups() {
	baseline := map[workload]uint64{}
	groupBest := map[workload]uint64{}
	for _, c := range rs.Cells {
		w := c.Cell.workload()
		cyc := c.Result.Cycles
		if b, ok := groupBest[w]; !ok || cyc < b {
			groupBest[w] = cyc
		}
		if c.Cell.Plan.Arch == query.X86 {
			if b, ok := baseline[w]; !ok || cyc < b {
				baseline[w] = cyc
			}
		}
	}
	for i := range rs.Cells {
		w := rs.Cells[i].Cell.workload()
		base, ok := baseline[w]
		if !ok {
			base = groupBest[w]
		}
		rs.Cells[i].Speedup = rs.Cells[i].Result.Speedup(base)
	}
}
