// The worker pool: cells fan out over GOMAXPROCS goroutines, each
// simulation runs single-threaded, and results land in an index-ordered
// ResultSet so the outcome is independent of scheduling.
package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
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
	// Counters enables machine-counter capture: each cell's machine
	// registry (plus its event engine's scheduler accounting) is
	// snapshotted into CellResult.Counters after the run, before the
	// machine is reused. Off by default; when off no capture code runs
	// and exports are byte-identical to their pre-observability form.
	// Counters need real simulation: estimate mode refuses them.
	Counters bool
	// Exec selects the execution mode. ExecExact (the zero value) runs
	// full machine simulations; ExecEstimate prices each cell with the
	// analytic cost model instead — no machines are built — and marks
	// every result with CellResult.Mode. Exact-mode results and exports
	// are byte-identical to runs made before this knob existed.
	Exec ExecMode
	// CellShards, when above 1, runs each exact cell as a parallel
	// shard simulation: the cell's table is partitioned into CellShards
	// contiguous shards (db.Partition), the per-shard machines simulate
	// concurrently on the worker pool, and the partials merge in shard
	// order — cycles as the critical path (slowest shard), energy and
	// counter totals summed — so results are byte-identical at any
	// worker count. 0 or 1 keeps the whole-table single-machine path.
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
	// Options.Counters was set; nil — and JSON-omitted — otherwise, so
	// counter-off exports are unchanged.
	Counters *obs.Counters `json:",omitempty"`
	// Mode records the execution mode that produced Result: ExecEstimate
	// cells carry model-predicted cycles over reference-evaluator
	// answers. ExecExact (the zero value) is JSON-omitted, so exact
	// exports are byte-identical to their pre-mode form.
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

// tableCache resolves each distinct workload's table and selectivity
// exactly once per sweep, even when many workers ask concurrently. The
// tables themselves come from the process-wide db memo, so repeated
// sweeps and figure runs over the same (tuples, seed, clustering)
// triples share one generated table.
type tableCache struct {
	mu     sync.Mutex
	tables map[workload]*tableEntry
}

type tableEntry struct {
	once sync.Once
	tab  *db.Table
	sel  float64
}

func (tc *tableCache) get(w workload) (*db.Table, float64) {
	tc.mu.Lock()
	e, ok := tc.tables[w]
	if !ok {
		e = &tableEntry{}
		tc.tables[w] = e
	}
	tc.mu.Unlock()
	e.once.Do(func() {
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
	})
	return e.tab, e.sel
}

// RunCells executes an explicit cell list through the worker pool. The
// cells' Tuples/Seed fields select their tables; cfg contributes the
// machine and energy models. Every cell runs even if another fails, and
// the returned error is the first failure in cell order (deterministic
// regardless of worker count); the ResultSet is nil on error.
func RunCells(cfg Config, cells []Cell, opt Options) (*ResultSet, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Exec == ExecEstimate {
		return runCellsEstimate(cfg, cells, opt)
	}
	if opt.CellShards > 1 {
		return runCellsSharded(cfg, cells, opt)
	}
	rs := &ResultSet{Cells: make([]CellResult, len(cells))}
	errs := make([]error, len(cells))
	cache := &tableCache{tables: map[workload]*tableEntry{}}

	// Size the default machine image to the sweep's largest workload
	// instead of the full 64 MiB default.
	maxTuples := 0
	for _, c := range cells {
		maxTuples = max(maxTuples, c.Tuples)
	}
	cfg = cfg.sizedFor(maxTuples)

	// The planner parameters for auto-arch cells, derived once from the
	// sweep's machine and energy models. Resolution happens per cell
	// inside the workers, but a decision is a pure function of (table,
	// plan), so the outcome is independent of worker scheduling.
	params := cost.ParamsFor(cfg.machineConfig(), cfg.energyModel())

	indices := make(chan int)
	var done sync.WaitGroup
	var progressMu sync.Mutex
	completed := 0
	for w := 0; w < opt.EffectiveWorkers(); w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			// Each worker builds one machine lazily and Reset-reuses it
			// across its cells: a reset machine is bit-identical to a
			// fresh one (machine.Reset), so reuse changes wall-clock
			// only — the worker-count determinism tests double as reuse
			// determinism tests.
			var m *machine.Machine
			for i := range indices {
				cell := cells[i]
				tab, sel := cache.get(cell.workload())
				cr := CellResult{Index: i, Cell: cell, Selectivity: sel}
				var res Result
				var err error
				plan := cell.Plan
				if plan.Auto() {
					// Resolve the auto cell: substitute each registered
					// backend into the cell's shape and run the
					// predicted-fastest.
					var d *cost.Decision
					d, err = cost.Pick(params, tab, plan.Candidates(cell.Tuples))
					if err == nil {
						plan = d.Chosen
						cr.Routing = d
					}
				}
				if err == nil {
					if m == nil {
						m, err = machine.New(cfg.machineConfig())
					} else {
						m.Reset()
					}
				}
				if err == nil {
					res, err = cfg.runOn(m, tab, plan)
				}
				if err == nil && opt.Counters {
					// Snapshot before the next cell's Reset clears the
					// registry. A snapshot is a pure function of the
					// single-threaded cell run, so worker scheduling
					// cannot leak into it.
					cr.Counters = obs.Capture(m.Registry, m.Engine)
				}
				if err != nil {
					errs[i] = fmt.Errorf("sweep: cell %d (%s): %w", i, cell, err)
				} else {
					cr.Result = res
					rs.Cells[i] = cr
				}
				if opt.OnCell != nil {
					progressMu.Lock()
					completed++
					opt.OnCell(completed, len(cells), cr)
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		indices <- i
	}
	close(indices)
	done.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rs.computeSpeedups()
	return rs, nil
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
