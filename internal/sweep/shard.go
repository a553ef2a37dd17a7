// The parallel shard simulation path: each exact cell's table is cut
// into Options.CellShards contiguous shards (db.Partition), the
// per-shard machines simulate concurrently on the worker pool, and the
// partials merge in shard order. Shard machines share no state until
// the merge, so parallelism cannot perturb any simulated result; the
// merge itself is a pure fold over an index-ordered slice, so a sharded
// sweep is byte-identical at any worker count — the same invariant the
// serving cluster's scatter-gather path holds, and the same shape its
// reports use (cycles as the critical path over shards, totals summed).
package sweep

import (
	"fmt"
	"sync"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
)

// addBreakdown accumulates o into b component-wise.
func addBreakdown(b *energy.Breakdown, o energy.Breakdown) {
	b.ActivationPJ += o.ActivationPJ
	b.ReadPJ += o.ReadPJ
	b.WritePJ += o.WritePJ
	b.RefreshPJ += o.RefreshPJ
	b.BackgroundPJ += o.BackgroundPJ
	b.LinkPJ += o.LinkPJ
	b.LogicPJ += o.LogicPJ
}

// shardTask is one (cell, shard) unit of work, slot-indexed so partials
// land at cell*CellShards+shard regardless of scheduling.
type shardTask struct {
	cell  int
	shard int
}

// shardPartial is one shard's simulation outcome plus the counter
// snapshot taken before its machine went back to the pool.
type shardPartial struct {
	res      Result
	counters *obs.Counters
}

// runCellsSharded executes a cell list with intra-cell shard
// parallelism. Routing for auto-arch cells is resolved on the whole
// table before fan-out — the same cost.Pick call the whole-table path
// makes, so routing decisions and export columns are byte-identical
// across shard counts. Merged results report cycles as the critical
// path (slowest shard: the shards would run concurrently on real
// hardware), and sum energy, verification, squash and counter totals
// in shard order.
func runCellsSharded(cfg Config, cells []Cell, opt Options) (*ResultSet, error) {
	nShards := opt.CellShards
	rs := &ResultSet{Cells: make([]CellResult, len(cells))}
	errs := make([]error, len(cells))
	cache := &tableCache{tables: map[workload]*tableEntry{}}
	params := cost.ParamsFor(cfg.machineConfig(), cfg.energyModel())

	// Partition each distinct workload's table once, and resolve every
	// auto cell's routing on the whole table, serially before fan-out:
	// routing is part of the result contract and must not depend on the
	// shard or worker count. Cells whose tables cannot be cut (fewer
	// than nShards 64-row blocks) or whose routing fails error here, in
	// cell order.
	shardSets := map[workload][]*db.Table{}
	resolved := make([]Cell, len(cells))
	routings := make([]*cost.Decision, len(cells))
	sels := make([]float64, len(cells))
	for i, cell := range cells {
		w := cell.workload()
		tab, sel := cache.get(w)
		sels[i] = sel
		if _, ok := shardSets[w]; !ok {
			shards, err := db.Partition(tab, nShards)
			if err != nil {
				return nil, fmt.Errorf("sweep: cell %d (%s): %w", i, cell, err)
			}
			shardSets[w] = shards
		}
		resolved[i] = cell
		if cell.Plan.Auto() {
			d, err := cost.Pick(params, tab, cell.Plan.Candidates(cell.Tuples))
			if err != nil {
				return nil, fmt.Errorf("sweep: cell %d (%s): %w", i, cell, err)
			}
			resolved[i].Plan = d.Chosen
			routings[i] = d
		}
	}

	// Shard machines only ever see shard-sized tables, so the default
	// image sizes to the largest shard, not the largest table.
	maxRows := 0
	for _, shards := range shardSets {
		for _, s := range shards {
			maxRows = max(maxRows, s.N)
		}
	}
	cfg = cfg.sizedFor(maxRows)
	mc := *cfg.Machine
	pool := machine.NewPool(mc)

	// Fan out (cell, shard) tasks. Partials are slot-indexed; the
	// per-cell merge below runs after every worker is done, so no
	// ordering between workers is observable.
	tasks := make([]shardTask, 0, len(cells)*nShards)
	for c := range cells {
		for s := 0; s < nShards; s++ {
			tasks = append(tasks, shardTask{cell: c, shard: s})
		}
	}
	partials := make([]shardPartial, len(tasks))
	taskErrs := make([]error, len(tasks))
	workers := opt.EffectiveWorkers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	indices := make(chan int)
	var done sync.WaitGroup
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for ti := range indices {
				t := tasks[ti]
				cell := resolved[t.cell]
				shard := shardSets[cell.workload()][t.shard]
				m, err := pool.Get()
				if err == nil {
					var res Result
					res, err = cfg.runOn(m, shard, cell.Plan)
					if err == nil {
						partials[ti].res = res
						if opt.Counters {
							partials[ti].counters = obs.Capture(m.Registry, m.Engine)
						}
					}
					pool.Put(m)
				}
				if err != nil {
					taskErrs[ti] = fmt.Errorf("sweep: cell %d (%s) shard %d: %w",
						t.cell, cell, t.shard, err)
				}
			}
		}()
	}
	for i := range tasks {
		indices <- i
	}
	close(indices)
	done.Wait()

	// Merge per cell in shard order; report progress in cell-index
	// order (the sharded path completes cells all at once, so index
	// order is the natural completion order).
	completed := 0
	for c, cell := range cells {
		base := c * nShards
		var mergeErr error
		for s := 0; s < nShards; s++ {
			if err := taskErrs[base+s]; err != nil {
				mergeErr = err
				break
			}
		}
		cr := CellResult{
			Index:       c,
			Cell:        cell,
			Selectivity: sels[c],
			Routing:     routings[c],
			Shards:      nShards,
		}
		if mergeErr == nil {
			merged := Result{Plan: resolved[c].Plan}
			var ctr *obs.Counters
			for s := 0; s < nShards; s++ {
				p := partials[base+s]
				if p.res.Cycles > merged.Cycles {
					merged.Cycles = p.res.Cycles
				}
				addBreakdown(&merged.Energy, p.res.Energy)
				merged.Checked += p.res.Checked
				merged.Squashed += p.res.Squashed
				merged.SquashedDRAMBytes += p.res.SquashedDRAMBytes
				if len(p.res.Groups) > 0 {
					if merged.Groups == nil {
						merged.Groups = append([]db.GroupAgg(nil), p.res.Groups...)
					} else {
						for g := range merged.Groups {
							merged.Groups[g].Add(p.res.Groups[g])
						}
					}
				}
				if p.counters != nil {
					if ctr == nil {
						ctr = p.counters.Clone()
					} else {
						ctr.Add(p.counters)
					}
				}
			}
			cr.Result = merged
			cr.Counters = ctr
			rs.Cells[c] = cr
		} else if errs[c] == nil {
			errs[c] = mergeErr
		}
		if opt.OnCell != nil {
			completed++
			if mergeErr != nil {
				cr = CellResult{Index: c, Cell: cell, Selectivity: sels[c], Shards: nShards}
			}
			opt.OnCell(completed, len(cells), cr)
		}
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rs.computeSpeedups()
	return rs, nil
}
