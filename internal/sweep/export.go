// Exporters: CSV for spreadsheets/plotting toolchains, JSON for
// programmatic consumers. Both emit cells in index order with
// deterministic number formatting, so a sweep's export is byte-stable
// across runs and worker counts.
package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

// CSVHeader is the column layout of WriteCSV, one column per cell axis
// and per reported metric. Result sets containing auto-arch cells
// append RoutingCSVHeader's routing-decision columns; fixed-arch
// exports carry none.
var CSVHeader = []string{
	"index", "arch", "strategy", "opsize_b", "unroll", "fused", "aggregate",
	"tuples", "seed", "clustered", "noise_days",
	"ship_lo", "ship_hi", "disc_lo", "disc_hi", "qty_hi", "selectivity",
	"cycles", "cycles_per_tuple", "speedup",
	"dram_pj", "total_pj", "squashed", "squashed_dram_bytes", "checked",
}

// RoutingCSVHeader returns the columns appended for sweeps with
// auto-arch cells: the backend the planner chose and its estimated
// cycles (the arch column keeps "auto", so the routing is auditable
// against the estimate and the measured cycles side by side).
func RoutingCSVHeader() []string { return []string{"routed_arch", "est_cycles"} }

// HasRouting reports whether any cell in the set was routed by the
// adaptive planner.
func (rs *ResultSet) HasRouting() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Routing != nil {
			return true
		}
	}
	return false
}

// HasModes reports whether any cell ran in a non-default execution
// mode (estimate): only then does the CSV carry an exec_mode column.
func (rs *ResultSet) HasModes() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Mode != ExecExact {
			return true
		}
	}
	return false
}

// HasSharding reports whether any cell ran as a parallel shard
// simulation (Options.CellShards > 1): only then does the CSV carry a
// shards column.
func (rs *ResultSet) HasSharding() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Shards > 0 {
			return true
		}
	}
	return false
}

// HasCounters reports whether any cell carries a machine-counter
// snapshot (sweeps run with Options.Counters).
func (rs *ResultSet) HasCounters() bool {
	for i := range rs.Cells {
		if rs.Cells[i].Counters.Len() > 0 {
			return true
		}
	}
	return false
}

// counterKeys returns the sorted union of every cell's counter keys —
// the "ctr_<key>" column set. Snapshot keys are already sorted, so the
// union is a sorted merge.
func (rs *ResultSet) counterKeys() []string {
	var keys []string
	seen := map[string]bool{}
	for i := range rs.Cells {
		for _, k := range rs.Cells[i].Counters.Keys() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes the set as CSV with CSVHeader's columns, plus — in
// this order, each only when active — RoutingCSVHeader's columns for
// auto-arch cells, an exec_mode column for estimate-mode runs, a shards
// column for parallel shard simulations, and one "ctr_<key>" column per
// captured machine counter. A plain exact whole-table counter-off
// export keeps the original schema byte-for-byte.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	routed := rs.HasRouting()
	modes := rs.HasModes()
	sharded := rs.HasSharding()
	var ctrKeys []string
	if rs.HasCounters() {
		ctrKeys = rs.counterKeys()
	}
	header := CSVHeader
	if routed || modes || sharded || len(ctrKeys) > 0 {
		header = append([]string{}, CSVHeader...)
		if routed {
			header = append(header, RoutingCSVHeader()...)
		}
		if modes {
			header = append(header, "exec_mode")
		}
		if sharded {
			header = append(header, "shards")
		}
		for _, k := range ctrKeys {
			header = append(header, "ctr_"+k)
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range rs.Cells {
		p, q, r := c.Cell.Plan, c.Cell.Plan.Q, c.Result
		if p.Kind == query.Q1Agg {
			// Aggregation rows render their filter in the shared date
			// columns, [0, ShipCut] as a half-open range; the discount
			// and quantity bounds read zero, which no Q06 row has — the
			// schema stays fixed, so Q06-only exports are byte-stable.
			q = db.Q06{ShipLo: 0, ShipHi: p.Q1.ShipCut + 1}
		}
		rec := []string{
			strconv.Itoa(c.Index),
			p.Arch.String(),
			p.Strategy.String(),
			strconv.FormatUint(uint64(p.OpSize), 10),
			strconv.Itoa(p.Unroll),
			strconv.FormatBool(p.Fused),
			strconv.FormatBool(p.Aggregate),
			strconv.Itoa(c.Cell.Tuples),
			strconv.FormatUint(c.Cell.Seed, 10),
			strconv.FormatBool(c.Cell.Clustered),
			strconv.FormatInt(int64(c.Cell.NoiseDays), 10),
			strconv.FormatInt(int64(q.ShipLo), 10),
			strconv.FormatInt(int64(q.ShipHi), 10),
			strconv.FormatInt(int64(q.DiscLo), 10),
			strconv.FormatInt(int64(q.DiscHi), 10),
			strconv.FormatInt(int64(q.QtyHi), 10),
			formatFloat(c.Selectivity),
			strconv.FormatUint(r.Cycles, 10),
			formatFloat(float64(r.Cycles) / float64(c.Cell.Tuples)),
			formatFloat(c.Speedup),
			formatFloat(r.Energy.DRAMPJ()),
			formatFloat(r.Energy.TotalPJ()),
			strconv.FormatUint(r.Squashed, 10),
			strconv.FormatUint(r.SquashedDRAMBytes, 10),
			strconv.Itoa(r.Checked),
		}
		if routed {
			if d := c.Routing; d != nil {
				rec = append(rec, d.Chosen.Arch.String(),
					strconv.FormatFloat(d.Estimates[d.ChosenIndex].Cycles, 'f', 0, 64))
			} else {
				rec = append(rec, "", "")
			}
		}
		if modes {
			rec = append(rec, c.Mode.String())
		}
		if sharded {
			rec = append(rec, strconv.Itoa(c.Shards))
		}
		for _, k := range ctrKeys {
			if v, ok := c.Counters.Get(k); ok {
				rec = append(rec, strconv.FormatUint(v, 10))
			} else {
				rec = append(rec, "")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the set as indented JSON: {"cells": [...]}.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadJSON decodes a set previously written by WriteJSON.
func ReadJSON(r io.Reader) (*ResultSet, error) {
	rs := &ResultSet{}
	if err := json.NewDecoder(r).Decode(rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// MarshalJSON emits the cells under a stable "cells" key.
func (rs *ResultSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Cells []CellResult `json:"cells"`
	}{rs.Cells})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (rs *ResultSet) UnmarshalJSON(data []byte) error {
	var v struct {
		Cells []CellResult `json:"cells"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	rs.Cells = v.Cells
	return nil
}
