package sweep

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

func shardTestGrid() Grid {
	return Grid{
		Archs:       []query.Arch{query.X86, query.HIPE, query.ArchAuto},
		Queries:     []db.Q06{q6WithQty(10), q6WithQty(24)},
		Q1Queries:   nil,
		Tuples:      []int{4096},
		Clustered:   []bool{false, true},
		SkipInvalid: true,
	}
}

// TestShardedMergeInvariants checks the sharded path against the
// whole-table path on the fields the merge contract fixes: the same
// resolved plan and routing, cycles equal to the critical path over an
// independent per-shard replay, verification counts summing to the
// whole table, and Q1 group tables recomposing to the unsharded
// reference.
func TestShardedMergeInvariants(t *testing.T) {
	const nShards = 4
	cfg := Config{Tuples: 4096, Seed: 42}
	g := shardTestGrid()
	g.Q1Queries = []db.Q01{q1WithCut(1278)}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := RunCells(cfg, cells, Options{})
	if err != nil {
		t.Fatalf("whole-table: %v", err)
	}
	sharded, err := RunCells(cfg, cells, Options{CellShards: nShards})
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	for i, cell := range cells {
		w, s := whole.Cells[i], sharded.Cells[i]
		if s.Shards != nShards {
			t.Fatalf("cell %d: Shards = %d, want %d", i, s.Shards, nShards)
		}
		if w.Shards != 0 {
			t.Fatalf("cell %d: whole-table run recorded Shards = %d", i, w.Shards)
		}
		if s.Result.Plan != w.Result.Plan {
			t.Errorf("cell %d (%s): sharded resolved %s, whole-table %s",
				i, cell, s.Result.Plan, w.Result.Plan)
		}
		if (s.Routing == nil) != (w.Routing == nil) {
			t.Errorf("cell %d: routing presence differs", i)
		}
		if s.Routing != nil && s.Routing.Chosen != w.Routing.Chosen {
			t.Errorf("cell %d: sharded routed %s, whole-table %s",
				i, s.Routing.Chosen, w.Routing.Chosen)
		}
		if s.Result.Checked != w.Result.Checked {
			t.Errorf("cell %d (%s): sharded checked %d rows, whole-table %d",
				i, cell, s.Result.Checked, w.Result.Checked)
		}
		// Replay each shard independently and recompute the critical
		// path — the merged cycle figure must be exactly max over
		// shards, and Q1 groups the exact recomposition.
		var tab *db.Table
		if cell.Clustered {
			tab = db.GenerateClusteredMemo(cell.Tuples, cell.Seed, cell.NoiseDays)
		} else {
			tab = db.GenerateMemo(cell.Tuples, cell.Seed)
		}
		shards, err := db.Partition(tab, nShards)
		if err != nil {
			t.Fatal(err)
		}
		var critical uint64
		for _, shard := range shards {
			res, err := cfg.Run(shard, s.Result.Plan)
			if err != nil {
				t.Fatalf("cell %d shard replay: %v", i, err)
			}
			if res.Cycles > critical {
				critical = res.Cycles
			}
		}
		if s.Result.Cycles != critical {
			t.Errorf("cell %d (%s): merged cycles %d, independent critical path %d",
				i, cell, s.Result.Cycles, critical)
		}
		if cell.Plan.Kind == query.Q1Agg {
			ref := db.ReferenceQ1(tab, cell.Plan.Q1)
			if len(s.Result.Groups) != db.NumGroups {
				t.Fatalf("cell %d: merged %d groups, want %d", i, len(s.Result.Groups), db.NumGroups)
			}
			for gi := range s.Result.Groups {
				if s.Result.Groups[gi] != ref.Groups[gi] {
					t.Errorf("cell %d group %d: merged %+v, reference %+v",
						i, gi, s.Result.Groups[gi], ref.Groups[gi])
				}
			}
		}
	}
}

// TestShardedDeterminism pins worker-count independence of the parallel
// shard path: byte-identical CSV and JSON at any worker count.
func TestShardedDeterminism(t *testing.T) {
	cfg := Config{Tuples: 4096, Seed: 42}
	cells, err := shardTestGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var exports [2]struct{ csv, json bytes.Buffer }
	for i, workers := range []int{1, 7} {
		rs, err := RunCells(cfg, cells, Options{CellShards: 4, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := rs.WriteCSV(&exports[i].csv); err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteJSON(&exports[i].json); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(exports[0].csv.Bytes(), exports[1].csv.Bytes()) {
		t.Error("sharded CSV differs across worker counts")
	}
	if !bytes.Equal(exports[0].json.Bytes(), exports[1].json.Bytes()) {
		t.Error("sharded JSON differs across worker counts")
	}
}

// TestShardedCSVColumns pins the conditional schema: sharded exports
// carry the shards column; whole-table exports do not.
func TestShardedCSVColumns(t *testing.T) {
	cfg := Config{Tuples: 1024, Seed: 42}
	cells := []Cell{{
		Plan: query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime,
			OpSize: 256, Unroll: 32, Q: db.DefaultQ06()},
		Tuples: 1024, Seed: 42,
	}}
	for _, tc := range []struct {
		name string
		opt  Options
		want bool
	}{
		{"sharded", Options{CellShards: 4}, true},
		{"whole", Options{}, false},
	} {
		rs, err := RunCells(cfg, cells, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := rs.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		header := strings.SplitN(buf.String(), "\n", 2)[0]
		if got := strings.Contains(header, "shards"); got != tc.want {
			t.Errorf("%s: shards column present = %v, want %v (header %q)",
				tc.name, got, tc.want, header)
		}
	}
}

// TestShardedCounters checks that counter capture composes with the
// sharded path: the merged snapshot is the shard snapshots summed, so
// traffic totals match the whole-table run's within DRAM row-boundary
// effects — here pinned exactly for the deterministic squash counters.
func TestShardedCounters(t *testing.T) {
	cfg := Config{Tuples: 4096, Seed: 42}
	cells := []Cell{{
		Plan: query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime,
			OpSize: 256, Unroll: 32, Q: db.DefaultQ06()},
		Tuples: 4096, Seed: 42, Clustered: true,
	}}
	rs, err := RunCells(cfg, cells, Options{CellShards: 4, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	c := rs.Cells[0]
	if c.Counters.Len() == 0 {
		t.Fatal("sharded run with Counters captured nothing")
	}
	if v, ok := c.Counters.Get("hipe.squashed"); !ok || v != c.Result.Squashed {
		t.Errorf("merged counter hipe.squashed = %d (ok=%v), Result.Squashed = %d",
			v, ok, c.Result.Squashed)
	}
}

// TestMergeFoldsIntoFirstShard pins the merge contract directly: a
// one-shard cell's Result and counters are its shard's own, not
// copies, and several shards fold into the first in shard order —
// cycles as the critical path, totals, groups and counters summed.
func TestMergeFoldsIntoFirstShard(t *testing.T) {
	first := partial{
		res:      Result{Cycles: 7, Checked: 1, Groups: []db.GroupAgg{{Count: 1}}},
		counters: obs.NewCounters(map[string]uint64{"a": 1}),
	}
	res, ctr := merge([]partial{first})
	if &res.Groups[0] != &first.res.Groups[0] || ctr != first.counters {
		t.Fatal("one-shard merge copied its shard's outcome")
	}
	second := partial{
		res:      Result{Cycles: 9, Checked: 2, Squashed: 5, Groups: []db.GroupAgg{{Count: 3}}},
		counters: obs.NewCounters(map[string]uint64{"a": 2, "b": 4}),
	}
	res, ctr = merge([]partial{first, second})
	if res.Cycles != 9 || res.Checked != 3 || res.Squashed != 5 || res.Groups[0].Count != 4 {
		t.Fatalf("merged result %+v", res)
	}
	if a, _ := ctr.Get("a"); a != 3 {
		t.Fatalf("merged counter a = %d, want 3", a)
	}
	if b, _ := ctr.Get("b"); b != 4 {
		t.Fatalf("merged counter b = %d, want 4", b)
	}
}
