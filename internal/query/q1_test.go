package query

// Verification of the Q01 grouped-aggregation workload family: every
// architecture × layout × operation-size point must produce per-group
// aggregates (engine accumulators for HIVE/HIPE, runtime mask checks
// for the baselines) that match the internal/db reference evaluator —
// Workload.Verify enforces it, these tests sweep the envelope.

import (
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/machine"
)

func q1Plan(arch Arch, strat Strategy, opSize uint32, unroll int) Plan {
	return Plan{Arch: arch, Strategy: strat, OpSize: opSize, Unroll: unroll,
		Kind: Q1Agg, Q1: db.DefaultQ01()}
}

func TestQ1PlanValidation(t *testing.T) {
	good := []Plan{
		q1Plan(X86, TupleAtATime, 64, 8),
		q1Plan(X86, ColumnAtATime, 16, 1),
		q1Plan(HMC, TupleAtATime, 256, 32),
		q1Plan(HMC, ColumnAtATime, 128, 16),
		q1Plan(HIVE, TupleAtATime, 256, 32),
		q1Plan(HIVE, ColumnAtATime, 256, 32),
		q1Plan(HIPE, ColumnAtATime, 256, 32),
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s rejected: %v", p, err)
		}
	}
	bad := []struct {
		name string
		plan Plan
		want string
	}{
		{"hipe tuple", q1Plan(HIPE, TupleAtATime, 256, 1), "column-at-a-time"},
		{"fused q1", func() Plan {
			p := q1Plan(HIVE, ColumnAtATime, 256, 32)
			p.Fused = true
			return p
		}(), "fused"},
		{"aggregate q1", func() Plan {
			p := q1Plan(HIPE, ColumnAtATime, 256, 32)
			p.Aggregate = true
			return p
		}(), "Q06 revenue extension"},
		{"unknown kind", Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 32, Kind: QueryKind(9)}, "unknown query kind"},
	}
	for _, tc := range bad {
		err := tc.plan.Validate()
		if err == nil {
			t.Errorf("%s: %+v accepted", tc.name, tc.plan)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestQ1PlanString(t *testing.T) {
	p := q1Plan(HIPE, ColumnAtATime, 256, 32)
	if got := p.String(); got != "hipe/column-at-a-time/256B/32x/q1" {
		t.Fatalf("plan string = %q", got)
	}
}

func TestQ1DescShape(t *testing.T) {
	d := q1Plan(HIPE, ColumnAtATime, 256, 32).Desc()
	if d.Kind != Q1Agg || !d.Grouped() || d.Groups != db.NumGroups {
		t.Fatalf("Q1 desc = %+v", d)
	}
	if len(d.Stages) != 1 || d.Stages[0].Col != db.FieldShipDate || len(d.Stages[0].Bounds) != 1 {
		t.Fatalf("Q1 stages = %+v", d.Stages)
	}
	d6 := Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()}.Desc()
	if d6.Kind != Q6Select || d6.Grouped() || len(d6.Stages) != 3 {
		t.Fatalf("Q6 desc = %+v", d6)
	}
}

// TestQ1AllArchitecturesVerify sweeps the architectures, both layouts
// and the operation sizes; Verify (called inside runPlan) compares the
// grouped aggregates against the reference evaluator.
func TestQ1AllArchitecturesVerify(t *testing.T) {
	tab := db.Generate(1024, 42)
	plans := []Plan{
		q1Plan(X86, TupleAtATime, 16, 1),
		q1Plan(X86, TupleAtATime, 64, 8),
		q1Plan(X86, ColumnAtATime, 64, 8),
		q1Plan(HMC, TupleAtATime, 64, 4),
		q1Plan(HMC, TupleAtATime, 256, 32),
		q1Plan(HMC, ColumnAtATime, 16, 2),
		q1Plan(HMC, ColumnAtATime, 256, 32),
		q1Plan(HIVE, TupleAtATime, 256, 8),
		q1Plan(HIVE, ColumnAtATime, 16, 2),
		q1Plan(HIVE, ColumnAtATime, 64, 8),
		q1Plan(HIVE, ColumnAtATime, 256, 32),
		q1Plan(HIPE, ColumnAtATime, 16, 2),
		q1Plan(HIPE, ColumnAtATime, 64, 8),
		q1Plan(HIPE, ColumnAtATime, 256, 32),
	}
	for _, p := range plans {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			w, cycles := runPlan(t, tab, p)
			if cycles == 0 {
				t.Fatal("zero cycles")
			}
			if got := w.GroupResults(); len(got) != db.NumGroups {
				t.Fatalf("GroupResults returned %d groups", len(got))
			}
			// The baselines must have cross-checked engine masks.
			if p.Arch == HMC || (p.Arch == HIVE && p.Strategy == TupleAtATime) {
				if w.Checked() == 0 {
					t.Fatal("no runtime checks ran")
				}
			}
		})
	}
}

// TestQ1NonDefaultPredicate moves the cutoff into the middle of the
// date range, changing every group's membership, and re-verifies.
func TestQ1NonDefaultPredicate(t *testing.T) {
	tab := db.Generate(1024, 7)
	q := db.Q01{ShipCut: db.Day19950617} // ~49% selectivity, no open lineitems
	for _, arch := range []Arch{X86, HMC, HIVE, HIPE} {
		p := q1Plan(arch, ColumnAtATime, 256, 8)
		if arch == X86 {
			p.OpSize, p.Unroll = 64, 8
		}
		p.Q1 = q
		runPlan(t, tab, p)
	}
}

// TestQ1ClusteredSquashesLoads pins the energy story: on a
// date-clustered table the chunks past the Q01 cutoff are contiguous,
// so HIPE's predicated key/measure loads squash and skip DRAM reads.
func TestQ1ClusteredSquashesLoads(t *testing.T) {
	// A mid-range cutoff on a date-ordered table leaves roughly half
	// the chunks wholly past the filter — each one squashes its five
	// predicated loads.
	tab := db.GenerateClustered(4096, 42, 0)
	m := testMachine(t)
	p := q1Plan(HIPE, ColumnAtATime, 256, 8)
	p.Q1 = db.Q01{ShipCut: db.Day19950617}
	w, err := Prepare(m, tab, p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(w.Stream())
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if saved := m.Registry.Scope("hipe").Get("squashed_dram_bytes"); saved == 0 {
		t.Fatal("clustered Q01 scan squashed no DRAM reads")
	}
}

func TestQ1OverflowGuard(t *testing.T) {
	// 16 B chunks of a large table exceed the 32-bit accumulator-lane
	// budget on the engine architectures; the envelope check must
	// refuse — both as a plain validation (so sweeps can trim the cell
	// up front) and at Prepare.
	const n = 256 * 1024
	if err := q1Plan(HIPE, ColumnAtATime, 16, 1).ValidateFor(n); err == nil {
		t.Fatal("ValidateFor accepted an overflow-prone cell")
	} else if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("unexpected error: %v", err)
	}
	tab := db.Generate(n, 1)
	m := testMachine(t)
	if _, err := Prepare(m, tab, q1Plan(HIPE, ColumnAtATime, 16, 1)); err == nil {
		t.Fatal("overflow-prone plan accepted")
	} else if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The baselines accumulate in 64-bit processor registers; the same
	// table is fine there.
	if _, err := Prepare(m, tab, q1Plan(HMC, ColumnAtATime, 16, 1)); err != nil {
		t.Fatalf("baseline rejected: %v", err)
	}
}

func TestQ1RequiresZeroingSquash(t *testing.T) {
	// The accumulating HIPE plans feed unpredicated Adds from
	// predicated temporaries; on the paper-literal non-zeroing ablation
	// machine a squash would leak stale data into the accumulators, so
	// Prepare must refuse rather than fail deep in verification.
	cfg := machine.Default()
	cfg.ImageBytes = 8 << 20
	cfg.HIPE.ZeroingSquash = false
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Generate(1024, 42)
	if _, err := Prepare(m, tab, q1Plan(HIPE, ColumnAtATime, 256, 8)); err == nil {
		t.Fatal("Q01 HIPE plan accepted on a non-zeroing-squash machine")
	} else if !strings.Contains(err.Error(), "zeroing-squash") {
		t.Fatalf("unexpected error: %v", err)
	}
	q6agg := Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 8,
		Aggregate: true, Q: db.DefaultQ06()}
	if _, err := Prepare(m, tab, q6agg); err == nil {
		t.Fatal("Q06 Aggregate plan accepted on a non-zeroing-squash machine")
	}
	// Non-accumulating plans remain valid on that machine.
	if _, err := Prepare(m, tab, Plan{Arch: HIPE, Strategy: ColumnAtATime,
		OpSize: 256, Unroll: 8, Q: db.DefaultQ06()}); err != nil {
		t.Fatalf("plain scan rejected: %v", err)
	}
}

// TestQ1HIVEColumnNoSurvivingChunk cuts the Q01 filter below every
// shipdate: no chunk survives HIVE's stage pipeline, yet the grouped
// tail still clears and spills the accumulators (and runs no
// aggregation block), so Verify reads zeros against the empty
// reference.
func TestQ1HIVEColumnNoSurvivingChunk(t *testing.T) {
	tab := db.Generate(1024, 7)
	p := q1Plan(HIVE, ColumnAtATime, 256, 8)
	p.Q1 = db.Q01{ShipCut: 0}
	m := testMachine(t)
	w, err := Prepare(m, tab, p)
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[uint64]int{}
	s := w.Stream()
	for {
		u, ok := s.Next()
		if !ok {
			break
		}
		if u.Offload != nil && u.Offload.Op == isa.Lock {
			blocks[u.PC&^0xFF]++
		}
	}
	if blocks[0xB200] != 1 || blocks[0xB800] != 1 || blocks[0xB400] != 0 {
		t.Fatalf("lock blocks by PC base %v: want one clear (0xb200), one spill (0xb800), no aggregation (0xb400)", blocks)
	}
	runPlan(t, tab, p)
}
