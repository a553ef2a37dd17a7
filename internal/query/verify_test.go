package query

import (
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
)

// TestVerifyCatchesCorruption is Verify's negative test: for one plan
// of each verification family it runs the plan to a verified result,
// then corrupts one byte of what Verify checks (or zeroes its runtime
// check count) and requires Verify to fail. Every rule Verify applies
// is exercised by at least one case, so dropping any of them fails
// this test.
func TestVerifyCatchesCorruption(t *testing.T) {
	tab := db.GenerateMemo(goldenTuples, 42)
	q6 := func(arch Arch, strat Strategy) Plan {
		return Plan{Arch: arch, Strategy: strat, OpSize: 256, Unroll: 8, Q: db.DefaultQ06()}
	}
	q6agg := q6(HIPE, ColumnAtATime)
	q6agg.Aggregate = true
	flipFinalMask := func(w *Workload) { w.M.Image[w.FinalMask] ^= 0xFF }
	flipAcc := func(w *Workload) { w.M.Image[w.AccRegion] ^= 1 }
	noChecks := func(w *Workload) { w.checked = 0 }
	cases := []struct {
		name    string
		plan    Plan
		corrupt func(w *Workload)
	}{
		{"hive column q6 final bitmask", q6(HIVE, ColumnAtATime), flipFinalMask},
		{"hive fused q6 final bitmask", func() Plan { p := q6(HIVE, ColumnAtATime); p.Fused = true; return p }(), flipFinalMask},
		{"hive column q1 filter bitmask", q1Plan(HIVE, ColumnAtATime, 256, 8), flipFinalMask},
		{"hipe q6 final bitmask", q6(HIPE, ColumnAtATime), flipFinalMask},
		{"hipe q6 aggregate revenue", q6agg, flipAcc},
		{"hive column q1 accumulators", q1Plan(HIVE, ColumnAtATime, 256, 8), flipAcc},
		{"hipe q1 accumulators", q1Plan(HIPE, ColumnAtATime, 256, 8), flipAcc},
		{"hmc tuple q6 no checks", q6(HMC, TupleAtATime), noChecks},
		{"hmc column q6 no checks", q6(HMC, ColumnAtATime), noChecks},
		{"hive tuple q6 no checks", q6(HIVE, TupleAtATime), noChecks},
		{"hmc tuple q1 no checks", q1Plan(HMC, TupleAtATime, 256, 8), noChecks},
		{"hive tuple q1 no checks", q1Plan(HIVE, TupleAtATime, 256, 8), noChecks},
	}
	for _, tc := range cases {
		w, _ := runPlan(t, tab, tc.plan)
		tc.corrupt(w)
		if err := w.Verify(); err == nil {
			t.Errorf("%s (%s): Verify accepted the corrupted run", tc.name, tc.plan)
		}
	}
}

// TestVerifyCatchesRuntimeMismatch inverts an engine plan's expected
// results before the run: every runtime check fails, and Verify must
// report it.
func TestVerifyCatchesRuntimeMismatch(t *testing.T) {
	tab := db.GenerateMemo(goldenTuples, 42)
	for _, p := range []Plan{
		{Arch: HMC, Strategy: ColumnAtATime, OpSize: 256, Unroll: 8, Q: db.DefaultQ06()},
		q1Plan(HIVE, TupleAtATime, 64, 8),
	} {
		m := testMachine(t)
		w, err := Prepare(m, tab, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.want.flat {
			w.want.flat[i] ^= 0xFF
		}
		m.Run(w.Stream())
		if err := w.Verify(); err == nil {
			t.Errorf("%s: Verify accepted a run whose runtime check failed", p)
		}
	}
}
