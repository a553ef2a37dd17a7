package hipe_test

import (
	"testing"

	hipe "github.com/hipe-sim/hipe"
	"github.com/hipe-sim/hipe/internal/db"
)

// TestNarrowEngineInstructionReuse runs every Figure 3 cell and the Q01
// best plans on a machine whose HIVE and HIPE engines issue one
// instruction per cycle. Their in-order queues then hold whole lock
// blocks of posted instructions long after the processor retired the
// µops and reused the storage the instructions were emitted in. An
// engine that read that storage instead of its own copy would execute
// or check the wrong instruction: Verify would fail, a runtime check
// would mismatch, or a cell would check a different number of results
// than at the default width.
func TestNarrowEngineInstructionReuse(t *testing.T) {
	const tuples = 4096
	cfg := hipe.Default()
	cfg.Tuples = tuples
	narrow := cfg
	mc := hipe.DefaultMachine()
	mc.ImageBytes = db.ImageBytesFor(tuples)
	mc.HIVE.Width, mc.HIPE.Width = 1, 1
	narrow.Machine = &mc

	var cells []hipe.Cell
	for _, name := range hipe.Figures() {
		fc, err := hipe.FigureCells(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, fc...)
	}
	for _, clustered := range []bool{false, true} {
		for _, b := range hipe.Backends() {
			cells = append(cells, hipe.Cell{Plan: hipe.ServeQ1Plan(b.Arch(), hipe.DefaultQ01()),
				Tuples: tuples, Seed: cfg.Seed, Clustered: clustered})
		}
	}

	opt := hipe.SweepOptions{Workers: 1}
	def, err := hipe.SweepCells(cfg, cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	// SweepCells verifies every cell: a failed Verify — including any
	// runtime check mismatch — fails the sweep.
	nar, err := hipe.SweepCells(narrow, cells, opt)
	if err != nil {
		t.Fatalf("width-1 engines: %v", err)
	}
	for i, c := range nar.Cells {
		d := def.Cells[i]
		if c.Result.Checked != d.Result.Checked {
			t.Errorf("%s: %d results checked at width 1, %d at the default width",
				c.Cell, c.Result.Checked, d.Result.Checked)
		}
		if c.Result.Cycles <= d.Result.Cycles && usesEngine(c.Cell.Plan.Arch) {
			t.Errorf("%s: %d cycles at width 1, no more than %d at the default width",
				c.Cell, c.Result.Cycles, d.Result.Cycles)
		}
	}
}

func usesEngine(a hipe.Arch) bool { return a == hipe.HIVE || a == hipe.HIPE }
