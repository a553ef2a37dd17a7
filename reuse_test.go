package hipe_test

import (
	"reflect"
	"sync"
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

// TestConcurrentRunsMatchSerial has 8 goroutines call hipe.Run over
// mixed table sizes and plans at once, each in its own order, so that
// machines pass between goroutines and configurations through the
// machine pool. Every result must equal the serial run's.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type job struct {
		tab  *hipe.Lineitem
		plan hipe.Plan
	}
	var jobs []job
	for _, n := range []int{1024, 8192} {
		tab := hipe.Generate(n, 3)
		for _, a := range []hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE} {
			jobs = append(jobs, job{tab, hipe.ServePlan(a, hipe.DefaultQ06())},
				job{tab, hipe.ServeQ1Plan(a, hipe.DefaultQ01())})
		}
	}
	cfg := hipe.Default()
	serial := make([]hipe.Result, len(jobs))
	for i, j := range jobs {
		r, err := hipe.Run(cfg, j.tab, j.plan)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}

	const goroutines = 8
	got := make([][]hipe.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]hipe.Result, len(jobs))
			for k := range jobs {
				i := (k + 3*g) % len(jobs)
				r, err := hipe.Run(cfg, jobs[i].tab, jobs[i].plan)
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = r
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, r := range got[g] {
			if !reflect.DeepEqual(r, serial[i]) {
				t.Errorf("goroutine %d, %s over %d rows: %+v, serial %+v",
					g, jobs[i].plan, jobs[i].tab.N, r, serial[i])
			}
		}
	}
}
