package machine_test

import (
	"runtime"
	"testing"

	hipe "github.com/hipe-sim/hipe"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
)

// TestRunRetentionBound runs hipe.Run over 50 table sizes, each on a
// machine whose image is the table's footprint rounded up to a 4 KiB
// page, so every run is a distinct configuration. The idle machines
// left behind must stay within the retention bound: GOMAXPROCS machines
// in total.
func TestRunRetentionBound(t *testing.T) {
	const sizes = 50
	plan := hipe.ServePlan(hipe.X86, hipe.DefaultQ06())
	for i := range sizes {
		n := 64 * (i + 1)
		mc := hipe.DefaultMachine()
		mc.ImageBytes = (uint64(n)*3*db.TupleBytes + 64<<10 + 4095) &^ 4095
		cfg := hipe.Default()
		cfg.Machine = &mc
		if _, err := hipe.Run(cfg, hipe.Generate(n, 1), plan); err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		if got := machine.Idle(); got > runtime.GOMAXPROCS(0) {
			t.Fatalf("after %d runs: %d idle machines, bound GOMAXPROCS = %d", i+1, got, runtime.GOMAXPROCS(0))
		}
	}
	if got, want := machine.Idle(), min(sizes, runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("%d idle machines after %d distinct configurations ran, want %d", got, sizes, want)
	}
}
