package hipe_test

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	hipe "github.com/hipe-sim/hipe"
)

// The sweep export golden pins every hipe-sweep export a refactor of
// the sweep engine could move: for each configuration the determinism
// and planner scripts run it renders the CSV and JSON exports through
// the library API and compares the bytes against testdata/sweep_golden.
// The scripts compare worker counts against each other; this golden
// compares a change against the code that generated it, and
// TestSweepCLIMatchesGolden checks that hipe-sweep given the same flags
// writes the same bytes. Regenerate with
//
//	go test . -run TestSweepExportGolden -update
//
// only for a change that is meant to alter a sweep export.

// sweepGoldenCase is one hipe-sweep invocation: its flags, and the
// same grid and options expressed through the library API.
type sweepGoldenCase struct {
	name      string
	args      []string
	archs     []hipe.Arch
	opsizes   []uint32
	unrolls   []int
	q1cut     int32
	exec      hipe.ExecMode
	counters  bool
	cellShard int
}

var sweepGoldenCases = []sweepGoldenCase{
	// scripts/determinism.sh
	{name: "sweep",
		args:  []string{"-archs", "x86,hmc,hive,hipe", "-opsizes", "64,256", "-unrolls", "1,8", "-q1cuts", "2436"},
		archs: []hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE}, opsizes: []uint32{64, 256}, unrolls: []int{1, 8},
		q1cut: 2436},
	{name: "ctrsweep",
		args:  []string{"-archs", "x86,hmc,hive,hipe", "-opsizes", "64,256", "-unrolls", "8", "-q1cuts", "2436", "-counters"},
		archs: []hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE}, opsizes: []uint32{64, 256}, unrolls: []int{8},
		q1cut: 2436, counters: true},
	{name: "estsweep",
		args:  []string{"-exec", "estimate", "-archs", "x86,hmc,hive,hipe,auto", "-opsizes", "64,256", "-unrolls", "1,8", "-q1cuts", "2436"},
		archs: []hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE, hipe.ArchAuto}, opsizes: []uint32{64, 256}, unrolls: []int{1, 8},
		q1cut: 2436, exec: hipe.ExecEstimate},
	{name: "shardsweep",
		args:  []string{"-cell-shards", "4", "-archs", "x86,hipe,auto", "-opsizes", "256", "-unrolls", "8,32", "-q1cuts", "2436", "-counters"},
		archs: []hipe.Arch{hipe.X86, hipe.HIPE, hipe.ArchAuto}, opsizes: []uint32{256}, unrolls: []int{8, 32},
		q1cut: 2436, counters: true, cellShard: 4},
	// scripts/planner.sh
	{name: "planner",
		args:  []string{"-archs", "auto,x86,hmc,hive,hipe", "-opsizes", "64,256", "-unrolls", "8", "-q1cuts", "800"},
		archs: []hipe.Arch{hipe.ArchAuto, hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE}, opsizes: []uint32{64, 256}, unrolls: []int{8},
		q1cut: 800},
}

// The scripts' shared flags: -tuples 4096 at hipe-sweep's defaults for
// every other axis.
const (
	sweepGoldenTuples  = 4096
	sweepGoldenWorkers = 2
)

// run builds the case's grid the way hipe-sweep does and sweeps it.
func (gc sweepGoldenCase) run(t *testing.T) *hipe.ResultSet {
	t.Helper()
	grid := hipe.Grid{
		Archs:       gc.archs,
		Strategies:  []hipe.Strategy{hipe.ColumnAtATime},
		OpSizes:     gc.opsizes,
		Unrolls:     gc.unrolls,
		Fused:       []bool{false},
		Tuples:      []int{sweepGoldenTuples},
		Seeds:       []uint64{42},
		Clustered:   []bool{false},
		NoiseDays:   10,
		SkipInvalid: true,
		Queries:     []hipe.Q06{hipe.DefaultQ06()},
		Q1Queries:   []hipe.Q01{{ShipCut: gc.q1cut}},
	}
	rs, err := hipe.SweepWith(hipe.Default(), grid, hipe.SweepOptions{
		Workers: sweepGoldenWorkers, Counters: gc.counters, Exec: gc.exec, CellShards: gc.cellShard,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func (gc sweepGoldenCase) path(ext string) string {
	return filepath.Join("testdata", "sweep_golden", gc.name+ext)
}

// compareGolden checks got against the golden file at path.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run TestSweepExportGolden with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden: %s", path, firstDiff(got, want))
	}
}

func TestSweepExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every scripted hipe-sweep configuration")
	}
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "sweep_golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, gc := range sweepGoldenCases {
		t.Run(gc.name, func(t *testing.T) {
			rs := gc.run(t)
			for ext, write := range map[string]func(io.Writer) error{".csv": rs.WriteCSV, ".json": rs.WriteJSON} {
				var got bytes.Buffer
				if err := write(&got); err != nil {
					t.Fatal(err)
				}
				if *update {
					if err := os.WriteFile(gc.path(ext), got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				compareGolden(t, gc.path(ext), got.Bytes())
			}
		})
	}
}

// TestSweepCLIMatchesGolden runs hipe-sweep with each golden case's
// flags and compares the files it writes with the golden.
func TestSweepCLIMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hipe-sweep")
	}
	bin := filepath.Join(t.TempDir(), "hipe-sweep")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hipe-sweep").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, gc := range sweepGoldenCases {
		t.Run(gc.name, func(t *testing.T) {
			dir := t.TempDir()
			csv, js := filepath.Join(dir, "out.csv"), filepath.Join(dir, "out.json")
			args := append([]string{"-workers", "2", "-tuples", "4096", "-quiet", "-csv", csv, "-json", js}, gc.args...)
			if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("hipe-sweep %v: %v\n%s", args, err, out)
			}
			for ext, path := range map[string]string{".csv": csv, ".json": js} {
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				compareGolden(t, gc.path(ext), got)
			}
		})
	}
}
