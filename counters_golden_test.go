package hipe_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	hipe "github.com/hipe-sim/hipe"
)

// The counter golden pins every simulated output a timing-substrate
// change could move: for each Figure 3 cell and each Q01 best plan it
// records the full Result and the run's complete machine-counter
// snapshot — every registry counter, including retry and stall
// counters that no figure table shows, plus the event engine's
// scheduler accounting. A change that claims to leave the model alone
// (a scheduler or hot-path optimisation) must pass it unchanged.
// Regenerate with
//
//	go test . -run TestCounterGolden -update
//
// only for a change that is meant to alter the model.
var update = flag.Bool("update", false, "rewrite testdata/counters_golden.json from the current simulator")

const (
	goldenFigureTuples = 4096
	goldenQ01Tuples    = 16384
	goldenSeed         = 1
	goldenNoiseDays    = 10
)

// goldenRun is one pinned run.
type goldenRun struct {
	Run      string
	Result   hipe.Result
	Counters *hipe.Counters
}

// goldenRuns simulates the pinned set: every cell of the four figure
// panels, then the Q01 best plan of each backend on the uniform and
// the date-clustered table. Q01 results come from the one-shot
// hipe.Run; their counters come from the same cell run through the
// sweep engine, whose Result must agree with hipe.Run's exactly. With
// reverse set, the Q01 runs go first and the panels run last to first;
// the returned runs are in the same order either way.
func goldenRuns(t *testing.T, reverse bool) []goldenRun {
	t.Helper()
	cfg := hipe.Default()
	cfg.Tuples, cfg.Seed = goldenFigureTuples, goldenSeed
	var steps []func() []goldenRun
	for _, name := range hipe.Figures() {
		steps = append(steps, func() []goldenRun { return goldenPanel(t, cfg, name) })
	}
	steps = append(steps, func() []goldenRun { return goldenQ01(t, reverse) })
	parts := make([][]goldenRun, len(steps))
	for k := range steps {
		if reverse {
			k = len(steps) - 1 - k
		}
		parts[k] = steps[k]()
	}
	return slices.Concat(parts...)
}

// goldenPanel runs one figure panel's cells with counters.
func goldenPanel(t *testing.T, cfg hipe.Config, name string) []goldenRun {
	t.Helper()
	cells, err := hipe.FigureCells(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := hipe.SweepCells(cfg, cells, hipe.SweepOptions{Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	var runs []goldenRun
	for _, c := range rs.Cells {
		runs = append(runs, goldenRun{
			Run:      fmt.Sprintf("fig%s %s", name, c.Cell),
			Result:   c.Result,
			Counters: c.Counters,
		})
	}
	return runs
}

// goldenQ01 runs the Q01 best plans through the sweep engine and
// hipe.Run; with reverse set, the hipe.Run calls go last to first.
func goldenQ01(t *testing.T, reverse bool) []goldenRun {
	t.Helper()
	qcfg := hipe.Default()
	qcfg.Tuples, qcfg.Seed = goldenQ01Tuples, goldenSeed
	pred := hipe.DefaultQ01()
	var cells []hipe.Cell
	for _, clustered := range []bool{false, true} {
		for _, a := range []hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE} {
			c := hipe.Cell{Plan: hipe.ServeQ1Plan(a, pred), Tuples: goldenQ01Tuples, Seed: goldenSeed}
			if clustered {
				c.Clustered, c.NoiseDays = true, goldenNoiseDays
			}
			cells = append(cells, c)
		}
	}
	rs, err := hipe.SweepCells(qcfg, cells, hipe.SweepOptions{Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	tabs := map[bool]*hipe.Lineitem{
		false: hipe.Generate(goldenQ01Tuples, goldenSeed),
		true:  hipe.GenerateClustered(goldenQ01Tuples, goldenSeed, goldenNoiseDays),
	}
	runs := make([]goldenRun, len(rs.Cells))
	for k := range rs.Cells {
		if reverse {
			k = len(rs.Cells) - 1 - k
		}
		c := rs.Cells[k]
		r, err := hipe.Run(qcfg, tabs[c.Cell.Clustered], c.Cell.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, c.Result) {
			t.Errorf("%s: hipe.Run result differs from the sweep engine's:\n run   %+v\n sweep %+v", c.Cell, r, c.Result)
		}
		runs[k] = goldenRun{Run: "q01 " + c.Cell.String(), Result: r, Counters: c.Counters}
	}
	return runs
}

// encodeGolden writes one run per line, so a diff names the run.
func encodeGolden(runs []goldenRun) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range runs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		if i < len(runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

func TestCounterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every figure cell")
	}
	path := filepath.Join("testdata", "counters_golden.json")
	runs := goldenRuns(t, false)
	if *update {
		got, err := encodeGolden(runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGolden(t, path, runs)
}

// TestCounterGoldenOnReusedMachines runs the pinned set twice in one
// process, the second time in reverse order, so that figure and Q01
// runs draw machines that other configurations' runs left in the
// machine pool in another order. Both passes must equal the golden.
func TestCounterGoldenOnReusedMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every figure cell twice")
	}
	path := filepath.Join("testdata", "counters_golden.json")
	for _, reverse := range []bool{false, true} {
		t.Run(fmt.Sprintf("reverse=%v", reverse), func(t *testing.T) {
			checkGolden(t, path, goldenRuns(t, reverse))
		})
	}
}

// checkGolden compares runs with the golden file at path.
func checkGolden(t *testing.T, path string, runs []goldenRun) {
	t.Helper()
	got, err := encodeGolden(runs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var golden []goldenRun
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if len(golden) != len(runs) {
		t.Fatalf("%d runs, golden has %d", len(runs), len(golden))
	}
	for i, r := range runs {
		g := golden[i]
		if r.Run != g.Run {
			t.Errorf("run %d is %q, golden %q", i, r.Run, g.Run)
			continue
		}
		rj, _ := json.Marshal(r.Result)
		gj, _ := json.Marshal(g.Result)
		if !bytes.Equal(rj, gj) {
			t.Errorf("%s: result\n got  %s\n want %s", r.Run, rj, gj)
		}
		for _, e := range g.Counters.Entries() {
			if v, _ := r.Counters.Get(e.Key); v != e.Value {
				t.Errorf("%s: %s = %d, golden %d", r.Run, e.Key, v, e.Value)
			}
		}
		for _, k := range r.Counters.Keys() {
			if _, ok := g.Counters.Get(k); !ok {
				t.Errorf("%s: counter %s missing from the golden", r.Run, k)
			}
		}
	}
}
