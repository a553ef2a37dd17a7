package hipe_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	hipe "github.com/hipe-sim/hipe"
)

// The serve export golden pins every hipe-serve export a refactor of
// the serving layer could move: for each configuration the
// determinism and planner scripts run (plus a traced cluster run in
// each load discipline) it renders the report CSV and JSON and, for
// traced runs, the Chrome trace and span CSV, and compares the bytes
// against testdata/serve_golden. The scripts compare worker counts
// against each other; this golden compares a change against the code
// that generated it. Regenerate with
//
//	go test . -run TestServeExportGolden -update
//
// only for a change that is meant to alter a serve export.

// The scripts' shared serving flags: -shards 4 -requests 24
// -tuples 4096 at the CLI's default seeds, open loop at -qps 250000.
const (
	serveGoldenShards   = 4
	serveGoldenRequests = 24
	serveGoldenTuples   = 4096
	serveGoldenSeed     = 42
	serveGoldenStream   = 1
	serveGoldenMean     = 8_000 // 2 GHz / 250000 QPS
	// serveGoldenArrival is hipe-serve's arrival seed: the stream seed
	// decorrelated from the request draws.
	serveGoldenArrival = serveGoldenStream ^ 0xA5A5_5A5A_0F0F_F0F0
)

// serveGoldenCase is one hipe-serve invocation expressed through the
// library API, field for flag.
type serveGoldenCase struct {
	name      string
	archs     []hipe.Arch
	pools     []hipe.Arch // nil: a single-replica Cluster
	q1Every   int
	aggregate bool
	clustered bool
	// open selects -mode open at the shared rate; otherwise closed loop
	// with concurrency clients (hipe-serve's default is 4).
	open        bool
	concurrency int
	arrivals    *hipe.TraceSpec // -trace knobs, Mean filled in
	classes     []hipe.ClassSpec
	shed        bool
	// timeout and hedge apply to every class, as the CLI flags do.
	timeout, hedge uint64
	faults         *hipe.FaultSpec
	recovery       *hipe.RecoverySpec
	adaptive       *hipe.AdaptiveSpec
	estimate       bool
	counters       bool
	trace          bool
}

var (
	fourArchs   = []hipe.Arch{hipe.X86, hipe.HMC, hipe.HIVE, hipe.HIPE}
	autoOnly    = []hipe.Arch{hipe.ArchAuto}
	hipeAndX86  = []hipe.Arch{hipe.HIPE, hipe.X86}
	shedClasses = []hipe.ClassSpec{
		{Name: "batch", SLOCycles: 800_000, PatienceCycles: 200_000},
		{Name: "rt", SLOCycles: 400_000},
	}
)

var serveGoldenCases = []serveGoldenCase{
	// scripts/determinism.sh
	{name: "serve", archs: fourArchs, q1Every: 3},
	{name: "fleet", archs: autoOnly, pools: []hipe.Arch{hipe.HIPE, hipe.HIPE, hipe.X86, hipe.HMC},
		q1Every: 3, open: true, classes: shedClasses, shed: true},
	{name: "trace", archs: autoOnly, pools: hipeAndX86, open: true,
		arrivals: &hipe.TraceSpec{DiurnalPeriod: 80_000, DiurnalAmp: 0.6,
			BurstFactor: 4, BurstOn: 10_000, BurstOff: 30_000},
		classes: []hipe.ClassSpec{
			{Name: "batch", SLOCycles: 600_000, PatienceCycles: 120_000},
			{Name: "rt", SLOCycles: 300_000},
		}, shed: true},
	{name: "obs", archs: autoOnly, pools: hipeAndX86, open: true, counters: true, trace: true},
	{name: "faulted", archs: autoOnly, pools: []hipe.Arch{hipe.HIPE, hipe.HIPE, hipe.X86},
		q1Every: 3, open: true, classes: shedClasses, shed: true,
		timeout: 800_000, hedge: 300_000,
		faults: &hipe.FaultSpec{
			Seed:       7,
			CrashEvery: 1_000_000, CrashDown: 300_000,
			StraggleEvery: 600_000, StraggleFor: 200_000, StraggleFactor: 3,
			StallEvery: 800_000, StallFor: 40_000, StallMax: 120_000,
			Crashes: []hipe.FaultCrash{{Pool: 1, At: 80_000, Down: 240_000}},
		},
		recovery: &hipe.RecoverySpec{MaxRetries: 2, BackoffCycles: 10_000,
			BackoffCapCycles: 80_000, Hedge: true, Failover: true},
		counters: true, trace: true},
	{name: "adaptive", archs: autoOnly, pools: hipeAndX86, q1Every: 3, open: true,
		adaptive: &hipe.AdaptiveSpec{HalfLife: 4, ExplorePct: 10, Seed: 11}},
	{name: "estserve", archs: autoOnly, q1Every: 3, estimate: true},
	// scripts/determinism.sh: the traced cluster block.
	{name: "cluster-obs", archs: []hipe.Arch{hipe.X86, hipe.HIPE, hipe.ArchAuto}, q1Every: 3,
		open: true, counters: true, trace: true},
	// scripts/planner.sh
	{name: "planner", archs: autoOnly, q1Every: 3, clustered: true},
	// A traced closed-loop cluster: client reuse on the trace tracks.
	{name: "cluster-closed", archs: []hipe.Arch{hipe.ArchAuto, hipe.HIPE, hipe.X86},
		aggregate: true, concurrency: 3, counters: true, trace: true},
}

// run builds the case's table, cluster or fleet, stream and spec the
// way hipe-serve does and returns the report.
func (gc serveGoldenCase) run(t *testing.T) *hipe.LoadReport {
	t.Helper()
	cfg := hipe.Default()
	cfg.Tuples, cfg.Seed = serveGoldenTuples, serveGoldenSeed
	tab := hipe.Generate(cfg.Tuples, cfg.Seed)
	if gc.clustered {
		tab = hipe.GenerateClustered(cfg.Tuples, cfg.Seed, 10)
	}
	classes := append([]hipe.ClassSpec(nil), gc.classes...)
	reqs, err := hipe.StreamSpec{
		N: serveGoldenRequests, Seed: serveGoldenStream, Archs: gc.archs,
		Aggregate: gc.aggregate, Q1Every: gc.q1Every, Q1Query: hipe.DefaultQ01(),
		Classes: len(classes),
	}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	var spec hipe.LoadSpec
	switch {
	case gc.arrivals != nil:
		a := *gc.arrivals
		a.Mean = serveGoldenMean
		spec = hipe.TraceLoop(reqs, a, 0, serveGoldenArrival)
	case gc.open:
		spec = hipe.OpenLoop(reqs, serveGoldenMean, 0, serveGoldenArrival)
	default:
		conc := gc.concurrency
		if conc == 0 {
			conc = 4
		}
		spec = hipe.ClosedLoop(reqs, conc)
	}
	spec.Classes, spec.Shed = classes, gc.shed
	if gc.timeout > 0 || gc.hedge > 0 {
		if len(spec.Classes) == 0 {
			spec.Classes = []hipe.ClassSpec{{Name: "default"}}
		}
		for i := range spec.Classes {
			spec.Classes[i].TimeoutCycles, spec.Classes[i].HedgeCycles = gc.timeout, gc.hedge
		}
	}
	spec.Faults, spec.Recovery, spec.Adaptive = gc.faults, gc.recovery, gc.adaptive
	opt := hipe.ServeOptions{Workers: 2, Counters: gc.counters, Trace: gc.trace}
	if gc.estimate {
		opt.Exec = hipe.ExecEstimate
	}
	var r *hipe.LoadReport
	if gc.pools != nil {
		f, err := hipe.ServeFleet(cfg, tab, serveGoldenShards, gc.pools)
		if err == nil {
			r, err = f.LoadTest(spec, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	c, err := hipe.Serve(cfg, tab, serveGoldenShards)
	if err == nil {
		r, err = hipe.LoadTest(c, spec, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestServeExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every scripted hipe-serve configuration")
	}
	dir := filepath.Join("testdata", "serve_golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, gc := range serveGoldenCases {
		t.Run(gc.name, func(t *testing.T) {
			r := gc.run(t)
			exports := map[string]func(io.Writer) error{
				".csv":  r.WriteCSV,
				".json": r.WriteJSON,
			}
			if gc.trace {
				exports[".trace.json"] = r.WriteChromeTrace
				exports[".spans.csv"] = r.WriteSpanCSV
			}
			for ext, write := range exports {
				var got bytes.Buffer
				if err := write(&got); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, gc.name+ext)
				if *update {
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s differs from the golden: %s", path, firstDiff(got.Bytes(), want))
				}
			}
		})
	}
}

// firstDiff names the first differing line of two exports.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, golden %d", len(g), len(w))
}
