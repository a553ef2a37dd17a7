package main

import (
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/model.json from the current simulator")

// BENCHMARK.json names exactly the workloads and metrics this program
// runs and prints, in the same order and with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
}

// Every workload's first pass, at the default and the held-out seed,
// reproduces the committed model outputs exactly (a performance or
// simplicity change must leave them untouched; a change to the model
// regenerates them with -update), repeats itself in-process, and is
// reproduced op by op by the traced stage-by-stage replay.
func TestModelOutputsExactAndReplayed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const golden = "testdata/model.json"
	want := map[string]map[string]map[string]float64{}
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]map[string]map[string]float64{}
	for _, name := range sortedKeys(workloads) {
		got[name] = map[string]map[string]float64{}
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			w := workloads[name]()
			if err := w.setup(seed, nil); err != nil {
				t.Fatal(err)
			}
			first, err := w.pass()
			if err != nil {
				t.Fatal(err)
			}
			again, err := w.pass()
			if err != nil {
				t.Fatal(err)
			}
			if first.failed != 0 || again.failed != 0 {
				t.Errorf("%s seed %d: %d and %d failed ops", name, seed, first.failed, again.failed)
			}
			if !equalExact(first.exact, again.exact) {
				t.Errorf("%s seed %d: a repeated pass changed simulated outputs", name, seed)
			}
			tr, err := w.traced(newTracer(), first)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 {
				t.Errorf("%s seed %d: %d of %d traced replays differ from the untraced ops", name, seed, tr.failed, tr.attempted)
			}
			s := strconv.FormatUint(seed, 10)
			got[name][s] = first.model
			if *update {
				continue
			}
			for k, v := range want[name][s] {
				if first.model[k] != v {
					t.Errorf("%s seed %d: %s = %v, committed %v", name, seed, k, first.model[k], v)
				}
			}
			if len(first.model) != len(want[name][s]) {
				t.Errorf("%s seed %d: %d model outputs, committed %d", name, seed, len(first.model), len(want[name][s]))
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Self time is a span's duration minus the part its children cover,
// overlapping children counted once.
func TestSelfTimesAndCoverage(t *testing.T) {
	tr := &tracer{}
	op := tr.add(span{name: "op", parent: -1, start: 0, end: 100})
	run := tr.add(span{name: "machine.run", parent: op, start: 10, end: 90})
	tr.add(span{name: "query.emit", parent: run, start: 10, end: 30})
	tr.add(span{name: "query.emit", parent: run, start: 20, end: 40})
	self := tr.selfTimes()
	if self["op"] != 20 || self["machine.run"] != 50 || self["query.emit"] != 40 {
		t.Fatalf("self times = %v", self)
	}
	if got := tr.minCoverage("op"); got != 0.8 {
		t.Fatalf("coverage = %v, want 0.8", got)
	}
}
