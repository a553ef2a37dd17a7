package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// TestLoadTestCountersRollUp: counters on, the report's total must
// carry the simulator's machine counters, shard partials and responses
// must carry their own snapshots, and the total must equal the sum
// over distinct (plan, shard) runs — never the per-request sum, which
// double-counts plans shared by several requests.
func TestLoadTestCountersRollUp(t *testing.T) {
	c := testCluster(t, 2)
	reqs := testStream(t, 8)
	spec := OpenLoop(reqs, 50_000, 0, 11)
	r, err := c.LoadTest(spec, Options{Workers: 2, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Len() == 0 {
		t.Fatal("counters on but report total empty")
	}
	for _, key := range []string{
		"engine.events_scheduled", "engine.events_executed", "dram.reads",
	} {
		if v, ok := r.Counters.Get(key); !ok || v == 0 {
			t.Errorf("report counters missing %s (= %d, %v)", key, v, ok)
		}
	}
	// The total sums each distinct (plan, shard) simulation once. An
	// 8-request round-robin stream repeats plans, so summing the
	// per-request responses — where shared runs appear once per request
	// — must come out strictly larger than the report total.
	total, _ := r.Counters.Get("engine.events_executed")
	var reqSum uint64
	for _, req := range reqs {
		resp, err := c.Query(req, Options{Workers: 2, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Counters.Len() == 0 {
			t.Fatal("response counters empty with counters on")
		}
		for _, sp := range resp.Shards {
			if sp.Counters.Len() == 0 {
				t.Fatal("shard partial counters empty with counters on")
			}
		}
		v, _ := resp.Counters.Get("engine.events_executed")
		reqSum += v
	}
	if reqSum <= total {
		t.Fatalf("per-request sum %d not larger than distinct-run total %d — dedup suspect", reqSum, total)
	}
	if !strings.Contains(r.Summary(), "machine counters") {
		t.Fatal("Summary missing the counters section")
	}
}

// TestLoadTestCountersOffIsClean: with counters off nothing carries a
// snapshot and exports carry no counter fields.
func TestLoadTestCountersOffIsClean(t *testing.T) {
	c := testCluster(t, 2)
	spec := OpenLoop(testStream(t, 4), 50_000, 0, 11)
	r, err := c.LoadTest(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters != nil || r.Trace != nil {
		t.Fatal("counters/trace present with observability off")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("Counters")) {
		t.Fatal("counter-off JSON mentions Counters")
	}
	if strings.Contains(r.Summary(), "machine counters") {
		t.Fatal("counter-off Summary has a counters section")
	}
	// The span exporters still produce valid (empty) documents.
	buf.Reset()
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("empty Chrome trace invalid")
	}
}

// TestLoadTestTraceSpans: tracing on, both load disciplines emit the
// request span tree — async request spans bracketing shard complete
// spans — and the Chrome export is valid and Perfetto-shaped.
func TestLoadTestTraceSpans(t *testing.T) {
	c := testCluster(t, 2)
	reqs := testStream(t, 6)
	for _, spec := range []LoadSpec{
		OpenLoop(reqs, 50_000, 0, 11),
		ClosedLoop(reqs, 3),
	} {
		r, err := c.LoadTest(spec, Options{Workers: 2, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Trace.Len() == 0 {
			t.Fatalf("%s: tracing on but no spans", spec.Mode)
		}
		var begins, ends, completes int
		for _, s := range r.Trace.Spans() {
			switch s.Phase {
			case obs.PhaseBegin:
				begins++
			case obs.PhaseEnd:
				ends++
			case obs.PhaseComplete:
				completes++
			}
		}
		if begins != len(r.Requests) || ends != begins {
			t.Fatalf("%s: %d begins / %d ends for %d requests", spec.Mode, begins, ends, len(r.Requests))
		}
		if completes != len(r.Requests)*c.Shards() {
			t.Fatalf("%s: %d shard spans, want %d", spec.Mode, completes, len(r.Requests)*c.Shards())
		}
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("%s: Chrome trace invalid JSON", spec.Mode)
		}
		if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
			t.Fatalf("%s: Chrome trace missing traceEvents", spec.Mode)
		}
	}
}

// TestFleetTraceAndCounters: the fleet replay emits routing instants
// with pool picks, shed instants for refused arrivals, and pool-track
// shard spans; counters roll up once per distinct simulation.
func TestFleetTraceAndCounters(t *testing.T) {
	f := testFleet(t, 2, query.HIPE, query.X86)
	reqs, err := StreamSpec{N: 12, Seed: 3, Archs: []query.Arch{ArchAuto}, Classes: 2}.Requests()
	if err != nil {
		t.Fatal(err)
	}
	spec := OpenLoop(reqs, 2_000, 0, 9)
	spec.Classes = []ClassSpec{
		{Name: "batch", PatienceCycles: 1},
		{Name: "interactive", PatienceCycles: 1_000_000_000},
	}
	spec.Shed = true
	r, err := f.LoadTest(spec, Options{Workers: 2, Trace: true, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Len() == 0 {
		t.Fatal("fleet counters empty with counters on")
	}
	var route, shed int
	for _, s := range r.Trace.Spans() {
		switch s.Cat {
		case "routing":
			route++
		case "admission":
			shed++
		}
	}
	if route != len(r.Requests) {
		t.Fatalf("%d routing instants for %d served requests", route, len(r.Requests))
	}
	if shed != r.Shed {
		t.Fatalf("%d shed instants for %d shed requests", shed, r.Shed)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("pool 0 (hipe)")) {
		t.Fatal("Chrome trace missing pool track names")
	}
}

// TestObsExportsDeterministicAcrossWorkerCounts is the tentpole
// acceptance check: counter and span exports are byte-identical at any
// executor worker count, for cluster and fleet load tests.
func TestObsExportsDeterministicAcrossWorkerCounts(t *testing.T) {
	reqs := testStream(t, 8)
	type export struct{ chrome, spans, counters []byte }
	run := func(workers int) (cluster, fleet export) {
		t.Helper()
		c := testCluster(t, 2)
		r, err := c.LoadTest(OpenLoop(reqs, 50_000, 0, 11), Options{Workers: workers, Trace: true, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		var ch, sp bytes.Buffer
		if err := r.WriteChromeTrace(&ch); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteSpanCSV(&sp); err != nil {
			t.Fatal(err)
		}
		ctr, err := json.Marshal(r.Counters)
		if err != nil {
			t.Fatal(err)
		}
		cluster = export{ch.Bytes(), sp.Bytes(), ctr}

		f := testFleet(t, 2, query.HIPE, query.X86)
		autoReqs, err := StreamSpec{N: 8, Seed: 3, Archs: []query.Arch{ArchAuto}}.Requests()
		if err != nil {
			t.Fatal(err)
		}
		fr, err := f.LoadTest(OpenLoop(autoReqs, 20_000, 0, 5), Options{Workers: workers, Trace: true, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		var fch, fsp bytes.Buffer
		if err := fr.WriteChromeTrace(&fch); err != nil {
			t.Fatal(err)
		}
		if err := fr.WriteSpanCSV(&fsp); err != nil {
			t.Fatal(err)
		}
		fctr, err := json.Marshal(fr.Counters)
		if err != nil {
			t.Fatal(err)
		}
		fleet = export{fch.Bytes(), fsp.Bytes(), fctr}
		return cluster, fleet
	}
	c1, f1 := run(1)
	for _, workers := range []int{2, 8} {
		cN, fN := run(workers)
		for _, pair := range [][2][]byte{
			{c1.chrome, cN.chrome}, {c1.spans, cN.spans}, {c1.counters, cN.counters},
			{f1.chrome, fN.chrome}, {f1.spans, fN.spans}, {f1.counters, fN.counters},
		} {
			if !bytes.Equal(pair[0], pair[1]) {
				t.Fatalf("observability export differs between 1 and %d workers", workers)
			}
		}
	}
}
