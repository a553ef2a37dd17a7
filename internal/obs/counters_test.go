package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// buildRegistry assembles a registry with the per-instance scope shapes
// the machine uses: numbered vaults and links plus flat component
// scopes.
func buildRegistry() *stats.Registry {
	reg := stats.NewRegistry()
	reg.Scope("dram.vault00").Counter("reads").Add(3)
	reg.Scope("dram.vault01").Counter("reads").Add(4)
	reg.Scope("link0").Counter("req_packets").Add(10)
	reg.Scope("link3").Counter("req_packets").Add(5)
	reg.Scope("l1d").Counter("read_hits").Add(100)
	reg.Scope("hipe").Counter("squashed").Add(7)
	return reg
}

func TestCaptureCollapsesInstanceScopes(t *testing.T) {
	reg := buildRegistry()
	eng := sim.NewEngine()
	eng.Schedule(0, func() {})
	eng.Schedule(1000, func() {}) // heap lane
	eng.Run()

	c := Capture(reg, eng)
	want := map[string]uint64{
		"dram.reads":              7,
		"link.req_packets":        15,
		"l1d.read_hits":           100,
		"hipe.squashed":           7,
		"engine.events_scheduled": 2,
		"engine.events_executed":  2,
		"engine.ring_lane_events": 1,
		"engine.heap_lane_events": 1,
	}
	if c.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d\n%s", c.Len(), len(want), c)
	}
	for k, v := range want {
		got, ok := c.Get(k)
		if !ok || got != v {
			t.Errorf("Get(%q) = %d, %v; want %d", k, got, ok, v)
		}
	}
	// Keys come out sorted.
	keys := c.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not strictly sorted: %v", keys)
		}
	}
	// The snapshot is a copy: resetting the registry and the engine, as
	// returning a machine with machine.Put does, leaves it unchanged.
	reg.Reset()
	eng.Reset()
	for k, v := range want {
		if got, _ := c.Get(k); got != v {
			t.Errorf("after reset, Get(%q) = %d; want %d", k, got, v)
		}
	}
}

func TestCollapseScope(t *testing.T) {
	cases := map[string]string{
		"dram.vault00": "dram",
		"dram.vault31": "dram",
		"link0":        "link",
		"link12":       "link",
		"linkage":      "linkage", // non-numeric suffix stays
		"link":         "link",
		"l1d":          "l1d",
		"cpu0":         "cpu0",
	}
	for in, want := range cases {
		if got := collapseScope(in); got != want {
			t.Errorf("collapseScope(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCountersAddMergesKeywise(t *testing.T) {
	a := fromMap(map[string]uint64{"x.a": 1, "x.b": 2})
	b := fromMap(map[string]uint64{"x.b": 3, "x.c": 4})
	a.Add(b)
	for k, v := range map[string]uint64{"x.a": 1, "x.b": 5, "x.c": 4} {
		if got, _ := a.Get(k); got != v {
			t.Errorf("after Add, %q = %d, want %d", k, got, v)
		}
	}
	if got, _ := b.Get("x.b"); got != 3 {
		t.Errorf("Add mutated its argument: x.b = %d", got)
	}
	// Nil and empty arguments are no-ops.
	before := a.String()
	a.Add(nil)
	a.Add(&Counters{})
	if a.String() != before {
		t.Error("Add(nil/empty) changed the snapshot")
	}
}

func TestCountersJSONRoundTripAndOrder(t *testing.T) {
	c := fromMap(map[string]uint64{"b.z": 2, "a.y": 1, "c.x": 3})
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a.y":1,"b.z":2,"c.x":3}`
	if string(data) != want {
		t.Fatalf("MarshalJSON = %s, want %s", data, want)
	}
	var back Counters
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != c.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back.String(), c.String())
	}
}

func TestCountersCSVAndString(t *testing.T) {
	c := fromMap(map[string]uint64{"b": 2, "a": 1})
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "counter,value\na,1\nb,2\n" {
		t.Fatalf("WriteCSV = %q", got)
	}
	if !strings.Contains(c.String(), "a") || !strings.Contains(c.String(), "2") {
		t.Fatalf("String() = %q", c.String())
	}
	// Nil snapshot: empty everything, no panics.
	var nilC *Counters
	if nilC.Len() != 0 || nilC.Keys() != nil || nilC.String() != "" || nilC.Clone() != nil {
		t.Error("nil Counters not inert")
	}
	if _, ok := nilC.Get("a"); ok {
		t.Error("nil Counters Get reported a key")
	}
	buf.Reset()
	if err := nilC.WriteCSV(&buf); err != nil || buf.String() != "counter,value\n" {
		t.Errorf("nil WriteCSV = %q, %v", buf.String(), err)
	}
}

func TestCaptureDeterministic(t *testing.T) {
	a := Capture(buildRegistry(), nil)
	b := Capture(buildRegistry(), nil)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("captures differ:\n%s\n%s", ja, jb)
	}
}
