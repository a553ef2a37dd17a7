package machine

import (
	"runtime"
	"testing"
)

// smallConfig is the Table I machine with an image of mib MiB, a
// configuration no other test in this package draws.
func smallConfig(mib uint64) Config {
	cfg := Default()
	cfg.ImageBytes = mib << 20
	return cfg
}

func TestPoolRecyclesMachines(t *testing.T) {
	cfg := smallConfig(3)
	m1, err := Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Put(m1)
	m2, err := Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("Get built a new machine instead of recycling the returned one")
	}
	// No idle machine is left: a second Get must build fresh.
	m3, err := Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m2 {
		t.Error("Get handed out the same machine twice concurrently")
	}
	Put(m2)
	Put(m3)
	if got, want := idleFor(cfg), min(2, runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("%d idle machines, want %d", got, want)
	}
	// A machine of another configuration is never handed out for cfg.
	other, err := Get(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if other == m2 || other == m3 || other.cfg != smallConfig(2) {
		t.Error("Get returned a machine of the wrong configuration")
	}
	Put(other)
}

func TestPutCapsIdleMachinesAtGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cfgs := []Config{smallConfig(4), smallConfig(5)}
	var ms []*Machine
	for i := range procs + 2 {
		m, err := Get(cfgs[i%2])
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		Put(m)
	}
	if got := Idle(); got != procs {
		t.Errorf("%d idle machines across configurations, want GOMAXPROCS = %d", got, procs)
	}
	// A machine of another configuration displaces the oldest idle one.
	m, err := Get(smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	Put(m)
	if got := Idle(); got != procs {
		t.Errorf("%d idle machines after a new configuration, want GOMAXPROCS = %d", got, procs)
	}
	if got := idleFor(smallConfig(6)); got != 1 {
		t.Errorf("%d idle machines of the newest configuration, want 1", got)
	}
}

// TestPutDropsRedundantMachineUnreset fills the idle list with one
// configuration; a further machine of it is dropped without a Reset.
func TestPutDropsRedundantMachineUnreset(t *testing.T) {
	cfg := smallConfig(7)
	procs := runtime.GOMAXPROCS(0)
	var ms []*Machine
	for range procs + 1 {
		m, err := Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, m := range ms[:procs] {
		Put(m)
	}
	extra := ms[procs]
	extra.Image[0] = 1
	Put(extra)
	if extra.Image[0] != 1 {
		t.Error("Put reset a machine it did not keep")
	}
	if got := idleFor(cfg); got != procs {
		t.Errorf("%d idle machines, want GOMAXPROCS = %d", got, procs)
	}
	for range procs {
		m, err := Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m == extra {
			t.Fatal("Put kept a machine beyond GOMAXPROCS")
		}
		defer Put(m)
	}
}
