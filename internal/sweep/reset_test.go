package sweep

// Machine-reuse equivalence: a Reset machine must be indistinguishable
// from a freshly constructed one — same cycles, same energy audit, same
// full counter registry — for every architecture. This is the property
// that lets machine.Get hand one run's machine to the next.

import (
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
)

func TestResetMatchesFreshMachine(t *testing.T) {
	cfg := Config{Tuples: 1024, Seed: 42}
	q := db.DefaultQ06()
	plans := []query.Plan{
		{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q},
		{Arch: query.HMC, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q},
		{Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Fused: true, Q: q},
		{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q},
		{Arch: query.X86, Strategy: query.TupleAtATime, OpSize: 64, Unroll: 1, Q: q},
	}
	tab := db.GenerateMemo(cfg.Tuples, cfg.Seed)

	// Fresh machine per plan: the reference outcomes.
	fresh := make([]Result, len(plans))
	freshRegs := make([]string, len(plans))
	for i, p := range plans {
		m, err := machine.New(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		fresh[i], err = cfg.runOn(m, tab, p)
		if err != nil {
			t.Fatalf("fresh %s: %v", p, err)
		}
		freshRegs[i] = m.Registry.String()
	}

	// One machine, Reset between plans — in two different orders, so a
	// leak that only shows under a particular predecessor is caught.
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}} {
		m, err := machine.New(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		for runIdx, i := range order {
			if runIdx > 0 {
				m.Reset()
			}
			got, err := cfg.runOn(m, tab, plans[i])
			if err != nil {
				t.Fatalf("reused %s: %v", plans[i], err)
			}
			if !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("plan %s on reused machine: %+v, fresh machine: %+v", plans[i], got, fresh[i])
			}
			if reg := m.Registry.String(); reg != freshRegs[i] {
				t.Fatalf("plan %s: registry diverges on reused machine\n--- reused ---\n%s\n--- fresh ---\n%s",
					plans[i], reg, freshRegs[i])
			}
		}
	}

	// Failed runs: machine.Put after a run abandoned mid-flight (pending
	// events dropped) or after a run whose Verify failed must still
	// return a machine equivalent to a fresh one.
	fails := []struct {
		name string
		run  func(m *machine.Machine)
	}{
		{"abandoned", func(m *machine.Machine) {
			w, err := query.Prepare(m, tab, plans[0])
			if err != nil {
				t.Fatal(err)
			}
			m.CPU.Start(w.Stream(), nil)
			m.Engine.RunLimit(5000)
		}},
		{"failed verify", func(m *machine.Machine) {
			w, err := query.Prepare(m, tab, plans[3])
			if err != nil {
				t.Fatal(err)
			}
			m.Run(w.Stream())
			for i := range m.Image {
				m.Image[i] ^= 0xff
			}
			if err := w.Verify(); err == nil {
				t.Fatal("Verify passed on a corrupted image")
			}
		}},
	}
	for _, f := range fails {
		name := f.name
		m, err := machine.Get(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		f.run(m)
		machine.Put(m)
		again, err := machine.Get(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		if again != m {
			t.Fatalf("%s: Get did not hand back the machine just Put", name)
		}
		got, err := cfg.runOn(m, tab, plans[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh[1]) {
			t.Fatalf("%s, then Put: %+v, fresh: %+v", name, got, fresh[1])
		}
		if reg := m.Registry.String(); reg != freshRegs[1] {
			t.Fatalf("%s, then Put: registry diverges from a fresh machine's", name)
		}
		machine.Put(m)
	}
}
