// The process-wide source of machines. Building a machine allocates its
// whole world (memory image, caches, vault engines); Reset restores a
// used machine to a state bit-identical to a freshly built one
// (machine_test.go and the counter goldens pin this), so drawing a
// recycled machine changes wall-clock and allocation cost only — never
// simulated results. One-shot runs, sweep workers and serving shard
// replays all draw machines with Get and return them with Put.
//
// At most GOMAXPROCS idle machines are kept in total, across all
// configurations: enough for one per worker of a parallel sweep of one
// configuration. A sweep or load test with more workers than GOMAXPROCS
// builds the extra machines again on each run.
package machine

import (
	"runtime"
	"slices"
	"sync"
)

var idle struct {
	mu   sync.Mutex
	free []*Machine // oldest first
}

// Get returns an idle machine of configuration cfg, or builds one. The
// machine is in its post-New state. Safe for concurrent use.
func Get(cfg Config) (*Machine, error) {
	idle.mu.Lock()
	for i := len(idle.free) - 1; i >= 0; i-- {
		if m := idle.free[i]; m.cfg == cfg {
			idle.free = slices.Delete(idle.free, i, i+1)
			idle.mu.Unlock()
			return m, nil
		}
	}
	idle.mu.Unlock()
	return New(cfg)
}

// Put resets m and keeps it for a later Get of its configuration,
// dropping the oldest idle machine when GOMAXPROCS are already kept.
// When that oldest machine has m's configuration, keeping m would change
// nothing, so m is dropped without the cost of a Reset. Reset is safe
// even after a run abandoned mid-flight, so failed runs return their
// machines too. The caller must not use m afterwards.
func Put(m *Machine) {
	idle.mu.Lock()
	full := len(idle.free) >= runtime.GOMAXPROCS(0)
	redundant := full && idle.free[0].cfg == m.cfg
	idle.mu.Unlock()
	if redundant {
		return
	}
	m.Reset()
	idle.mu.Lock()
	defer idle.mu.Unlock()
	idle.free = append(idle.free, m)
	if over := len(idle.free) - runtime.GOMAXPROCS(0); over > 0 {
		idle.free = slices.Delete(idle.free, 0, over) // the dropped machines go to the GC
	}
}
