// Package stats collects simulation statistics: named counters grouped
// per component, with deterministic report formatting, and the serving
// layer's streaming latency histogram (LogHist).
//
// Every timing model in the reproduction registers a Scope and bumps
// counters through it; the experiment harness then snapshots the registry
// to build the figure tables.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry holds all scopes for one simulated system instance.
//
// Scope creation and the registry-wide read paths (Lookup, Total,
// Scopes, String, Reset) are safe for concurrent callers: observability
// consumers snapshot registries while executor pools build machines.
// Counter bumps through an obtained *Scope/*Counter stay unsynchronised
// — each simulated machine is single-threaded, and keeping the hot path
// lock-free is what keeps it free.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]*Scope
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: make(map[string]*Scope)}
}

// Scope returns the scope with the given component name, creating it on
// first use. Names are hierarchical by convention ("cpu0.l1d").
func (r *Registry) Scope(name string) *Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.scopes[name]; ok {
		return s
	}
	s := &Scope{name: name, counters: make(map[string]*Counter)}
	r.scopes[name] = s
	r.order = append(r.order, name)
	return s
}

// Reset zeroes every counter in every scope, preserving the registered
// scope/counter structure (a reset registry reports the same counter
// names as a fresh machine, all at zero).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.scopes {
		for _, c := range s.counters {
			c.v = 0
		}
	}
}

// Scopes returns all scopes in creation order.
func (r *Registry) Scopes() []*Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Scope, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.scopes[n])
	}
	return out
}

// Lookup returns the named counter value across the whole registry using
// "scope.counter" syntax; it reports false if absent.
func (r *Registry) Lookup(path string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := strings.LastIndex(path, ".")
	if i < 0 {
		return 0, false
	}
	s, ok := r.scopes[path[:i]]
	if !ok {
		return 0, false
	}
	c, ok := s.counters[path[i+1:]]
	if !ok {
		return 0, false
	}
	return c.v, true
}

// Total sums counters with the given name across all scopes whose name has
// the given prefix. Used e.g. to sum dram.reads over all 32 vaults.
func (r *Registry) Total(scopePrefix, counter string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum uint64
	for _, n := range r.order {
		if strings.HasPrefix(n, scopePrefix) {
			if c, ok := r.scopes[n].counters[counter]; ok {
				sum += c.v
			}
		}
	}
	return sum
}

// String renders every scope and counter, sorted within scope, in creation
// order of scopes. Stable output for golden tests.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, n := range r.order {
		s := r.scopes[n]
		if len(s.counters) == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%s]\n", s.name)
		names := make([]string, 0, len(s.counters))
		for cn := range s.counters {
			names = append(names, cn)
		}
		sort.Strings(names)
		for _, cn := range names {
			fmt.Fprintf(&b, "  %-28s %d\n", cn, s.counters[cn].v)
		}
	}
	return b.String()
}

// Scope is a named group of counters belonging to one component.
type Scope struct {
	name     string
	counters map[string]*Counter
	order    []string
}

// Name returns the scope's component name.
func (s *Scope) Name() string { return s.name }

// Counter returns (creating on first use) the named counter.
func (s *Scope) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{}
	s.counters[name] = c
	s.order = append(s.order, name)
	return c
}

// Counters returns the scope's counter names in creation order.
func (s *Scope) Counters() []string { return append([]string(nil), s.order...) }

// Get returns the current value of a counter (0 if never created).
func (s *Scope) Get(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.v
	}
	return 0
}

// Counter is a monotonically increasing event count.
type Counter struct{ v uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }
