// The backend table: every execution architecture is one Backend — a
// compiler from a prepared Workload to a µop stream plus a static
// capability report. Plan validation, the CLIs' architecture lists and
// the adaptive planner (internal/cost, internal/serve) all consult the
// table instead of hard-wiring the four architectures.
package query

import (
	"fmt"
	"slices"
	"strings"

	"github.com/hipe-sim/hipe/internal/isa"
)

// Stream is a lazily-generated µop stream (the shape cpu.Stream
// consumes): Next returns the following µop until the program ends.
type Stream interface {
	Next() (isa.MicroOp, bool)
}

// Caps is a backend's static capability and constraint report: the
// envelope of plans it can compile, mirroring the paper's evaluated
// space. Plan.Validate enforces it; the planner uses it to trim
// candidate backends before costing them.
type Caps struct {
	// TupleAtATime / ColumnAtATime report the scan strategies the
	// backend compiles.
	TupleAtATime  bool
	ColumnAtATime bool
	// MaxOpSize is the largest memory operation width in bytes.
	MaxOpSize uint32
	// MaxUnroll is the deepest loop unrolling the backend's compiler
	// supports.
	MaxUnroll int
	// Fused marks support for the fused full-scan variant (one pass,
	// no intermediate bitmask round trips).
	Fused bool
	// Aggregate marks support for the in-memory Q06 revenue aggregation
	// extension.
	Aggregate bool
}

// Supports reports whether the backend compiles the given strategy.
func (c Caps) Supports(s Strategy) bool {
	if s == TupleAtATime {
		return c.TupleAtATime
	}
	return c.ColumnAtATime
}

// Backend is one execution architecture: a µop-stream
// compiler for prepared workloads plus its static capability report.
type Backend interface {
	// Arch is the architecture the backend implements.
	Arch() Arch
	// Name is the backend's name (the CLI spelling).
	Name() string
	// Caps reports the backend's capability envelope.
	Caps() Caps
	// Compile generates the µop stream for a prepared workload whose
	// (validated) plan names this backend.
	Compile(w *Workload) Stream
}

// backends is the backend table, indexed by architecture. It is
// read-only, so concurrent readers need no locking.
var backends = [...]Backend{X86: x86Backend{}, HMC: hmcBackend{}, HIVE: hiveBackend{}, HIPE: hipeBackend{}}

// BackendFor returns the backend of an architecture.
func BackendFor(a Arch) (Backend, bool) {
	if int(a) >= len(backends) {
		return nil, false
	}
	return backends[a], true
}

// Backends returns the backends in architecture order — the
// deterministic iteration order planners and CLIs use. The slice is the
// caller's own.
func Backends() []Backend {
	return slices.Clone(backends[:])
}

// BackendNames returns the backend names in architecture order — what
// CLI error messages list instead of a hard-coded string.
func BackendNames() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return names
}

// ArchAuto is the adaptive planner's sentinel architecture: a plan
// carrying it names no backend — the cost model resolves it to the
// predicted-fastest registered backend (given the workload's
// selectivity profile) before the plan compiles. Validate accepts an
// auto plan when at least one registered backend could serve as its
// resolution; compiling an unresolved auto plan panics.
const ArchAuto Arch = 0xFF

// ParseArch resolves a backend name (or "auto") to its architecture.
func ParseArch(name string) (Arch, bool) {
	if name == ArchAuto.String() {
		return ArchAuto, true
	}
	for _, b := range backends {
		if b.Name() == name {
			return b.Arch(), true
		}
	}
	return 0, false
}

// ArchChoices renders the valid -arch spellings for CLI usage errors:
// the registered backend names plus the planner's "auto".
func ArchChoices() string {
	return strings.Join(append(BackendNames(), ArchAuto.String()), ", ")
}

// Candidates returns the concrete plans an auto plan can resolve to:
// the plan with each registered backend's architecture substituted,
// trimmed to the backends whose envelope admits the plan's shape for an
// n-row table, in architecture order. A non-auto plan returns itself
// when valid. This is the sweep engine's resolution rule — the cell
// keeps its shape axes and the planner picks among backends that can
// run that shape; the serving layer instead routes among per-backend
// best shapes (see serve.DefaultPlan).
func (p Plan) Candidates(tuples int) []Plan {
	if p.Arch != ArchAuto {
		if p.ValidateFor(tuples) != nil {
			return nil
		}
		return []Plan{p}
	}
	var out []Plan
	for _, b := range backends {
		q := p
		q.Arch = b.Arch()
		if q.ValidateFor(tuples) == nil {
			out = append(out, q)
		}
	}
	return out
}

// Stream builds the µop stream for the workload's plan through its
// registered backend.
func (w *Workload) Stream() Stream {
	b, ok := BackendFor(w.Plan.Arch)
	if !ok {
		panic(fmt.Sprintf("query: plan %s names no registered backend (auto plans must be resolved before compiling)", w.Plan))
	}
	return b.Compile(w)
}

// The four architectures of the paper behind the Backend interface.
// Each Compile dispatches on the plan's strategy to the generator that
// produces the architecture's µop stream. A tuple-at-a-time generator
// and HIVE's column generator compile both query kinds from the
// workload's description; the x86, HMC and HIPE column plans have a
// grouped twin beside the selection one.

type x86Backend struct{}

func (x86Backend) Arch() Arch   { return X86 }
func (x86Backend) Name() string { return X86.String() }
func (x86Backend) Caps() Caps {
	// AVX-512 caps vector ops at 64 B; the paper's compilers stop
	// unrolling at 8.
	return Caps{TupleAtATime: true, ColumnAtATime: true, MaxOpSize: 64, MaxUnroll: 8}
}
func (x86Backend) Compile(w *Workload) Stream {
	switch {
	case w.Plan.Strategy == TupleAtATime:
		return w.x86Tuple()
	case w.Desc.Grouped():
		return w.q1x86Column()
	}
	return w.x86Column()
}

type hmcBackend struct{}

func (hmcBackend) Arch() Arch   { return HMC }
func (hmcBackend) Name() string { return HMC.String() }
func (hmcBackend) Caps() Caps {
	return Caps{TupleAtATime: true, ColumnAtATime: true, MaxOpSize: 256, MaxUnroll: 32}
}
func (hmcBackend) Compile(w *Workload) Stream {
	switch {
	case w.Plan.Strategy == TupleAtATime:
		return w.hmcTuple()
	case w.Desc.Grouped():
		return w.q1hmcColumn()
	}
	return w.hmcColumn()
}

type hiveBackend struct{}

func (hiveBackend) Arch() Arch   { return HIVE }
func (hiveBackend) Name() string { return HIVE.String() }
func (hiveBackend) Caps() Caps {
	return Caps{TupleAtATime: true, ColumnAtATime: true, MaxOpSize: 256, MaxUnroll: 32, Fused: true}
}
func (hiveBackend) Compile(w *Workload) Stream {
	switch {
	case w.Plan.Strategy == TupleAtATime:
		return w.pimTuple(isa.TargetHIVE)
	case w.Plan.Fused:
		return w.hiveFusedColumn()
	}
	return w.hiveColumn()
}

type hipeBackend struct{}

func (hipeBackend) Arch() Arch   { return HIPE }
func (hipeBackend) Name() string { return HIPE.String() }
func (hipeBackend) Caps() Caps {
	// The predicated plan is defined for column-at-a-time scans; the
	// in-memory Q06 aggregation is its extension.
	return Caps{ColumnAtATime: true, MaxOpSize: 256, MaxUnroll: 32, Aggregate: true}
}
func (hipeBackend) Compile(w *Workload) Stream {
	if w.Desc.Grouped() {
		return w.q1hipeColumn()
	}
	return w.hipeColumn()
}
