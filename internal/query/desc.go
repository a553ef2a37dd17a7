// The declarative query description layer: every plan compiles from a
// Desc — an ordered predicate pipeline plus, for aggregation queries,
// the group-by keys and aggregate list — instead of hard-wiring the
// TPC-H Query 06 shape into each generator. The Q06 descriptions
// compile to exactly the µop streams the hard-wired generators
// produced, so figure tables and sweep exports are unchanged; the Q01
// description is what opens the grouped-aggregation workload family.
package query

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// QueryKind selects the workload family a plan executes.
type QueryKind uint8

const (
	// Q6Select is the paper's TPC-H Query 06 selection scan (default).
	Q6Select QueryKind = iota
	// Q1Agg is the TPC-H Query 01-style grouped aggregation: filter on
	// shipdate, group by (returnflag, linestatus), accumulate per-group
	// COUNT/SUM over quantity, extendedprice and discounted revenue.
	Q1Agg
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case Q6Select:
		return "q6"
	case Q1Agg:
		return "q1"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Bound is one compare of a column value against an immediate.
type Bound struct {
	Kind isa.ALUKind
	Imm  int32
}

// Stage is one predicate column's evaluation: the AND of its bounds.
// Column-at-a-time plans evaluate stages in order, refining a running
// bitmask; tuple-at-a-time plans fold every stage into one pattern
// compare over the whole tuple.
type Stage struct {
	Col    int
	Bounds []Bound
}

// Aggregates of the Q1 family, in accumulator order. Averages (the
// avg_qty/avg_price/avg_disc of Query 01) derive from the sums and
// counts at presentation time.
const (
	AggCount = iota
	AggQty
	AggPrice
	AggRevenue
	NumAggs
)

// aggNames index by Agg*.
var aggNames = [NumAggs]string{"count", "sum_qty", "sum_price", "sum_revenue"}

// AggName names an aggregate index (for exports and reports).
func AggName(a int) string { return aggNames[a] }

// Desc is the declarative description a plan compiles from.
type Desc struct {
	Kind   QueryKind
	Stages []Stage
	// GroupBy lists the group-key columns (empty for selection scans).
	GroupBy []int
	// Groups is the group cardinality of the GroupBy keys (0 for
	// selection scans). Aggregation plans keep one accumulator register
	// per (group, aggregate) pair.
	Groups int
}

// Grouped reports whether the description carries a group-by clause.
func (d Desc) Grouped() bool { return len(d.GroupBy) > 0 }

// Desc compiles the plan's predicate into its declarative description.
func (p Plan) Desc() Desc {
	switch p.Kind {
	case Q1Agg:
		return Desc{
			Kind: Q1Agg,
			Stages: []Stage{
				{Col: db.FieldShipDate, Bounds: []Bound{{isa.CmpLE, p.Q1.ShipCut}}},
			},
			GroupBy: []int{db.FieldReturnFlag, db.FieldLineStatus},
			Groups:  db.NumGroups,
		}
	default: // Q6Select
		q := p.Q
		return Desc{
			Kind: Q6Select,
			Stages: []Stage{
				{Col: db.FieldShipDate, Bounds: []Bound{{isa.CmpGE, q.ShipLo}, {isa.CmpLT, q.ShipHi}}},
				{Col: db.FieldDiscount, Bounds: []Bound{{isa.CmpGE, q.DiscLo}, {isa.CmpLE, q.DiscHi}}},
				{Col: db.FieldQuantity, Bounds: []Bound{{isa.CmpLT, q.QtyHi}}},
			},
		}
	}
}

// groupKey returns the key values of group g in GroupBy column order —
// the immediates a plan compares the key columns against to build the
// group-membership mask.
func groupKey(g int) (rf, ls int32) {
	return int32(g / db.LSValues), int32(g % db.LSValues)
}

// match1 evaluates one bound against a value.
func match1(b Bound, v int32) bool {
	switch b.Kind {
	case isa.CmpEQ:
		return v == b.Imm
	case isa.CmpNE:
		return v != b.Imm
	case isa.CmpLT:
		return v < b.Imm
	case isa.CmpLE:
		return v <= b.Imm
	case isa.CmpGT:
		return v > b.Imm
	case isa.CmpGE:
		return v >= b.Imm
	default:
		panic(fmt.Sprintf("query: bound with non-compare kind %s", b.Kind))
	}
}

// Match evaluates the stage (the AND of its bounds) against one value —
// the primitive the cost model's selectivity profiler shares with the
// reference mask builders.
func (st Stage) Match(v int32) bool { return stageMatch(st, v) }

// Column maps a field index to the table column backing it.
func Column(t *db.Table, col int) []int32 { return columnSlice(t, col) }

// stageMatch evaluates a stage (the AND of its bounds) against a value.
func stageMatch(st Stage, v int32) bool {
	for _, b := range st.Bounds {
		if !match1(b, v) {
			return false
		}
	}
	return true
}

// stageMask evaluates one stage over its whole column — the oracle for
// the per-column intermediate bitmasks of column-at-a-time plans.
func stageMask(t *db.Table, st Stage) []byte {
	vals := columnSlice(t, st.Col)
	mask := make([]byte, (t.N+7)/8)
	for i := 0; i < t.N; i++ {
		if stageMatch(st, vals[i]) {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	return mask
}

// columnSlice maps a field index to the table column backing it.
func columnSlice(t *db.Table, col int) []int32 {
	switch col {
	case db.FieldShipDate:
		return t.ShipDate
	case db.FieldDiscount:
		return t.Discount
	case db.FieldQuantity:
		return t.Quantity
	case db.FieldExtendedPrice:
		return t.ExtendedPrice
	case db.FieldReturnFlag:
		return t.ReturnFlag
	case db.FieldLineStatus:
		return t.LineStatus
	default:
		panic(fmt.Sprintf("query: field %d has no column", col))
	}
}

// tuplePatternsDesc builds the per-lane pattern rows for one 16-field
// tuple from the description, indexed wantGE and wantLE: predicate
// fields carry their lower bounds in the GE row and their upper bounds
// in the LE row, every other lane always matches. This is what a
// tuple-at-a-time pattern compare (HMC CmpRead immediates, HIVE bound
// registers) evaluates in a single instruction.
func tuplePatternsDesc(d Desc) (rows [2][]int32) {
	ge := make([]int32, db.NumFields)
	le := make([]int32, db.NumFields)
	for f := 0; f < db.NumFields; f++ {
		ge[f] = minInt32
		le[f] = maxInt32
	}
	for _, st := range d.Stages {
		for _, b := range st.Bounds {
			switch b.Kind {
			case isa.CmpGE:
				ge[st.Col] = b.Imm
			case isa.CmpGT:
				ge[st.Col] = b.Imm + 1
			case isa.CmpLE:
				le[st.Col] = b.Imm
			case isa.CmpLT:
				le[st.Col] = b.Imm - 1
			case isa.CmpEQ:
				ge[st.Col] = b.Imm
				le[st.Col] = b.Imm
			default:
				panic(fmt.Sprintf("query: pattern bound kind %s", b.Kind))
			}
		}
	}
	return [2][]int32{wantGE: ge, wantLE: le}
}

// patternRows reports the pattern rows a tuple-at-a-time plan compares
// against, as the row range [first, first+n) of wantGE, wantLE: a lower
// bound needs the GE row, an upper bound the LE row (Q06 both, Q01 only
// LE). A row no bound needs passes every lane, so the AND of the
// compared rows is the plan's wantGELE mask.
func (d Desc) patternRows() (first, n int) {
	var lower, upper bool
	for _, st := range d.Stages {
		for _, b := range st.Bounds {
			lower = lower || b.Kind != isa.CmpLE && b.Kind != isa.CmpLT
			upper = upper || b.Kind != isa.CmpGE && b.Kind != isa.CmpGT
		}
	}
	switch {
	case lower && upper:
		return wantGE, 2
	case lower:
		return wantGE, 1
	}
	return wantLE, 1
}

// rowALU is the compare each pattern row evaluates, indexed wantGE,
// wantLE.
var rowALU = [2]isa.ALUKind{wantGE: isa.CmpGE, wantLE: isa.CmpLE}

// pcBase picks a generator's PC base by query kind: the selection and
// grouped streams of one generator keep apart PCs, which feed the
// branch predictor.
func (d Desc) pcBase(selection, grouped uint64) uint64 {
	if d.Grouped() {
		return grouped
	}
	return selection
}

const (
	minInt32 = -1 << 31
	maxInt32 = 1<<31 - 1
)

// cpuAcc models processor-register accumulators for the baseline Q01
// plans: one renamed-register dependency chain per (group, aggregate),
// so the out-of-order core sees exactly the serial add chains a scalar
// aggregation loop carries — independent groups overlap, updates to one
// group's running sum serialise.
type cpuAcc struct {
	vr   *vregs
	regs [db.NumGroups][NumAggs]isa.Reg
}

// newCPUAcc returns the register accumulators of a grouped plan, and
// nil for a selection scan, which accumulates nothing.
func (w *Workload) newCPUAcc(vr *vregs) *cpuAcc {
	if !w.Desc.Grouped() {
		return nil
	}
	return &cpuAcc{vr: vr}
}

// add emits one accumulate µop (class IntALU for add-into-sum, IntMul
// where the addend itself is a product) chained onto the (g, agg)
// accumulator, reading src.
func (a *cpuAcc) add(e *emitter, class isa.OpClass, g, agg int, src isa.Reg) {
	dst := a.vr.fresh()
	e.emit(isa.MicroOp{Class: class, Dst: dst, Src1: a.regs[g][agg], Src2: src})
	a.regs[g][agg] = dst
}

// matchOps bounds the µops a tuple-at-a-time plan emits for one
// matching tuple (see emitMatch).
func (w *Workload) matchOps(reload bool) int {
	switch {
	case !w.Desc.Grouped():
		return 1
	case reload:
		return 9
	}
	return 8
}

// emitMatch emits a tuple-at-a-time plan's action on matching tuple i.
// A selection scan materialises it as output tuple *matched. A grouped
// scan accumulates it into acc from tup, the register holding the
// tuple's data, or, when tup is RegNone, from a cache-path reload of
// the tuple.
func (w *Workload) emitMatch(e *emitter, acc *cpuAcc, i int, tup isa.Reg, matched *int) {
	if acc == nil {
		e.emit(isa.MicroOp{Class: isa.Store,
			Addr: w.Materialize + mem.Addr(*matched*db.TupleBytes), Size: db.TupleBytes})
		*matched++
		return
	}
	if tup == isa.RegNone {
		tup = acc.vr.fresh()
		e.emit(isa.MicroOp{Class: isa.Load, Dst: tup,
			Addr: w.NSM.TupleAddr(i), Size: db.TupleBytes})
	}
	w.emitTupleAccumulate(e, acc, i, tup)
}

// emitTupleTests emits the processor's decisions over the n tuples from
// tuple first whose lane bitmask register m holds, as the HMC and HIVE
// tuple plans take them: per tuple a test and a data-dependent branch,
// then the match action on a match, reloading the tuple.
func (w *Workload) emitTupleTests(e *emitter, vr *vregs, acc *cpuAcc, m isa.Reg, first, n int, matched *int) {
	for i := first; i < first+n; i++ {
		tv := vr.fresh()
		e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: m})
		match := w.tupleMatch(i)
		e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
		if match {
			w.emitMatch(e, acc, i, isa.RegNone, matched)
		}
	}
}

// emitTupleAccumulate emits the processor-side scalar accumulation of
// one matching tuple, shared by every tuple-at-a-time Q01 plan: two
// data-dependent branches on the group key (the dispatch whose
// direction is in-memory data), the revenue multiply, and the four
// aggregate updates chained onto the group's register accumulators.
// tup is the register holding the tuple's data.
func (w *Workload) emitTupleAccumulate(e *emitter, acc *cpuAcc, i int, tup isa.Reg) {
	g := w.tupleGroup(i)
	rf, ls := groupKey(g)
	gid := acc.vr.fresh()
	e.emit(isa.MicroOp{Class: isa.IntALU, Dst: gid, Src1: tup})
	e.emit(isa.MicroOp{Class: isa.Branch, Src1: gid, Taken: rf == db.ReturnFlagN})
	e.emit(isa.MicroOp{Class: isa.Branch, Src1: gid, Taken: ls == db.LineStatusO})
	rev := acc.vr.fresh()
	e.emit(isa.MicroOp{Class: isa.IntMul, Dst: rev, Src1: tup})
	acc.add(e, isa.IntALU, g, AggCount, gid)
	acc.add(e, isa.IntALU, g, AggQty, tup)
	acc.add(e, isa.IntALU, g, AggPrice, tup)
	acc.add(e, isa.IntALU, g, AggRevenue, rev)
}
