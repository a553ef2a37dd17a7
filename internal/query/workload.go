package query

import (
	"bytes"
	"fmt"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/mem"
)

// Workload is a prepared scan: table laid into a machine's image, output
// regions allocated, reference results computed, and a µop generator
// ready to stream.
type Workload struct {
	Plan  Plan
	Table *db.Table
	M     *machine.Machine

	// Desc is the plan's compiled query description; every generator
	// reads its predicate stages (and, for Q1Agg, its group-by shape)
	// from here instead of a hard-wired query.
	Desc Desc

	// Layouts (one of the two is populated, per the strategy).
	NSM db.NSMLayout
	DSM db.DSMLayout

	// Output regions.
	MaskBase    map[int]mem.Addr // per predicate column (DSM) — one bit per tuple
	FinalMask   mem.Addr         // final bitmask region (both strategies)
	Materialize mem.Addr         // matched-tuple region (NSM, selection scans)

	// AccRegion holds in-memory aggregation accumulators: one 256 B
	// vector of per-lane partial sums for the Q06 Aggregate extension,
	// or Groups×NumAggs vectors for Q01 plans on the engine
	// architectures (HIVE/HIPE).
	AccRegion mem.Addr

	// ValidRow is a 256 B row whose first OpSize/4 lanes are all-ones
	// and the rest zero. Vector loads below the full register width
	// leave a register's tail lanes untouched (zero), but compares over
	// those lanes still produce mask bits; ANDing the filter mask with
	// this row confines the predicated accumulation to real tuples.
	ValidRow mem.Addr

	// Pattern rows for NSM lane compares, indexed wantGE and wantLE
	// (HIVE registers load them; HMC CmpReads carry them as instruction
	// patterns).
	Pattern [2]mem.Addr
	pat     [2][]int32

	// Reference results (Ref for selection scans, Ref1 for aggregation).
	Ref  *db.ReferenceResult
	Ref1 *db.Q1Result
	// matchMask is the flat full-predicate bitmask (Ref.Bitmask or
	// Ref1.Bitmask), the branch-outcome oracle for tuple plans.
	matchMask []byte
	// prefix[i] = AND of stage masks up to predicate stage i.
	prefix [][]byte
	// groupMask[g] = prefix[last] ∧ group-g membership (Q1Agg only).
	groupMask [][]byte

	// Runtime verification of engine-computed results. want holds every
	// result the plan's checks expect, computed once by Prepare; each
	// checking instruction carries its chunk's mask as Expect and
	// onResult (w.check, bound once) as OnResult.
	want       maskTable
	onResult   func(got, want []byte)
	mismatches int
	checked    int
}

// maxGroupChunks bounds the chunk count of an engine-aggregated Q01
// plan: per-lane partial sums are 32-bit and the worst-case per-chunk
// addend is one maximal discounted revenue (≈1.06e6), so beyond ~2025
// chunks a lane could overflow.
const maxGroupChunks = 2025

// ValidateFor extends Validate with the table-dependent envelope: an
// engine-aggregated Q01 plan keeps 32-bit per-lane partial sums, so
// its chunk count (tuples per operation) is bounded. Grid expansion
// and serve admission use this so oversized cells trim or reject up
// front instead of aborting a run mid-sweep.
func (p Plan) ValidateFor(tuples int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Auto() {
		// Validate accepted the shape; the table-dependent envelope
		// holds when at least one backend substitution survives it.
		for _, b := range backends {
			q := p
			q.Arch = b.Arch()
			if q.ValidateFor(tuples) == nil {
				return nil
			}
		}
		return fmt.Errorf("query: auto plan %s fits no registered backend for %d tuples", p, tuples)
	}
	if p.Kind == Q1Agg && p.Strategy == ColumnAtATime &&
		(p.Arch == HIVE || p.Arch == HIPE) {
		if chunks := tuples / (int(p.OpSize) / db.ColumnWidth); chunks > maxGroupChunks {
			return fmt.Errorf("query: %d chunks of %d B risk 32-bit lane overflow in group accumulators (max %d; raise the op size or shard the table)",
				chunks, p.OpSize, maxGroupChunks)
		}
	}
	return nil
}

// Prepare lays the table into m's image and builds all bookkeeping.
func Prepare(m *machine.Machine, t *db.Table, p Plan) (*Workload, error) {
	if p.Auto() {
		return nil, fmt.Errorf("query: auto plan %s must be resolved to a registered backend before preparing", p)
	}
	if err := p.ValidateFor(t.N); err != nil {
		return nil, err
	}
	if t.N == 0 {
		return nil, fmt.Errorf("query: empty table")
	}
	if t.N%64 != 0 {
		// Keeps every op size an exact divisor of the data; the paper's
		// 1 GB table trivially satisfies this.
		return nil, fmt.Errorf("query: tuple count %d must be a multiple of 64", t.N)
	}
	if p.Arch == HIPE && (p.Aggregate || p.Kind == Q1Agg) && !m.HIPE.ZeroingSquash() {
		// The accumulating plans feed unpredicated Adds from predicated
		// temporaries: only zeroing-mask squash semantics guarantee a
		// squashed temp contributes zero. On the paper-literal
		// "leave dst unchanged" ablation machine the temps would carry
		// stale data into the accumulators, so refuse up front.
		return nil, fmt.Errorf("query: %s accumulates through predicated temporaries and requires the HIPE engine's zeroing-squash semantics", p)
	}
	w := &Workload{
		Plan:     p,
		Table:    t,
		M:        m,
		Desc:     p.Desc(),
		MaskBase: make(map[int]mem.Addr),
	}
	a := db.NewArena(uint64(len(m.Image)))

	switch p.Strategy {
	case TupleAtATime:
		w.NSM = db.LayoutNSM(m.Image, a, t)
		// Pattern rows: per-lane constants tiled every 16 lanes (one
		// tuple). CmpGE pattern / CmpLE pattern; filler lanes always in
		// range.
		w.pat = tuplePatternsDesc(w.Desc)
		for r, pat := range w.pat {
			w.Pattern[r] = writePattern(m.Image, a, pat)
		}
		// Lane-mask region: one bit per 32-bit lane of tuple data.
		lanes := t.N * db.TupleBytes / 4
		w.FinalMask = a.Alloc(uint64(lanes/8), 256)
		w.Materialize = a.Alloc(uint64(t.N*db.TupleBytes), 256)
	case ColumnAtATime:
		if w.Desc.Grouped() {
			// The aggregation plans touch the group-key columns; they
			// append after the standard four so the Q06 layout is
			// byte-identical with or without them.
			w.DSM = db.LayoutDSM(m.Image, a, t,
				db.FieldShipDate, db.FieldDiscount, db.FieldQuantity,
				db.FieldExtendedPrice, db.FieldReturnFlag, db.FieldLineStatus)
		} else {
			w.DSM = db.LayoutDSM(m.Image, a, t)
		}
		// Chunks below 8 tuples still occupy a whole mask byte, so the
		// region is chunks×MaskBytes, not N/8.
		tuplesPerChunk := int(p.OpSize) / db.ColumnWidth
		regionBytes := uint64(t.N / tuplesPerChunk * int(isa.MaskBytes(p.OpSize)))
		for _, st := range w.Desc.Stages {
			w.MaskBase[st.Col] = a.Alloc(regionBytes, 256)
		}
		w.FinalMask = w.MaskBase[w.Desc.Stages[len(w.Desc.Stages)-1].Col]
		if p.Aggregate {
			// Per-lane partial sums are 32-bit: bound the table so the
			// worst-case lane sum (every 64th tuple matching at maximum
			// revenue ≈ 1.06e6) cannot overflow.
			if t.N > 1<<20 {
				return nil, fmt.Errorf("query: aggregation lanes would risk overflow beyond %d tuples", 1<<20)
			}
			w.AccRegion = a.Alloc(isa.RegisterBytes, 256)
		}
		if w.Desc.Grouped() && (p.Arch == HIVE || p.Arch == HIPE) {
			// The engines keep one accumulator register per (group,
			// aggregate); ValidateFor bounded the chunk count so the
			// 32-bit lanes cannot overflow.
			w.AccRegion = a.Alloc(uint64(w.Desc.Groups*NumAggs)*isa.RegisterBytes, 256)
			w.ValidRow = a.Alloc(256, 256)
			for i := 0; i < tuplesPerChunk; i++ {
				isa.SetLane(m.Image[uint64(w.ValidRow):], i, -1)
			}
		}
	}

	switch w.Desc.Kind {
	case Q1Agg:
		w.Ref1 = db.ReferenceQ1(t, p.Q1)
		w.matchMask = w.Ref1.Bitmask
	default:
		w.Ref = db.Reference(t, p.Q)
		w.matchMask = w.Ref.Bitmask
	}
	w.prefix = make([][]byte, len(w.Desc.Stages))
	for i, st := range w.Desc.Stages {
		m := stageMask(t, st)
		if i > 0 {
			m = andMasks(w.prefix[i-1], m)
		}
		w.prefix[i] = m
	}
	if w.Desc.Grouped() {
		w.groupMask = make([][]byte, w.Desc.Groups)
		filter := w.prefix[len(w.prefix)-1]
		for g := range w.groupMask {
			rf, ls := groupKey(g)
			gm := make([]byte, len(filter))
			for i := 0; i < t.N; i++ {
				if filter[i/8]&(1<<(i%8)) != 0 && t.ReturnFlag[i] == rf && t.LineStatus[i] == ls {
					gm[i/8] |= 1 << (i % 8)
				}
			}
			w.groupMask[g] = gm
		}
	}
	w.prepareExpected()
	w.onResult = w.check
	return w, nil
}

func andMasks(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] & b[i]
	}
	return out
}

// writePattern stores a 16-lane pattern tiled across one 256 B row.
func writePattern(image []byte, a *db.Arena, pat []int32) mem.Addr {
	base := a.Alloc(256, 256)
	for i := 0; i < 64; i++ {
		isa.SetLane(image[uint64(base):], i, pat[i%len(pat)])
	}
	return base
}

// tupleMatch reports whether tuple i fully matches per the reference
// (used for branch outcomes in tuple-at-a-time plans).
func (w *Workload) tupleMatch(i int) bool {
	return w.matchMask[i/8]&(1<<(i%8)) != 0
}

// tupleGroup reports tuple i's group index (Q1Agg plans).
func (w *Workload) tupleGroup(i int) int {
	return db.GroupID(w.Table.ReturnFlag[i], w.Table.LineStatus[i])
}

// accAddr is the address of the (group, aggregate) accumulator vector.
func (w *Workload) accAddr(g, agg int) mem.Addr {
	return w.AccRegion + mem.Addr((g*NumAggs+agg)*isa.RegisterBytes)
}

// maskTable holds expected per-chunk bitmasks in one flat slice:
// regions × chunks masks of width bytes, one bit per lane, LSB-first.
type maskTable struct {
	flat          []byte
	chunks, width int
}

func newMaskTable(regions, chunks, width int) maskTable {
	return maskTable{flat: make([]byte, regions*chunks*width), chunks: chunks, width: width}
}

// at returns region r's mask for chunk c.
func (t maskTable) at(r, c int) []byte {
	off := (r*t.chunks + c) * t.width
	return t.flat[off : off+t.width : off+t.width]
}

// set marks lane i of chunk c in region r.
func (t maskTable) set(r, c, i int) {
	t.flat[(r*t.chunks+c)*t.width+i/8] |= 1 << (i % 8)
}

// columnMasks allocates regions of chunk masks in the column scans'
// storage layout: each chunk of OpSize/4 tuples occupies
// MaskBytes(OpSize) bytes (for chunks smaller than 8 tuples the packing
// differs from a flat bitmask). It also returns the tuples per chunk.
func (w *Workload) columnMasks(regions int) (maskTable, int) {
	tuplesPerChunk := int(w.Plan.OpSize) / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	return newMaskTable(regions, chunks, int(isa.MaskBytes(w.Plan.OpSize))), tuplesPerChunk
}

// expectedMaskRegion lays a flat per-tuple bitmask out the way the
// chunked scan stores it.
func (w *Workload) expectedMaskRegion(flat []byte) []byte {
	t, tpc := w.columnMasks(1)
	for i := 0; i < w.Table.N; i++ {
		if flat[i/8]&(1<<(i%8)) != 0 {
			t.set(0, i/tpc, i%tpc)
		}
	}
	return t.flat
}

// tupleChunking reports how a tuple-at-a-time engine plan of op size S
// walks the row store: a chunk covers whole tuples for S >= 64, or the
// predicate-bearing prefix of a single tuple for smaller sizes; chunks
// start stride bytes apart.
func tupleChunking(S int) (tuplesPerChunk, stride int) {
	if S < db.TupleBytes {
		return 1, db.TupleBytes
	}
	return S / db.TupleBytes, S
}

// Regions of a tuple-at-a-time plan's expected results: the GE and LE
// pattern compares over a chunk's lanes, and their AND.
const (
	wantGE = iota
	wantLE
	wantGELE
)

// laneCmp is one lane-uniform compare of a column against a bound.
type laneCmp struct {
	col int
	b   Bound
}

// hmcColumnCompares lists the load-compares an HMC column plan issues
// per chunk, in issue order: every bound of every stage, then, for Q01,
// one equality compare per group-key value. Region r of the plan's
// expected results belongs to compare r.
func (w *Workload) hmcColumnCompares() []laneCmp {
	var cmps []laneCmp
	for _, st := range w.Desc.Stages {
		for _, b := range st.Bounds {
			cmps = append(cmps, laneCmp{st.Col, b})
		}
	}
	if w.Desc.Grouped() {
		for v := 0; v < db.RFValues; v++ {
			cmps = append(cmps, laneCmp{db.FieldReturnFlag, Bound{isa.CmpEQ, int32(v)}})
		}
		for v := 0; v < db.LSValues; v++ {
			cmps = append(cmps, laneCmp{db.FieldLineStatus, Bound{isa.CmpEQ, int32(v)}})
		}
	}
	return cmps
}

// prepareExpected computes, once, every result the plan's runtime
// checks expect an engine to return, into w.want:
//
//   - tuple-at-a-time engine plans: the GE, LE and GE∧LE pattern masks
//     of every chunk of row-store lanes (regions wantGE, wantLE,
//     wantGELE);
//   - HMC column plans: one region per compare of hmcColumnCompares;
//   - HIVE and HIPE column plans: one region per predicate stage, the
//     chunked running bitmask after that stage (prefix[s]).
//
// x86 plans check nothing, nor does HIPE's Q01 plan, which verifies
// its spilled accumulators instead.
func (w *Workload) prepareExpected() {
	p := w.Plan
	switch {
	case p.Arch == X86, p.Arch == HIPE && w.Desc.Grouped():
	case p.Strategy == TupleAtATime:
		S := int(p.OpSize)
		tuplesPerChunk, stride := tupleChunking(S)
		chunks := w.Table.N / tuplesPerChunk
		w.want = newMaskTable(3, chunks, int(isa.MaskBytes(p.OpSize)))
		for c := 0; c < chunks; c++ {
			data := w.M.Image[uint64(w.NSM.Base)+uint64(c*stride):]
			for i := 0; i < S/isa.LaneBytes; i++ {
				v := isa.LaneAt(data, i)
				ge := v >= w.pat[wantGE][i%db.NumFields]
				le := v <= w.pat[wantLE][i%db.NumFields]
				if ge {
					w.want.set(wantGE, c, i)
				}
				if le {
					w.want.set(wantLE, c, i)
				}
				if ge && le {
					w.want.set(wantGELE, c, i)
				}
			}
		}
	case p.Arch == HMC:
		cmps := w.hmcColumnCompares()
		var tpc int
		w.want, tpc = w.columnMasks(len(cmps))
		for r, cmp := range cmps {
			for i, v := range columnSlice(w.Table, cmp.col)[:w.Table.N] {
				if match1(cmp.b, v) {
					w.want.set(r, i/tpc, i%tpc)
				}
			}
		}
	default:
		var tpc int
		w.want, tpc = w.columnMasks(len(w.prefix))
		for s, m := range w.prefix {
			for i := 0; i < w.Table.N; i++ {
				if m[i/8]&(1<<(i%8)) != 0 {
					w.want.set(s, i/tpc, i%tpc)
				}
			}
		}
	}
}

// check records an engine-result comparison.
func (w *Workload) check(got, want []byte) {
	w.checked++
	if !bytes.Equal(got, want) {
		w.mismatches++
	}
}

// Checked reports how many engine results were cross-checked at runtime.
func (w *Workload) Checked() int { return w.checked }

// GroupResults returns the per-group aggregates of a verified Q1Agg run,
// in db.GroupID order (nil for selection plans). Call after Verify: for
// the engine architectures the values were checked against the
// in-memory accumulators, for the baselines against the runtime mask
// cross-checks.
func (w *Workload) GroupResults() []db.GroupAgg {
	if w.Ref1 == nil {
		return nil
	}
	out := make([]db.GroupAgg, len(w.Ref1.Groups))
	copy(out, w.Ref1.Groups[:])
	return out
}

// Verify checks the functional outcome of a completed run against the
// reference evaluator, by what the plan wrote:
//
//   - the final bitmask region (a grouped plan's filter bitmask): HIVE
//     column plans and HIPE selection plans;
//   - the accumulators: the Q06 Aggregate revenue, and Q01 on the HIVE
//     and HIPE column plans;
//   - runtime cross-checks, of which at least one must have run: HMC
//     plans and HIVE tuple plans.
//
// x86 plans write nothing to check: their correctness is the reference
// itself.
func (w *Workload) Verify() error {
	p := w.Plan
	if w.mismatches > 0 {
		return fmt.Errorf("query %s: %d of %d runtime result checks failed",
			p, w.mismatches, w.checked)
	}
	column := p.Strategy == ColumnAtATime
	if column && (p.Arch == HIVE || p.Arch == HIPE && !w.Desc.Grouped()) {
		// The bitmask region must equal the reference bitmask in the
		// chunked storage layout (each chunk's tuple bits packed into
		// MaskBytes(OpSize) bytes).
		want := w.expectedMaskRegion(w.matchMask)
		got := w.M.Image[w.FinalMask : uint64(w.FinalMask)+uint64(len(want))]
		if !bytes.Equal(got, want) {
			return fmt.Errorf("query %s: final bitmask differs from reference (%d vs %d matches)",
				p, isa.PopcountMask(got), isa.PopcountMask(want))
		}
	}
	if p.Aggregate {
		// The engine's accumulator vector must sum to the reference
		// revenue.
		if got := laneSum(w.M.Image, w.AccRegion); got != w.Ref.Revenue {
			return fmt.Errorf("query %s: in-memory revenue %d, reference %d", p, got, w.Ref.Revenue)
		}
	}
	if column && w.Desc.Grouped() && (p.Arch == HIVE || p.Arch == HIPE) {
		// Each spilled (group, aggregate) register's lane sum must
		// equal the reference evaluator's value.
		for g := 0; g < w.Desc.Groups; g++ {
			ref := w.Ref1.Groups[g]
			want := [NumAggs]int64{ref.Count, ref.SumQty, ref.SumPrice, ref.SumRevenue}
			for agg := 0; agg < NumAggs; agg++ {
				if got := laneSum(w.M.Image, w.accAddr(g, agg)); got != want[agg] {
					return fmt.Errorf("query %s: group %d %s: in-memory %d, reference %d",
						p, g, AggName(agg), got, want[agg])
				}
			}
		}
	}
	if (p.Arch == HMC || p.Arch == HIVE && !column) && w.checked == 0 {
		return fmt.Errorf("query %s: no runtime checks ran", p)
	}
	return nil
}
