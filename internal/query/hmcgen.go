package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// hmcTuple generates the HMC-baseline tuple-at-a-time scan: per chunk of
// OpSize bytes of tuple data, one load-compare instruction per pattern
// row (GE and LE lane patterns) executes inside the vault; the
// processor ANDs the returned bitmasks, branches per tuple and acts on
// matches. A selection materialises them with cache-assisted stores and
// stores the chunk's bitmask; a grouped description reloads each
// matching tuple through the cache hierarchy, branches again on the
// group key, and accumulates the group's running sums in registers.
func (w *Workload) hmcTuple() *chunkedStream {
	p := &w.Plan
	S := int(p.OpSize)
	tuplesPerChunk, stride := tupleChunking(S)
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll
	row0, rows := w.Desc.patternRows()
	maskStores := 1
	if w.Desc.Grouped() {
		maskStores = 0
	}

	vr := &vregs{}
	acc := w.newCPUAcc(vr)
	group := 0
	matched := 0
	pcBase := w.Desc.pcBase(0x3000, 0x9000)
	// Per chunk: a load-compare and AND per pattern row, per tuple a
	// test, branch and the match action, and a selection's mask store;
	// then the loop tail.
	per := min(p.Unroll, chunks)
	maxOps := per*(2*rows-1+tuplesPerChunk*(2+w.matchOps(true))+maskStores) + 2
	return newChunkedStream(maxOps, rows*per, func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.pc = pcBase
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			addr := w.NSM.Base + mem.Addr(c*stride)
			var m isa.Reg
			for r := row0; r < row0+rows; r++ {
				cr := vr.fresh()
				e.offload(cr, isa.RegNone, isa.OffloadInst{
					Target: isa.TargetHMC, Op: isa.CmpRead, ALU: rowALU[r],
					Addr: addr, Size: p.OpSize, Pattern: w.patternLanes(r),
					Expect: w.want.at(r, c), OnResult: w.onResult,
				})
				if r == row0 {
					m = cr
					continue
				}
				nm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: cr})
				m = nm
			}
			w.emitTupleTests(e, vr, acc, m, c*tuplesPerChunk, tuplesPerChunk, &matched)
			if !w.Desc.Grouped() {
				// Store the chunk's bitmask with cache assistance.
				e.emit(isa.MicroOp{Class: isa.Store, Src1: m,
					Addr: w.FinalMask + mem.Addr(c)*mem.Addr(isa.MaskBytes(p.OpSize)),
					Size: isa.MaskBytes(p.OpSize)})
			}
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	})
}

// patternLanes returns pattern row r truncated to the instruction
// immediate (at most one tuple of 16 lanes, fewer for sub-tuple ops),
// which the engine tiles across the operand.
func (w *Workload) patternLanes(r int) []int32 {
	return w.pat[r][:min(int(w.Plan.OpSize)/4, db.NumFields)]
}

// q1hmcColumn generates the HMC-baseline column-at-a-time Q01
// aggregation: per chunk, load-compare instructions evaluate the
// shipdate filter and every group-key value in the vaults, each bitmask
// round-trips to the processor, and the processor reloads the measure
// columns through the cache hierarchy to fold masked lanes into its
// register accumulators — branchless, but every group-membership
// decision crosses the SerDes links twice.
func (w *Workload) q1hmcColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll
	// The chunk's load-compares, in issue order: the filter bounds, then
	// each returnflag and each linestatus value.
	cmps := w.hmcColumnCompares()
	nb := len(w.Desc.Stages[0].Bounds)

	vr := &vregs{}
	acc := &cpuAcc{vr: vr}
	group := 0
	// Per chunk: the load-compares with the filter ANDs, three measure
	// columns in line-sized loads, the multiply and 9 µops per group;
	// then the loop tail.
	per := min(p.Unroll, chunks)
	maxOps := per*(2*len(cmps)+3*((S+63)/64)+1+9*w.Desc.Groups) + 2
	return newChunkedStream(maxOps, per*len(cmps), func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.pc = 0x9800
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			cmpRead := func(k int) isa.Reg {
				cm := cmps[k]
				r := vr.fresh()
				e.offload(r, isa.RegNone, isa.OffloadInst{
					Target: isa.TargetHMC, Op: isa.CmpRead, ALU: cm.b.Kind,
					Addr: w.DSM.ColBase[cm.col] + mem.Addr(c*S), Size: p.OpSize, Imm: cm.b.Imm,
					Expect: w.want.at(k, c), OnResult: w.onResult,
				})
				return r
			}
			// Filter bitmask in the vault.
			m := isa.RegNone
			for k := 0; k < nb; k++ {
				r := cmpRead(k)
				if m == isa.RegNone {
					m = r
				} else {
					nm := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: r})
					m = nm
				}
			}
			// Key bitmasks in the vault, one compare per distinct value.
			var rfMask [db.RFValues]isa.Reg
			for v := range rfMask {
				rfMask[v] = cmpRead(nb + v)
			}
			var lsMask [db.LSValues]isa.Reg
			for v := range lsMask {
				lsMask[v] = cmpRead(nb + db.RFValues + v)
			}
			// Measure columns reload through the cache hierarchy, in
			// line-sized pieces.
			load := func(col int) isa.Reg {
				base := w.DSM.ColBase[col] + mem.Addr(c*S)
				var d isa.Reg
				for off := 0; off < S; off += 64 {
					piece := S - off
					if piece > 64 {
						piece = 64
					}
					d = vr.fresh()
					e.emit(isa.MicroOp{Class: isa.Load, Dst: d,
						Addr: base + mem.Addr(off), Size: uint32(piece)})
				}
				return d
			}
			qty := load(db.FieldQuantity)
			price := load(db.FieldExtendedPrice)
			disc := load(db.FieldDiscount)
			rev := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.IntMul, Dst: rev, Src1: price, Src2: disc})
			for g := 0; g < w.Desc.Groups; g++ {
				rf, ls := groupKey(g)
				km := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: km, Src1: rfMask[rf], Src2: lsMask[ls]})
				gm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: gm, Src1: km, Src2: m})
				masked := func(src isa.Reg) isa.Reg {
					t := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.IntALU, Dst: t, Src1: src, Src2: gm})
					return t
				}
				acc.add(e, isa.IntALU, g, AggCount, gm)
				acc.add(e, isa.IntALU, g, AggQty, masked(qty))
				acc.add(e, isa.IntALU, g, AggPrice, masked(price))
				acc.add(e, isa.IntALU, g, AggRevenue, masked(rev))
			}
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	})
}

// hmcColumn generates the HMC-baseline column-at-a-time scan: per column
// chunk, lane-uniform load-compare instructions run in the vaults, the
// processor combines the returned masks with the running bitmask (read
// and written with cache assistance) — branchless except loop control.
func (w *Workload) hmcColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll

	stages := w.Desc.Stages
	vr := &vregs{}
	stage := 0
	group := 0
	region := 0 // expected-result region of the stage's first bound
	// Per chunk: a load-compare and AND per bound, the previous-mask
	// load and AND, and the store; then the loop tail.
	nb := maxBounds(stages)
	per := min(p.Unroll, chunks)
	maxOps := per*(2*nb+2) + 2
	return newChunkedStream(maxOps, per*nb, func(e *emitter) bool {
		if stage >= len(stages) {
			return false
		}
		st := stages[stage]
		col := st.Col
		e.pc = uint64(0x4000 + 0x400*stage)
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			dataAddr := w.DSM.ColBase[col] + mem.Addr(c*S)
			var buf [2]isa.Reg
			results := buf[:0]
			// One load-compare per stage bound, straight from the
			// description.
			for i, cm := range st.Bounds {
				r := vr.fresh()
				results = append(results, r)
				e.offload(r, isa.RegNone, isa.OffloadInst{
					Target: isa.TargetHMC, Op: isa.CmpRead, ALU: cm.Kind,
					Addr: dataAddr, Size: p.OpSize, Imm: cm.Imm,
					Expect: w.want.at(region+i, c), OnResult: w.onResult,
				})
			}
			m := results[0]
			for _, r := range results[1:] {
				nm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: r})
				m = nm
			}
			if stage > 0 {
				prev := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Load, Dst: prev,
					Addr: w.MaskBase[stages[stage-1].Col] + mem.Addr(c)*mem.Addr(maskBytes),
					Size: maskBytes})
				nm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: prev})
				m = nm
			}
			e.emit(isa.MicroOp{Class: isa.Store, Src1: m,
				Addr: w.MaskBase[col] + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
		}
		e.loopTail(vr, group != groups-1)
		group++
		if group >= groups {
			group = 0
			region += len(st.Bounds)
			stage++
		}
		return true
	})
}
