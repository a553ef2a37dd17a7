package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// hmcTuple generates the HMC-baseline tuple-at-a-time scan: per chunk of
// OpSize bytes of tuple data, two load-compare instructions (GE and LE
// lane patterns) execute inside the vault; the processor ANDs the
// returned bitmasks, branches per tuple, and materialises matches with
// cache-assisted stores.
func (w *Workload) hmcTuple() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk, stride := tupleChunking(S)
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll
	patGE, patLE := w.patternLanes()

	vr := &vregs{}
	group := 0
	matched := 0
	// Per chunk: two load-compares, the AND, a test, branch and at most
	// one store per tuple, and the mask store; then the loop tail.
	per := min(p.Unroll, chunks)
	maxOps := per*(4+3*tuplesPerChunk) + 2
	return newChunkedStream(maxOps, 2*per, func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.pc = 0x3000
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			firstTuple := c * tuplesPerChunk
			addr := w.NSM.Base + mem.Addr(c*stride)

			g, l := vr.fresh(), vr.fresh()
			e.offload(g, isa.RegNone, isa.OffloadInst{
				Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpGE,
				Addr: addr, Size: p.OpSize, Pattern: patGE,
				Expect: w.want.at(wantGE, c), OnResult: w.onResult,
			})
			e.offload(l, isa.RegNone, isa.OffloadInst{
				Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLE,
				Addr: addr, Size: p.OpSize, Pattern: patLE,
				Expect: w.want.at(wantLE, c), OnResult: w.onResult,
			})
			m := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.IntALU, Dst: m, Src1: g, Src2: l})
			for t := 0; t < tuplesPerChunk; t++ {
				i := firstTuple + t
				tv := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: m})
				match := w.tupleMatch(i)
				e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
				if match {
					e.emit(isa.MicroOp{Class: isa.Store,
						Addr: w.Materialize + mem.Addr(matched*db.TupleBytes),
						Size: db.TupleBytes})
					matched++
				}
			}
			// Store the chunk's bitmask with cache assistance.
			e.emit(isa.MicroOp{Class: isa.Store, Src1: m,
				Addr: w.FinalMask + mem.Addr(c)*mem.Addr(isa.MaskBytes(p.OpSize)),
				Size: isa.MaskBytes(p.OpSize)})
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	})
}

// patternLanes returns the GE and LE patterns truncated to the
// instruction immediate (at most one tuple of 16 lanes, fewer for
// sub-tuple ops), which the engine tiles across the operand.
func (w *Workload) patternLanes() (ge, le []int32) {
	n := int(w.Plan.OpSize) / 4
	if n > db.NumFields {
		n = db.NumFields
	}
	return w.patGE[:n], w.patLE[:n]
}

// q1hmcTuple generates the HMC-baseline tuple-at-a-time Q01
// aggregation: per chunk of tuple data, one load-compare instruction
// evaluates the shipdate filter pattern inside the vault; the bitmask
// round-trips to the processor, which branches per tuple, reloads
// matching tuples through the cache hierarchy, branches again on the
// group key, and accumulates the group's running sums in registers.
func (w *Workload) q1hmcTuple() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk, stride := tupleChunking(S)
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll
	_, patLE := w.patternLanes()

	vr := &vregs{}
	acc := &cpuAcc{vr: vr}
	group := 0
	// Per chunk: the load-compare, then per tuple a test, branch, reload
	// and emitTupleAccumulate's 8; then the loop tail.
	per := min(p.Unroll, chunks)
	maxOps := per*(1+11*tuplesPerChunk) + 2
	return newChunkedStream(maxOps, per, func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.pc = 0x9000
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			firstTuple := c * tuplesPerChunk
			addr := w.NSM.Base + mem.Addr(c*stride)

			m := vr.fresh()
			e.offload(m, isa.RegNone, isa.OffloadInst{
				Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLE,
				Addr: addr, Size: p.OpSize, Pattern: patLE,
				Expect: w.want.at(wantLE, c), OnResult: w.onResult,
			})
			for t := 0; t < tuplesPerChunk; t++ {
				i := firstTuple + t
				tv := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: m})
				match := w.tupleMatch(i)
				e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
				if !match {
					continue
				}
				// Cache-path reload of the matching tuple, then the
				// shared group-dispatch-and-accumulate block.
				tup := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Load, Dst: tup,
					Addr: w.NSM.TupleAddr(i), Size: db.TupleBytes})
				w.emitTupleAccumulate(e, acc, i, tup)
			}
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	})
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
