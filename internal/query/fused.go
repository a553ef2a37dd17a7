package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// hiveFusedColumn generates HIVE's best-case column scan (the paper's
// Figure 3d "full scan in columns"): one pass in which every chunk's
// three predicate columns are loaded unconditionally, compared, and
// AND-combined in the register bank, storing only the final bitmask. No
// intermediate bitmask ever reaches the processor and no branch depends
// on in-memory data — but, unlike HIPE, nothing is skipped either: all
// three columns are always read, which is where HIPE's DRAM energy
// saving comes from.
//
// The structure is deliberately identical to the HIPE plan with the
// predicates removed (same wave depth, same phases), so the measured
// HIPE-vs-HIVE gap isolates the cost of predication itself: the extra
// sequencer occupancy of every predicated instruction's flag read and
// the data dependencies on flag producers.
func (w *Workload) hiveFusedColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	q := p.Q
	blocks := (chunks + p.Unroll - 1) / p.Unroll

	const tmpA, tmpB = 30, 31
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIVE}
	block := 0

	// Per chunk: three loads, nine compares and ANDs, and the mask
	// store — 13 instructions. Lock and unlock frame the block, which
	// ends in the loop branch.
	insts := 2 + 13*min(p.Unroll, chunks)
	return newChunkedStream(insts+1, insts, func(e *emitter) bool {
		if block >= blocks {
			return false
		}
		e.pc = 0x6800
		first, last := blockBounds(block, p.Unroll, chunks)

		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		for ws := first; ws < last; ws += hipeWave {
			we := ws + hipeWave
			if we > last {
				we = last
			}
			regX := func(k int) uint8 { return uint8(k - ws) }
			regM := func(k int) uint8 { return uint8(hipeWave + k - ws) }
			// Phase A: hoisted shipdate loads.
			for k := ws; k < we; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
					Addr: w.DSM.ColBase[db.FieldShipDate] + mem.Addr(k*S), Size: p.OpSize})
			}
			// Phase B+C: shipdate range into the chunk's mask register,
			// then immediately reuse the data register for the discount
			// load — the unpredicated plan is free to hoist it here.
			for k := ws; k < we; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpGE,
					Dst: tmpA, Src1: regX(k), UseImm: true, Imm: q.ShipLo})
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpLT,
					Dst: tmpB, Src1: regX(k), UseImm: true, Imm: q.ShipHi})
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
					Dst: regM(k), Src1: tmpA, Src2: tmpB})
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
					Addr: w.DSM.ColBase[db.FieldDiscount] + mem.Addr(k*S), Size: p.OpSize})
			}
			// Phase D+E: discount range refined into the running mask,
			// quantity load hoisted behind it.
			for k := ws; k < we; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpGE,
					Dst: tmpA, Src1: regX(k), UseImm: true, Imm: q.DiscLo})
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpLE,
					Dst: tmpB, Src1: regX(k), UseImm: true, Imm: q.DiscHi})
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
					Dst: tmpA, Src1: tmpA, Src2: tmpB})
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
					Dst: regM(k), Src1: tmpA, Src2: regM(k)})
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
					Addr: w.DSM.ColBase[db.FieldQuantity] + mem.Addr(k*S), Size: p.OpSize})
			}
			// Phase F: quantity compare, final AND, bitmask store.
			for k := ws; k < we; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpLT,
					Dst: tmpA, Src1: regX(k), UseImm: true, Imm: q.QtyHi})
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
					Dst: regM(k), Src1: tmpA, Src2: regM(k)})
				oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore, Src1: regM(k),
					Addr: w.FinalMask + mem.Addr(k)*mem.Addr(maskBytes), Size: p.OpSize,
					Expect: w.want.at(2, k), OnResult: w.onResult})
			}
		}
		oc.emitUnlock(e)
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: block != blocks-1})
		block++
		return true
	})
}

// q1hiveColumn generates HIVE's two-phase Q01 aggregation. Phase one is
// a filter pass: lock blocks compute each chunk's shipdate bitmask in
// the register bank and store it; the processor then fetches every
// bitmask back from DRAM and branches on whether the chunk holds any
// filtered tuple — the round trip HIPE eliminates. Phase two revisits
// the surviving chunks: the filter mask reloads into the bank, the key
// and measure columns load unconditionally, and every group's masked
// accumulation executes whether or not the group occurs in the chunk.
// A final block spills the 24 accumulator registers.
func (w *Workload) q1hiveColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	st := w.Desc.Stages[0]
	wave := p.Unroll
	if wave > hiveWave {
		wave = hiveWave
	}

	const tmpA, tmpB = 30, 31
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIVE}
	phase := 0
	pos := 0
	spilled := false
	selected := make([]int, 0, chunks)

	// The largest of the pass's blocks: a filter block (per chunk a
	// load, a compare per bound, the AND and the mask store, then the
	// fetch, test and branch), an aggregation block (per chunk the
	// mask reload, five loads, the multiply and 11 per group) and the
	// accumulator clear and spill blocks. Lock, unlock and the loop
	// branch frame each block.
	nb := len(st.Bounds)
	filter, agg := min(wave, chunks), min(p.Unroll, chunks)
	insts := 2 + max(filter*(nb+3), agg*(7+11*w.Desc.Groups), w.Desc.Groups*NumAggs)
	maxOps := max(insts+1, 2+filter*(nb+6)+1)
	return newChunkedStream(maxOps, insts, func(e *emitter) bool {
		if phase == 0 && pos >= chunks {
			// Filter pass complete: select the chunks with matches, and
			// zero the accumulator registers the filter pass clobbered.
			phase, pos = 1, 0
			for c := 0; c < chunks; c++ {
				if bitRange(w.prefix[0], c*tuplesPerChunk, (c+1)*tuplesPerChunk) {
					selected = append(selected, c)
				}
			}
			e.pc = 0xB200
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			w.q1ClearAccs(e, oc)
			oc.emitUnlock(e)
			return true
		}
		if phase == 1 && pos >= len(selected) {
			if spilled {
				return false
			}
			// One final block spills the accumulators.
			spilled = true
			e.pc = 0xB800
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			w.q1SpillAccs(e, oc)
			oc.emitUnlock(e)
			return true
		}
		if phase == 0 {
			// Filter pass: software-pipelined lock blocks, one register
			// per chunk, bitmasks stored for the processor's decision.
			e.pc = 0xB000
			first, last := blockBounds(pos/wave, wave, chunks)
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			for c := first; c < last; c++ {
				rD := uint8(c - first)
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
					Dst: rD, Addr: w.DSM.ColBase[st.Col] + mem.Addr(c*S), Size: p.OpSize})
			}
			for c := first; c < last; c++ {
				rD := uint8(c - first)
				dst := [2]uint8{tmpA, tmpB}
				for i, b := range st.Bounds {
					oc.emit(e, isa.OffloadInst{Op: isa.VALU,
						ALU: b.Kind, Dst: dst[i], Src1: rD, UseImm: true, Imm: b.Imm})
				}
				if len(st.Bounds) == 2 {
					oc.emit(e, isa.OffloadInst{Op: isa.VALU,
						ALU: isa.And, Dst: tmpA, Src1: tmpA, Src2: tmpB})
				}
				oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore,
					Src1: tmpA, Addr: w.MaskBase[st.Col] + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize,
					Expect: w.want.at(0, c), OnResult: w.onResult})
			}
			unlockAck := oc.emitUnlock(e)
			// Processor decision round trip: fetch each bitmask, branch
			// on whether the aggregation pass needs this chunk.
			for c := first; c < last; c++ {
				lm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Load, Dst: lm, Src1: unlockAck,
					Addr: w.MaskBase[st.Col] + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
				tv := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: lm})
				empty := !bitRange(w.prefix[0], c*tuplesPerChunk, (c+1)*tuplesPerChunk)
				e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: empty})
			}
			e.emit(isa.MicroOp{Class: isa.Branch, Taken: last != chunks})
			pos = last
			return true
		}
		// Aggregation pass: one lock block per group of surviving
		// chunks, each chunk folded sequentially into the live
		// accumulators.
		e.pc = 0xB400
		first := pos
		last := first + p.Unroll
		if last > len(selected) {
			last = len(selected)
		}
		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		for k := first; k < last; k++ {
			c := selected[k]
			oc.emit(e, isa.OffloadInst{Op: isa.VMaskLoad,
				Dst: q1RegFilter, Addr: w.MaskBase[st.Col] + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize})
			for _, ld := range q1Columns {
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
					Dst: ld.reg, Addr: w.DSM.ColBase[ld.col] + mem.Addr(c*S), Size: p.OpSize})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.VALU,
				ALU: isa.Mul, Dst: q1RegRev, Src1: q1RegPrice, Src2: q1RegDisc})
			w.q1EmitGroups(e, oc)
		}
		oc.emitUnlock(e)
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: last != len(selected)})
		pos = last
		return true
	})
}

// q1hipeColumn generates the HIPE predicated one-pass Q01 aggregation —
// the paper's predication argument applied to a grouped aggregate. Each
// chunk's shipdate filter computes into a mask register whose zero flag
// then gates, inside the memory, (a) the key and measure column loads —
// chunks wholly past the cutoff never touch DRAM — and (b) every
// group's masked accumulation, each predicated on its own membership
// mask's flag, so a group absent from a chunk costs squashed sequencer
// slots instead of functional-unit operations and flag waits. No
// bitmask ever travels to the processor and no branch depends on
// in-memory data.
func (w *Workload) q1hipeColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	st := w.Desc.Stages[0]
	blocks := (chunks + p.Unroll - 1) / p.Unroll

	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIPE}
	setupDone := false
	block := 0
	nz := func(reg uint8) isa.Predicate {
		return isa.Predicate{Valid: true, Reg: reg, WhenZero: false}
	}

	// Per chunk: the shipdate load, a compare per bound, up to two ANDs,
	// five loads, the multiply and 11 per group. Lock, the last block's
	// accumulator spill and unlock frame the block, which ends in the
	// loop branch; the setup block is smaller.
	perChunk := 1 + len(st.Bounds) + 2 + 5 + 1 + 11*w.Desc.Groups
	insts := 2 + min(p.Unroll, chunks)*perChunk + w.Desc.Groups*NumAggs
	return newChunkedStream(insts+1, insts, func(e *emitter) bool {
		if !setupDone {
			setupDone = true
			// One-time block: load the lane-validity row (sub-register
			// chunks would otherwise leak tail-lane mask bits into the
			// accumulators) and zero the accumulator registers.
			e.pc = 0xC000
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
				Dst: q1RegValid, Addr: w.ValidRow, Size: 256})
			w.q1ClearAccs(e, oc)
			oc.emit(e, isa.OffloadInst{Op: isa.Unlock})
			return true
		}
		if block >= blocks {
			return false
		}
		e.pc = 0xC100
		first, last := blockBounds(block, p.Unroll, chunks)
		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		for c := first; c < last; c++ {
			// Filter stage: unpredicated shipdate load and compare,
			// confined to the chunk's real lanes.
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: q1RegShip,
				Addr: w.DSM.ColBase[st.Col] + mem.Addr(c*S), Size: p.OpSize})
			dst := [2]uint8{q1RegTmpA, q1RegTmpB}
			for i, b := range st.Bounds {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: b.Kind,
					Dst: dst[i], Src1: q1RegShip, UseImm: true, Imm: b.Imm})
			}
			if len(st.Bounds) == 2 {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
					Dst: q1RegTmpA, Src1: q1RegTmpA, Src2: q1RegTmpB})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
				Dst: q1RegFilter, Src1: q1RegTmpA, Src2: q1RegValid})
			// Key and measure loads, predicated on the filter flag:
			// chunks wholly past the cutoff never touch DRAM.
			for _, ld := range q1Columns {
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: ld.reg,
					Addr: w.DSM.ColBase[ld.col] + mem.Addr(c*S), Size: p.OpSize,
					Pred: nz(q1RegFilter)})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.Mul,
				Dst: q1RegRev, Src1: q1RegPrice, Src2: q1RegDisc, Pred: nz(q1RegFilter)})
			w.q1EmitGroups(e, oc)
		}
		if block == blocks-1 {
			w.q1SpillAccs(e, oc)
		}
		oc.emitUnlock(e)
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: block != blocks-1})
		block++
		return true
	})
}
