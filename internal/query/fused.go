package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// hiveFusedColumn generates HIVE's best-case column scan (the paper's
// Figure 3d "full scan in columns"): one pass in which every chunk's
// predicate columns are loaded unconditionally, compared, and
// AND-combined in the register bank, storing only the final bitmask. No
// intermediate bitmask ever reaches the processor and no branch depends
// on in-memory data — but, unlike HIPE, nothing is skipped either: every
// predicate column is always read, which is where HIPE's DRAM energy
// saving comes from.
//
// The structure is deliberately identical to the HIPE plan with the
// predicates removed (same wave depth, same phases), so the measured
// HIPE-vs-HIVE gap isolates the cost of predication itself: the extra
// sequencer occupancy of every predicated instruction's flag read and
// the data dependencies on flag producers.
func (w *Workload) hiveFusedColumn() *chunkedStream {
	p := &w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	stages := w.Desc.Stages
	blocks := (chunks + p.Unroll - 1) / p.Unroll

	const tmpA, tmpB = 30, 31
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIVE}
	block := 0

	// Per chunk and stage: the load, a compare per bound and the ANDs
	// folding them into the running mask; then the mask store. Lock and
	// unlock frame the block, which ends in the loop branch.
	perChunk := 1
	for s, st := range stages {
		perChunk += 2 * len(st.Bounds)
		if s > 0 {
			perChunk++
		}
	}
	insts := 2 + perChunk*min(p.Unroll, chunks)
	return newChunkedStream(insts+1, insts, func(e *emitter) bool {
		if block >= blocks {
			return false
		}
		e.pc = 0x6800
		first, last := blockBounds(block, p.Unroll, chunks)

		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		for ws := first; ws < last; ws += hipeWave {
			we := min(ws+hipeWave, last)
			regX := func(k int) uint8 { return uint8(k - ws) }
			regM := func(k int) uint8 { return uint8(hipeWave + k - ws) }
			// Phase A: hoisted first-stage loads.
			for k := ws; k < we; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
					Addr: w.DSM.ColBase[stages[0].Col] + mem.Addr(k*S), Size: p.OpSize})
			}
			// Per stage: the bounds refined into the chunk's running
			// mask register, then immediately the data register reused
			// for the next stage's load — the unpredicated plan is free
			// to hoist it here. The last stage stores the final bitmask
			// instead.
			for s, st := range stages {
				for k := ws; k < we; k++ {
					dst := [2]uint8{tmpA, tmpB}
					if s == 0 && len(st.Bounds) == 1 {
						dst[0] = regM(k) // single first-stage bound is the mask
					}
					for i, b := range st.Bounds {
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: b.Kind,
							Dst: dst[i], Src1: regX(k), UseImm: true, Imm: b.Imm})
					}
					switch {
					case s == 0 && len(st.Bounds) == 2:
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
							Dst: regM(k), Src1: tmpA, Src2: tmpB})
					case s > 0 && len(st.Bounds) == 2:
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
							Dst: tmpA, Src1: tmpA, Src2: tmpB})
						fallthrough
					case s > 0:
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
							Dst: regM(k), Src1: tmpA, Src2: regM(k)})
					}
					if s == len(stages)-1 {
						oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore, Src1: regM(k),
							Addr: w.FinalMask + mem.Addr(k)*mem.Addr(maskBytes), Size: p.OpSize,
							Expect: w.want.at(s, k), OnResult: w.onResult})
						continue
					}
					oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
						Addr: w.DSM.ColBase[stages[s+1].Col] + mem.Addr(k*S), Size: p.OpSize})
				}
			}
		}
		oc.emitUnlock(e)
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: block != blocks-1})
		block++
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
