package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// The HIVE/HIPE generators emit software-pipelined lock blocks: all of a
// wave's DRAM loads are hoisted to the top of the block so the
// interlocked register bank can overlap them, then the per-chunk compute
// follows. The wave depth is bounded by the unroll factor and by
// register pressure — and register pressure is where HIPE pays: a
// predicated chain keeps each chunk's running mask register live across
// the whole block, halving the usable wave depth versus HIVE. That is
// the micro-architectural reading of the paper's "additional data
// dependencies" costing HIPE ~15% against HIVE.

// hiveWave is HIVE's maximum wave depth: one data register per chunk
// (r0..r29), three shared temporaries (r30..r32), two pattern registers
// (r33, r34).
const hiveWave = 30

// hipeWave is HIPE's maximum wave depth: each chunk needs a data
// register and a live mask register (rX = j, rM = 15+j), plus shared
// temporaries r30..r32.
const hipeWave = 15

// pimTuple generates the HIVE tuple-at-a-time scan: a one-time block
// loads the description's pattern rows into the bound registers (r33
// on, in GE, LE order); then per wave, a lock block hoists the
// tuple-data loads, pattern-compares each chunk against the bound
// registers, and stores the lane bitmasks; the processor then fetches
// each bitmask, branches per tuple and acts on matches — a selection
// materialises them, a grouped description reloads each through the
// cache, branches on the group key and accumulates in registers, so the
// aggregation decision still round-trips through the processor. Lock
// blocks are serialised through the processor — the control dependency
// the paper blames for HIVE's tuple-at-a-time behaviour.
func (w *Workload) pimTuple(target isa.Target) *chunkedStream {
	p := &w.Plan
	S := int(p.OpSize)
	tuplesPerChunk, stride := tupleChunking(S)
	chunks := w.Table.N / tuplesPerChunk
	wave := min(p.Unroll, hiveWave)
	groups := (chunks + wave - 1) / wave
	maskBytes := isa.MaskBytes(p.OpSize)
	row0, rows := w.Desc.patternRows()

	const regPattern = 33
	const tmpA, tmpB = 30, 31
	vr := &vregs{}
	acc := w.newCPUAcc(vr)
	oc := &offloadChain{vr: vr, target: target}
	setupDone := false
	group := 0
	matched := 0
	pcBase := w.Desc.pcBase(0x5000, 0xA000)

	// Per chunk: the data load, a compare and AND per pattern row and
	// the mask store; then the bitmask fetch and per tuple a test,
	// branch and the match action. Lock, unlock and the loop tail frame
	// the block.
	per := min(wave, chunks)
	insts := 2 + (2*rows+1)*per
	maxOps := insts + per*(1+tuplesPerChunk*(2+w.matchOps(true))) + 2
	return newChunkedStream(maxOps, insts, func(e *emitter) bool {
		if !setupDone {
			setupDone = true
			// One-time block: load the pattern rows into the reserved
			// bound registers.
			e.pc = pcBase
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			for k := 0; k < rows; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
					Dst: uint8(regPattern + k), Addr: w.Pattern[row0+k], Size: 256})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.Unlock})
			return true
		}
		if group >= groups {
			return false
		}
		e.pc = pcBase + 0x100
		first, last := blockBounds(group, wave, chunks)
		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		// Phase A: hoisted data loads, one register per chunk.
		for c := first; c < last; c++ {
			rD := uint8(c - first)
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
				Dst: rD, Addr: w.NSM.Base + mem.Addr(c*stride), Size: p.OpSize})
		}
		// Phase B: per-chunk pattern compares into shared temporaries,
		// bitmask stored straight out of the temp.
		for c := first; c < last; c++ {
			rD := uint8(c - first)
			for k := 0; k < rows; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: rowALU[row0+k],
					Dst: uint8(tmpA + k), Src1: rD, Src2: uint8(regPattern + k)})
			}
			if rows == 2 {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU,
					ALU: isa.And, Dst: tmpA, Src1: tmpA, Src2: tmpB})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore,
				Src1: tmpA, Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize,
				Expect: w.want.at(wantGELE, c), OnResult: w.onResult})
		}
		unlockAck := oc.emitUnlock(e)

		// Processor control flow: fetch each chunk's bitmask, test per
		// tuple, act on matches.
		for c := first; c < last; c++ {
			lm := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.Load, Dst: lm, Src1: unlockAck,
				Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
			w.emitTupleTests(e, vr, acc, lm, c*tuplesPerChunk, tuplesPerChunk, &matched)
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	})
}

// hiveColumn generates HIVE's column-at-a-time scan (Figure 3b/3c): per
// predicate stage, software-pipelined lock blocks compute the chunk
// bitmasks in-memory; between stages the processor must fetch every
// bitmask back from DRAM and branch to decide which chunks of the next
// column to process — the round trip HIPE eliminates. A grouped
// description continues with a tail over the chunks that survive the
// last stage: a block clears the accumulator registers the stage pass
// clobbered, one aggregation block per group of surviving chunks
// reloads the final bitmask into the bank, loads the key and measure
// columns unconditionally and runs every group's masked accumulation
// whether or not the group occurs in the chunk, and a last block spills
// the accumulators. The clear and spill blocks run even when no chunk
// survives.
func (w *Workload) hiveColumn() *chunkedStream {
	p := &w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	stages := w.Desc.Stages
	grouped := w.Desc.Grouped()
	wave := min(p.Unroll, hiveWave)

	const tmpA, tmpB, tmpP = 30, 31, 32
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIVE}
	// stage indexes the predicate stages; len(stages) is a grouped
	// plan's aggregation pass, and one past it its spill.
	stage := 0
	pos := 0 // index into the selected chunk list of this stage
	selected := make([]int, 0, chunks)
	for c := 0; c < chunks; c++ {
		selected = append(selected, c) // stage 0 processes everything
	}
	pcBase := w.Desc.pcBase(0x6000, 0xB000)

	// A stage block holds per chunk the data load, a compare per bound,
	// the bound AND and the mask store, and on refinement stages the
	// previous-mask load and AND; then the bitmask fetch, test and
	// branch. A grouped plan's blocks also include an aggregation block
	// (per chunk the mask reload, five loads, the multiply and 11 per
	// group) and the accumulator clear and spill blocks. Lock, unlock
	// and the loop branch frame each block.
	perChunk := maxBounds(stages) + 3
	if len(stages) > 1 {
		perChunk += 2
	}
	per := min(wave, chunks)
	insts := 2 + per*perChunk
	maxOps := insts + 3*per + 1
	if grouped {
		insts = max(insts, 2+min(p.Unroll, chunks)*(7+11*w.Desc.Groups), 2+w.Desc.Groups*NumAggs)
		maxOps = max(maxOps, insts+1)
	}
	return newChunkedStream(maxOps, insts, func(e *emitter) bool {
		for pos >= len(selected) {
			if stage >= len(stages) {
				// The aggregation pass is complete: one final block
				// spills the accumulators.
				if stage > len(stages) {
					return false
				}
				stage++
				e.pc = 0xB800
				oc.emit(e, isa.OffloadInst{Op: isa.Lock})
				w.q1SpillAccs(e, oc)
				oc.emitUnlock(e)
				return true
			}
			// Advance to the next stage; recompute the chunks that can
			// still produce matches.
			stage++
			pos = 0
			next := selected[:0]
			for c := 0; c < chunks; c++ {
				if bitRange(w.prefix[stage-1], c*tuplesPerChunk, (c+1)*tuplesPerChunk) {
					next = append(next, c)
				}
			}
			selected = next
			if stage == len(stages) {
				if !grouped {
					return false
				}
				// Zero the accumulator registers the stage pass
				// clobbered.
				e.pc = 0xB200
				oc.emit(e, isa.OffloadInst{Op: isa.Lock})
				w.q1ClearAccs(e, oc)
				oc.emitUnlock(e)
				return true
			}
		}
		if stage == len(stages) {
			// Aggregation pass: one lock block per group of surviving
			// chunks, each chunk folded sequentially into the live
			// accumulators.
			e.pc = 0xB400
			first, last := pos, min(pos+p.Unroll, len(selected))
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			for _, c := range selected[first:last] {
				oc.emit(e, isa.OffloadInst{Op: isa.VMaskLoad,
					Dst: q1RegFilter, Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize})
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
		}
		st := stages[stage]
		col := st.Col
		e.pc = pcBase + uint64(0x400*stage)

		first, last := pos, min(pos+wave, len(selected))
		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		// Phase A: hoisted column-data loads.
		for k := first; k < last; k++ {
			c := selected[k]
			rD := uint8(k - first)
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
				Dst: rD, Addr: w.DSM.ColBase[col] + mem.Addr(c*S), Size: p.OpSize})
		}
		// Phase B: per-chunk compares, previous-column mask AND, store —
		// the bound list comes from the query description.
		for k := first; k < last; k++ {
			c := selected[k]
			rD := uint8(k - first)
			if stage > 0 {
				oc.emit(e, isa.OffloadInst{Op: isa.VMaskLoad,
					Dst: tmpP, Addr: w.MaskBase[stages[stage-1].Col] + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize})
			}
			dst := [2]uint8{tmpA, tmpB}
			for i, b := range st.Bounds {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU,
					ALU: b.Kind, Dst: dst[i], Src1: rD, UseImm: true, Imm: b.Imm})
			}
			if len(st.Bounds) == 2 {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU,
					ALU: isa.And, Dst: tmpA, Src1: tmpA, Src2: tmpB})
			}
			if stage > 0 {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU,
					ALU: isa.And, Dst: tmpA, Src1: tmpA, Src2: tmpP})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore,
				Src1: tmpA, Addr: w.MaskBase[col] + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize,
				Expect: w.want.at(stage, c), OnResult: w.onResult})
		}
		unlockAck := oc.emitUnlock(e)

		// Processor decision round trip: fetch each fresh bitmask from
		// memory (first touch per line goes to DRAM) and branch on
		// whether the next pass needs this chunk.
		for k := first; k < last; k++ {
			c := selected[k]
			lm := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.Load, Dst: lm, Src1: unlockAck,
				Addr: w.MaskBase[col] + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
			tv := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: lm})
			empty := !bitRange(w.prefix[stage], c*tuplesPerChunk, (c+1)*tuplesPerChunk)
			e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: empty})
		}
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: last != len(selected)})
		pos = last
		return true
	})
}

// hipeColumn generates the HIPE predicated scan — the paper's
// contribution in action. One pass over the chunks: each lock block
// hoists the shipdate loads of a wave, then touches discount and
// quantity only under predicates chained off the running mask's zero
// flag, and stores the final bitmask under a predicate too. No bitmask
// ever travels to the processor and no branch depends on in-memory data
// — but the predication match logic must wait for each flag before it
// can decide, and every predicated instruction reads the flag through
// the match logic: the "additional data dependencies" behind the
// paper's 15% cost against HIVE's unconditional full scan.
func (w *Workload) hipeColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	stages := w.Desc.Stages
	blocks := (chunks + p.Unroll - 1) / p.Unroll

	const tmpA, tmpB, tmpC = 30, 31, 32
	// regAcc accumulates per-lane revenue partial sums for Aggregate
	// plans (the in-memory Q06 aggregation extension).
	const regAcc = 33
	// Aggregation keeps each chunk's discount vector live through the
	// whole chunk (the revenue multiply needs it after the quantity
	// stage), costing a third register per chunk and shrinking the wave.
	wave := hipeWave
	if p.Aggregate {
		wave = 10
	}
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIPE}
	block := 0

	// Per chunk and stage: the load, a compare per bound and up to two
	// ANDs; then the mask store and, aggregating, four more
	// instructions. Lock, accumulator spill and unlock frame the block,
	// which ends in the loop branch.
	perChunk := 1
	if p.Aggregate {
		perChunk += 4
	}
	for _, st := range stages {
		perChunk += len(st.Bounds) + 3
	}
	insts := 3 + min(p.Unroll, chunks)*perChunk
	return newChunkedStream(insts+1, insts, func(e *emitter) bool {
		if block >= blocks {
			return false
		}
		e.pc = 0x7000
		first, last := blockBounds(block, p.Unroll, chunks)
		nz := func(reg uint8) isa.Predicate {
			return isa.Predicate{Valid: true, Reg: reg, WhenZero: false}
		}

		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		for ws := first; ws < last; ws += wave {
			we := ws + wave
			if we > last {
				we = last
			}
			regX := func(k int) uint8 { return uint8(k - ws) }        // data register
			regM := func(k int) uint8 { return uint8(wave + k - ws) } // running mask
			// regC holds the chunk's discount vector for the revenue
			// multiply (Aggregate plans only).
			regC := func(k int) uint8 { return uint8(2*wave + k - ws) }
			// Predicate stages, straight from the query description: a
			// load phase (predicated after the first stage — squashed
			// chunks never touch DRAM) then a compute phase that refines
			// each chunk's running mask register.
			for s, st := range stages {
				dataReg := regX
				if p.Aggregate && st.Col == db.FieldDiscount {
					dataReg = regC // discounts stay live for the revenue multiply
				}
				for k := ws; k < we; k++ {
					ld := isa.OffloadInst{Op: isa.VLoad, Dst: dataReg(k),
						Addr: w.DSM.ColBase[st.Col] + mem.Addr(k*S), Size: p.OpSize}
					if s > 0 {
						ld.Pred = nz(regM(k))
					}
					oc.emit(e, ld)
				}
				last := s == len(stages)-1
				for k := ws; k < we; k++ {
					pred := isa.Predicate{}
					if s > 0 {
						pred = nz(regM(k))
					}
					dst := [2]uint8{tmpA, tmpB}
					for i, b := range st.Bounds {
						d := dst[i]
						if s == 0 && len(st.Bounds) == 1 {
							d = regM(k) // single first-stage bound is the mask
						}
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: b.Kind,
							Dst: d, Src1: dataReg(k), UseImm: true, Imm: b.Imm, Pred: pred})
					}
					switch {
					case s == 0 && len(st.Bounds) == 2:
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
							Dst: regM(k), Src1: tmpA, Src2: tmpB})
					case s > 0 && len(st.Bounds) == 2:
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
							Dst: tmpC, Src1: tmpA, Src2: tmpB, Pred: pred})
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
							Dst: regM(k), Src1: tmpC, Src2: regM(k), Pred: pred})
					case s > 0 && len(st.Bounds) == 1:
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
							Dst: regM(k), Src1: tmpA, Src2: regM(k), Pred: pred})
					}
					if last {
						oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore, Src1: regM(k),
							Addr: w.FinalMask + mem.Addr(k)*mem.Addr(maskBytes), Size: p.OpSize,
							Pred:   nz(regM(k)),
							Expect: w.want.at(s, k), OnResult: w.onResult})
					}
				}
			}
			if p.Aggregate {
				// Phase G: the Q06 aggregation in memory. Extended
				// prices load only for matching chunks; the masked
				// products accumulate into the shared accumulator. The
				// Add itself is unpredicated so a squash (which zeroes
				// its tmp operand) cannot zero the accumulator.
				for k := ws; k < we; k++ {
					oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
						Addr: w.DSM.ColBase[db.FieldExtendedPrice] + mem.Addr(k*S), Size: p.OpSize,
						Pred: nz(regM(k))})
					oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.Mul,
						Dst: tmpA, Src1: regX(k), Src2: regC(k), Pred: nz(regM(k))})
					oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
						Dst: tmpA, Src1: tmpA, Src2: regM(k), Pred: nz(regM(k))})
					oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.Add,
						Dst: regAcc, Src1: regAcc, Src2: tmpA})
				}
			}
		}
		if p.Aggregate && block == blocks-1 {
			// Spill the accumulator so the processor (and verification)
			// can read the per-lane partial sums.
			oc.emit(e, isa.OffloadInst{Op: isa.VStore, Src1: regAcc,
				Addr: w.AccRegion, Size: isa.RegisterBytes})
		}
		oc.emitUnlock(e)
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: block != blocks-1})
		block++
		return true
	})
}
