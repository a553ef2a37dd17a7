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

// pimTuple generates the HIVE tuple-at-a-time scan: per wave, a lock
// block hoists the tuple-data loads, pattern-compares each chunk against
// the bound registers, and stores the lane bitmasks; the processor then
// fetches each bitmask, branches per tuple and materialises matches.
// Lock blocks are serialised through the processor — the control
// dependency the paper blames for HIVE's tuple-at-a-time behaviour.
func (w *Workload) pimTuple(target isa.Target) *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk, stride := tupleChunking(S)
	chunks := w.Table.N / tuplesPerChunk
	wave := p.Unroll
	if wave > hiveWave {
		wave = hiveWave
	}
	groups := (chunks + wave - 1) / wave
	maskBytes := isa.MaskBytes(p.OpSize)

	const regGE, regLE = 33, 34
	const tmpA, tmpB = 30, 31
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: target}
	setupDone := false
	group := 0
	matched := 0

	// Per chunk: the data load, two compares, the AND and the mask
	// store; then the bitmask fetch and per tuple a test, branch and at
	// most one store. Lock, unlock and the loop tail frame the block.
	per := min(wave, chunks)
	insts := 2 + 5*per
	maxOps := insts + per*(1+3*tuplesPerChunk) + 2
	return newChunkedStream(maxOps, insts, func(e *emitter) bool {
		if !setupDone {
			setupDone = true
			// One-time block: load the GE/LE pattern rows into the two
			// reserved bound registers.
			e.pc = 0x5000
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
				Dst: regGE, Addr: w.PatternGE, Size: 256})
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
				Dst: regLE, Addr: w.PatternLE, Size: 256})
			oc.emit(e, isa.OffloadInst{Op: isa.Unlock})
			return true
		}
		if group >= groups {
			return false
		}
		e.pc = 0x5100
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
			oc.emit(e, isa.OffloadInst{Op: isa.VALU,
				ALU: isa.CmpGE, Dst: tmpA, Src1: rD, Src2: regGE})
			oc.emit(e, isa.OffloadInst{Op: isa.VALU,
				ALU: isa.CmpLE, Dst: tmpB, Src1: rD, Src2: regLE})
			oc.emit(e, isa.OffloadInst{Op: isa.VALU,
				ALU: isa.And, Dst: tmpA, Src1: tmpA, Src2: tmpB})
			oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore,
				Src1: tmpA, Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize,
				Expect: w.want.at(wantGELE, c), OnResult: w.onResult})
		}
		unlockAck := oc.emitUnlock(e)

		// Processor control flow: fetch each chunk's bitmask, test per
		// tuple, materialise matches.
		for c := first; c < last; c++ {
			lm := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.Load, Dst: lm, Src1: unlockAck,
				Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
			for t := 0; t < tuplesPerChunk; t++ {
				i := c*tuplesPerChunk + t
				tv := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: lm})
				match := w.tupleMatch(i)
				e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
				if match {
					e.emit(isa.MicroOp{Class: isa.Store,
						Addr: w.Materialize + mem.Addr(matched*db.TupleBytes), Size: db.TupleBytes})
					matched++
				}
			}
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	})
}

// q1pimTuple generates the HIVE tuple-at-a-time Q01 aggregation: per
// wave, a lock block hoists the tuple-data loads and pattern-compares
// the shipdate filter, storing lane bitmasks; the processor fetches
// each bitmask, branches per tuple, reloads matching tuples through the
// cache, branches on the group key and accumulates in registers — the
// aggregation decision still round-trips through the processor.
func (w *Workload) q1pimTuple(target isa.Target) *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk, stride := tupleChunking(S)
	chunks := w.Table.N / tuplesPerChunk
	wave := p.Unroll
	if wave > hiveWave {
		wave = hiveWave
	}
	groups := (chunks + wave - 1) / wave
	maskBytes := isa.MaskBytes(p.OpSize)

	const regLE = 33
	const tmpA = 30
	vr := &vregs{}
	acc := &cpuAcc{vr: vr}
	oc := &offloadChain{vr: vr, target: target}
	setupDone := false
	group := 0

	// Per chunk: the data load, the compare and the mask store; then
	// the bitmask fetch and per tuple a test, branch, reload and
	// emitTupleAccumulate's 8. Lock, unlock and the loop tail frame the
	// block.
	per := min(wave, chunks)
	insts := 2 + 3*per
	maxOps := insts + per*(1+11*tuplesPerChunk) + 2
	return newChunkedStream(maxOps, insts, func(e *emitter) bool {
		if !setupDone {
			setupDone = true
			// One-time block: load the LE pattern row into the bound
			// register (Q01's filter is a single upper bound).
			e.pc = 0xA000
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
				Dst: regLE, Addr: w.PatternLE, Size: 256})
			oc.emit(e, isa.OffloadInst{Op: isa.Unlock})
			return true
		}
		if group >= groups {
			return false
		}
		e.pc = 0xA100
		first, last := blockBounds(group, wave, chunks)
		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		// Phase A: hoisted data loads, one register per chunk.
		for c := first; c < last; c++ {
			rD := uint8(c - first)
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad,
				Dst: rD, Addr: w.NSM.Base + mem.Addr(c*stride), Size: p.OpSize})
		}
		// Phase B: per-chunk filter compare, bitmask stored from the temp.
		for c := first; c < last; c++ {
			rD := uint8(c - first)
			oc.emit(e, isa.OffloadInst{Op: isa.VALU,
				ALU: isa.CmpLE, Dst: tmpA, Src1: rD, Src2: regLE})
			oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore,
				Src1: tmpA, Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: p.OpSize,
				Expect: w.want.at(wantLE, c), OnResult: w.onResult})
		}
		unlockAck := oc.emitUnlock(e)

		// Processor control flow: fetch each chunk's bitmask, branch per
		// tuple, accumulate matching tuples' groups.
		for c := first; c < last; c++ {
			lm := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.Load, Dst: lm, Src1: unlockAck,
				Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
			for t := 0; t < tuplesPerChunk; t++ {
				i := c*tuplesPerChunk + t
				tv := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: lm})
				match := w.tupleMatch(i)
				e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
				if !match {
					continue
				}
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

// hiveColumn generates HIVE's column-at-a-time scan (Figure 3b/3c): per
// column, software-pipelined lock blocks compute the chunk bitmasks
// in-memory; between columns the processor must fetch every bitmask back
// from DRAM and branch to decide which portions of the next column to
// process — the round trip HIPE eliminates.
func (w *Workload) hiveColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	stages := w.Desc.Stages
	wave := p.Unroll
	if wave > hiveWave {
		wave = hiveWave
	}

	const tmpA, tmpB, tmpP = 30, 31, 32
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIVE}
	stage := 0
	pos := 0 // index into the selected chunk list of this stage
	selected := make([]int, 0, chunks)
	for c := 0; c < chunks; c++ {
		selected = append(selected, c) // stage 0 processes everything
	}

	// Per chunk: the data load, previous-mask load, a compare per bound,
	// two ANDs and the mask store; then the bitmask fetch, test and
	// branch. Lock, unlock and the loop branch frame the block.
	per := min(wave, chunks)
	insts := 2 + per*(maxBounds(stages)+5)
	maxOps := insts + 3*per + 1
	return newChunkedStream(maxOps, insts, func(e *emitter) bool {
		for pos >= len(selected) {
			// Advance to the next column; recompute the chunks that can
			// still produce matches.
			stage++
			pos = 0
			if stage >= len(stages) {
				return false
			}
			next := selected[:0]
			for c := 0; c < chunks; c++ {
				if bitRange(w.prefix[stage-1], c*tuplesPerChunk, (c+1)*tuplesPerChunk) {
					next = append(next, c)
				}
			}
			selected = next
			if len(selected) == 0 {
				stage = len(stages)
				return false
			}
		}
		st := stages[stage]
		col := st.Col
		e.pc = uint64(0x6000 + 0x400*stage)

		first := pos
		last := first + wave
		if last > len(selected) {
			last = len(selected)
		}
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
		// whether the next column needs this chunk.
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
