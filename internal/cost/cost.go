// Package cost is the adaptive planner's analytic cycle and energy
// model: for a query plan and a workload profile (tuple count plus the
// per-stage chunk-survival fractions its predicate induces on the
// actual table), it estimates the simulated cycles each registered
// backend would spend — without running the simulator — and ranks
// candidate backends so the serving and sweep layers can route each
// query to its predicted-fastest backend.
//
// The model is structural: each estimator walks the plan's declarative
// query description exactly the way the backend's generator does —
// counting engine instructions, DRAM loads, offload round trips, cache
// lines and predication squashes — and multiplies the counts by
// per-operation costs derived from the simulator's own latency
// constants (dram.Timing access latencies, link round trips, the
// engines' clock divider/issue width/predication slots, Table I
// functional units). Steady-state overlap — bank-level parallelism,
// software-pipelined lock blocks, the HMC in-flight window, MOB-limited
// memory parallelism — cannot be read off a single constant, so each
// derived cost carries an overlap divisor calibrated once against the
// simulator; the calibration test in this package pins that the
// resulting ranking agrees with measured cycles across the selectivity
// grids, including the paper's crossovers.
//
// The model's job is ranking, not cycle-exact prediction: absolute
// errors of tens of percent are acceptable as long as the ordering of
// backends — including the selectivity crossovers — matches the
// simulator's measurements.
package cost

import (
	"fmt"
	"math"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/query"
)

// Params are the per-operation costs, in CPU cycles, the estimators
// multiply instruction counts by. Build them with ParamsFor (or
// DefaultParams for the Table I machine).
type Params struct {
	// EngineSlot is the steady-state cost of one engine instruction in a
	// lock block: sequencer issue (ClockDivider CPU cycles per engine
	// cycle, Width instructions per cycle) plus in-order instruction
	// delivery from the processor.
	EngineSlot float64
	// EngineMem is the extra cost of an engine VLoad/VStore/VMaskStore
	// over EngineSlot: the vault data-bus burst amortised across the
	// vault's banks (bank-level parallelism hides activation and CAS).
	// Calibrated at 256 B; the estimators scale it by operation size.
	EngineMem float64
	// SquashPipelined / SquashSerial are the costs of a squashed
	// predicated instruction: the sequencer still occupies the
	// predication flag port but skips the functional unit and DRAM.
	// Software pipelining (the Q06 waves) hides part of the slot; the
	// serial Q01 blocks (wave depth 1 — every register live) expose the
	// whole flag-port read.
	SquashPipelined float64
	SquashSerial    float64
	// PredPipelined / PredSerial are the extra cost of an ACTIVE
	// predicated instruction over its unpredicated form: the flag-port
	// read plus the data dependency on the flag producer. In pipelined
	// waves the dependency overlaps other chunks' work; in serial blocks
	// it is exposed — the "additional data dependencies" the paper
	// measures as HIPE's ~15% cost against HIVE.
	PredPipelined float64
	PredSerial    float64
	// HMCRoundTripBase/PerB give the effective cost of one HMC
	// load-compare instruction: half a link round trip plus the unloaded
	// access latency amortised over the host controller's in-flight
	// window, which scales with the operand burst.
	HMCRoundTripBase float64
	HMCRoundTripPerB float64
	// CacheMiss is the effective cost of streaming one 64 B line through
	// the cache hierarchy: the unloaded DRAM access plus link traversal
	// over the achieved memory-level parallelism of the core.
	CacheMiss float64
	// CacheMLP discounts additional independent lines issued from the
	// same loop iteration (e.g. the Q01 measure-column reloads).
	CacheMLP float64
	// CPUOp / CPUVecOp are effective costs of processor scalar/vector
	// ALU work in a streaming loop (superscalar issue hides most of it).
	CPUOp    float64
	CPUVecOp float64
	// MispredictPenalty is the branch flush cost (Table I).
	MispredictPenalty float64

	// Energy constants for the planner-level audit (DRAM array reads
	// plus, for processor-path backends, link serialisation — the two
	// components that dominate the simulator's measured breakdowns).
	DRAMReadBitPJ float64
	LinkBitPJ     float64
}

// Overlap divisors calibrated once against the simulator (see the
// package comment): they encode how much of each unloaded latency the
// steady-state machine hides.
const (
	bankOverlap    = 8.0  // banks per vault hide activation behind bursts
	mobOverlap     = 4.0  // achieved MLP of the x86 streaming scan
	deliverySlots  = 1.3  // in-order offload delivery residual per instruction
	flagPortSerial = 1.4  // exposed flag-port read in serial blocks
	flagDepSerial  = 6.2  // exposed flag-producer dependency in serial blocks
	squashHide     = 0.65 // fraction of a slot a pipelined squash still costs
	cacheMLPShare  = 0.55 // discount for extra independent lines per iteration
	cpuOpCost      = 1.5  // effective scalar op cost in a streaming loop
	cpuVecOpCost   = 0.7  // effective vector op cost (2 SIMD pipes)

	// Small-operation corrections, fitted to the simulator's measured
	// per-chunk costs across op sizes (each engine memory op below the
	// full 256 B register pays un-amortised activation and sub-burst
	// mask-write granularity; each HMC instruction's fixed command +
	// activation cost stops amortising across its shrinking burst).
	engineSmallOpPenalty = 22.0 // per engine mem op, × (256/S − 1)
	hmcSmallOpExp        = 0.7  // HMC round trip ∝ (256/S)^0.7
	// Software-pipelining slack: lock blocks shallower than the full
	// wave depth expose a share of each instruction's latency.
	pipeSlack = 0.55
)

// pipeFactor is the per-chunk cost multiplier of a pipelined engine
// plan whose block depth (the unroll factor) is shallower than the
// register bank's maximum wave depth.
func pipeFactor(unroll, wave int) float64 {
	if unroll > wave {
		unroll = wave
	}
	if unroll < 1 {
		unroll = 1
	}
	return 1 + pipeSlack*(float64(wave)/float64(unroll)-1)
}

// ParamsFor derives the model parameters from a machine configuration
// and energy model.
func ParamsFor(mc machine.Config, em energy.Model) Params {
	hipeCfg := mc.HIPE
	slot := float64(hipeCfg.ClockDivider)*(1+1/float64(hipeCfg.Width)) + deliverySlots
	// The burst term isolated from the fixed activation+CAS part.
	burst256 := float64(mc.DRAM.AccessLatency(256, mem.Read) - mc.DRAM.AccessLatency(8, mem.Read))
	linkRT := 2*float64(mc.Links.Latency) + float64(mc.Links.PacketOverhead)/float64(mc.Links.BytesPerCycle)
	access256 := float64(mc.DRAM.AccessLatency(256, mem.Read))
	access64 := float64(mc.DRAM.AccessLatency(64, mem.Read))
	predSlot := float64(hipeCfg.PredExtraSlots) * float64(hipeCfg.ClockDivider) / float64(hipeCfg.Width)
	return Params{
		EngineSlot:        slot,
		EngineMem:         burst256 / bankOverlap,
		SquashPipelined:   slot * squashHide,
		SquashSerial:      slot + flagPortSerial,
		PredPipelined:     predSlot,
		PredSerial:        flagDepSerial,
		HMCRoundTripBase:  linkRT / 2,
		HMCRoundTripPerB:  access256 / float64(mc.HMC.MaxInFlight) / 256,
		CacheMiss:         (access64 + 2*float64(mc.Links.Latency)) / mobOverlap,
		CacheMLP:          cacheMLPShare,
		CPUOp:             cpuOpCost,
		CPUVecOp:          cpuVecOpCost,
		MispredictPenalty: float64(mc.CPU.MispredictPenalty),
		DRAMReadBitPJ:     em.ReadBitPJ,
		LinkBitPJ:         em.LinkBitPJ,
	}
}

// DefaultParams derives the model from the paper's Table I machine and
// default energy constants.
func DefaultParams() Params {
	return ParamsFor(machine.Default(), energy.Default())
}

// Estimate is the model's prediction for one candidate plan.
type Estimate struct {
	Plan query.Plan
	// Cycles is the predicted simulated service time.
	Cycles float64
	// DRAMBytes is the predicted DRAM data traffic (squash-adjusted).
	DRAMBytes float64
	// EnergyPJ is the planner-level DRAM+link energy estimate.
	EnergyPJ float64
}

// Fixed per-run overheads (machine warm-up, setup blocks, accumulator
// drain), calibrated against the simulator's measured intercepts.
const (
	fixX86Q6    = 1280
	fixX86Q1    = 4400
	fixHMC      = 770
	fixEngineQ6 = 700
	fixEngineQ1 = 600
)

// q1MeasureCols is the engine plans' key/measure column count
// (returnflag, linestatus, quantity, extendedprice, discount).
const q1MeasureCols = 5

// EstimatePlan predicts the cycles and energy of one concrete plan over
// the profiled workload. Auto plans must be resolved first (use Pick).
// Only the plan's shape is validated here: callers trim candidates to
// their execution granularity's table-dependent envelope first (the
// serving layer validates against shard row counts, the sweep engine
// against the cell's tuple count — see Plan.Candidates).
func EstimatePlan(pr Params, p query.Plan, prof Profile) (Estimate, error) {
	if p.Auto() {
		return Estimate{}, fmt.Errorf("cost: estimate needs a concrete plan, got %s", p)
	}
	if err := p.Validate(); err != nil {
		return Estimate{}, err
	}
	switch p.Arch {
	case query.X86, query.HMC, query.HIVE, query.HIPE:
	default:
		// A newly registered backend validates through the registry but
		// has no estimator yet: report it so Pick skips the candidate
		// instead of guessing (or crashing) — the planner degrades to
		// routing among the modelled backends.
		return Estimate{}, fmt.Errorf("cost: no cost model for backend %s", p.Arch)
	}
	var est Estimate
	if p.Strategy == query.ColumnAtATime {
		est = estimateColumn(pr, p, prof)
	} else {
		est = estimateTuple(pr, p, prof)
	}
	est.Plan = p
	est.EnergyPJ = est.DRAMBytes*8*pr.DRAMReadBitPJ + est.DRAMBytes*8*pr.LinkBitPJ*linkShare(p.Arch)
	return est, nil
}

// linkShare is the fraction of DRAM traffic that crosses the SerDes
// links: all of it for the processor-side x86 and HMC-result paths,
// almost none for the engines' in-memory loads (instruction delivery
// and acks only).
func linkShare(a query.Arch) float64 {
	switch a {
	case query.X86, query.HMC:
		return 1
	default:
		return 0.05
	}
}

// estimateColumn models the column-at-a-time plans — the serving
// shapes. The instruction counts mirror the generators in
// internal/query (x86.go, hmcgen.go, pimgen.go, fused.go); the
// survival fractions come from the workload profile.
func estimateColumn(pr Params, p query.Plan, prof Profile) Estimate {
	S := float64(p.OpSize)
	chunks := float64(prof.Tuples) * db.ColumnWidth / S
	stages := prof.Stages
	memC := pr.EngineMem*S/256 + engineSmallOpPenalty*(256/S-1)
	// The processor's per-chunk bitmask decision fetch: masks are S/32
	// bytes, so a cache line amortises over 64/(S/32) chunks.
	maskFetch := math.Max(pr.CacheMiss*(S/32)/64, 2*pr.CPUOp)

	switch p.Arch {
	case query.X86:
		if p.Kind == query.Q1Agg {
			// q1x86Column: per chunk 6 column loads (overlapped at the
			// core's MLP), the filter compare, and 6 groups × 8 masked
			// vector accumulates.
			perChunk := 6*(S/64)*pr.CacheMiss*pr.CacheMLP +
				float64(1+db.NumGroups*8)*pr.CPUVecOp
			return Estimate{Cycles: fixX86Q1 + chunks*perChunk,
				DRAMBytes: 6 * float64(prof.Tuples) * db.ColumnWidth}
		}
		// x86Column: one pass per predicate stage, each streaming the
		// column through the cache plus a handful of mask ops.
		perChunk := (S/64)*pr.CacheMiss + 4*pr.CPUOp
		return Estimate{Cycles: fixX86Q6 + float64(len(stages))*chunks*perChunk,
			DRAMBytes: float64(len(stages)) * float64(prof.Tuples) * db.ColumnWidth}

	case query.HMC:
		rt := (pr.HMCRoundTripBase + pr.HMCRoundTripPerB*256) * math.Pow(256/S, hmcSmallOpExp)
		if p.Kind == query.Q1Agg {
			// q1hmcColumn: 1 filter + RFValues + LSValues CmpReads per
			// chunk, 3 measure columns reloaded through the cache, 6
			// groups × 8 scalar accumulates.
			cmpReads := float64(1 + db.RFValues + db.LSValues)
			perChunk := cmpReads*rt + 3*(S/64)*pr.CacheMiss*pr.CacheMLP +
				float64(db.NumGroups*8)*pr.CPUVecOp
			return Estimate{Cycles: fixHMC + chunks*perChunk,
				DRAMBytes: chunks * (cmpReads*S + 3*S)}
		}
		// hmcColumn: one CmpRead per stage bound plus cached mask
		// read-modify-write.
		var cmpReads float64
		for _, st := range stages {
			cmpReads += float64(len(st.Bounds))
		}
		perChunk := cmpReads*rt + 4*pr.CPUOp
		return Estimate{Cycles: fixHMC + chunks*perChunk,
			DRAMBytes: chunks * cmpReads * S}

	case query.HIVE:
		if p.Kind == query.Q1Agg {
			// hiveColumn, grouped: a pipelined filter pass over every chunk
			// (load, compare(s), mask store, then the processor's
			// decision fetch), then a SERIAL aggregation pass over the
			// surviving chunks only: mask reload + 5 column loads +
			// multiply + 6 groups × 11 accumulate instructions.
			st0 := stages[0]
			filterInst := 2 + float64(len(st0.Bounds)) + boolF(len(st0.Bounds) == 2)
			filter := filterInst*pr.EngineSlot + 2*memC + maskFetch
			aggInst := float64(2+q1MeasureCols) + float64(db.NumGroups*11)
			agg := aggInst*pr.EngineSlot + 6*memC
			surv := prof.FinalSurvival()
			return Estimate{
				Cycles:    fixEngineQ1 + chunks*(filter+surv*agg),
				DRAMBytes: chunks * (S + surv*6*S),
			}
		}
		if p.Fused {
			// hiveFusedColumn: every chunk pays 3 loads, 8 ALU ops and
			// one mask store, unconditionally; blocks shallower than
			// the wave depth expose latency.
			perChunk := (12*pr.EngineSlot + 4*memC) * pipeFactor(p.Unroll, 15)
			return Estimate{Cycles: fixEngineQ6 + chunks*perChunk,
				DRAMBytes: chunks * 3 * S}
		}
		// hiveColumn: per stage, surviving chunks pay the engine work
		// plus the processor's bitmask decision round trip.
		var cycles, bytes float64
		for s, st := range stages {
			surv := 1.0
			if s > 0 {
				surv = prof.Survival[s-1]
			}
			inst := 2 + float64(len(st.Bounds)) + boolF(len(st.Bounds) == 2)
			if s > 0 {
				inst += 2 // mask reload + AND with previous column
			}
			perChunk := (inst*pr.EngineSlot+2*memC)*pipeFactor(p.Unroll, 30) + maskFetch + pr.CPUOp
			cycles += chunks * surv * perChunk
			bytes += chunks * surv * S
		}
		return Estimate{Cycles: fixEngineQ6 + cycles, DRAMBytes: bytes}

	case query.HIPE:
		if p.Kind == query.Q1Agg {
			// q1hipeColumn: one SERIAL pass; per chunk the filter stage
			// always runs, the key/measure loads and every group's mask
			// ops are predicated on the filter flag (squashed when the
			// chunk is wholly past the cutoff), and the 24 accumulator
			// updates are unpredicated.
			st0 := stages[0]
			filterInst := 2 + float64(len(st0.Bounds)) + boolF(len(st0.Bounds) == 2)
			predInst := float64(q1MeasureCols) + 1 + float64(db.NumGroups*7)
			accInst := float64(db.NumGroups * 4)
			surv := prof.FinalSurvival()
			perChunk := filterInst*pr.EngineSlot + memC +
				surv*(predInst*(pr.EngineSlot+pr.PredSerial)+6*memC+accInst*pr.EngineSlot) +
				(1-surv)*((predInst+accInst)*pr.SquashSerial)
			return Estimate{
				Cycles:    fixEngineQ1 + chunks*perChunk,
				DRAMBytes: chunks * (S + surv*6*S),
			}
		}
		// hipeColumn: pipelined waves; stage 0 always runs, later
		// stages' loads and refinements are predicated on the running
		// mask — squashed chunks cost flag-read slots, not DRAM.
		pipe := pipeFactor(p.Unroll, 15)
		var cycles, bytes float64
		for s, st := range stages {
			surv := 1.0
			if s > 0 {
				surv = prof.Survival[s-1]
			}
			nb := len(st.Bounds)
			inst := 1 + float64(nb) // load + compares
			switch {
			case s == 0 && nb == 2:
				inst++ // AND into the mask register
			case s > 0 && nb == 2:
				inst += 2
			case s > 0 && nb == 1:
				inst++
			}
			memOps := 1.0
			if s == len(stages)-1 {
				inst++ // final (predicated) mask store
				memOps++
			}
			if s == 0 && len(stages) > 1 {
				cycles += chunks * (inst*pr.EngineSlot + memOps*memC) * pipe
				bytes += chunks * S
				continue
			}
			active := (inst*(pr.EngineSlot+pr.PredPipelined) + memOps*memC) * pipe
			squashed := inst * pr.SquashPipelined * pipe
			cycles += chunks * (surv*active + (1-surv)*squashed)
			bytes += chunks * surv * S
		}
		return Estimate{Cycles: fixEngineQ6 + cycles, DRAMBytes: bytes}
	}
	panic("cost: unreachable")
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// estimateTuple models the tuple-at-a-time plans at lower fidelity —
// enough to rank them against the column plans they always lose to at
// the serving shapes (the row store reads every field of every tuple
// and branches per tuple).
func estimateTuple(pr Params, p query.Plan, prof Profile) Estimate {
	n := float64(prof.Tuples)
	tupleLines := float64(db.TupleBytes) / 64
	sel := prof.Sel
	// Branch misprediction: the predictor misses on the minority side.
	minority := sel
	if minority > 0.5 {
		minority = 1 - minority
	}
	branch := minority * pr.MispredictPenalty

	switch p.Arch {
	case query.X86:
		perTuple := tupleLines*pr.CacheMiss + 4*pr.CPUVecOp + branch
		fix := float64(fixX86Q6)
		if p.Kind == query.Q1Agg {
			perTuple += sel * (8*pr.CPUOp + 2*branch)
			fix = fixX86Q1
		}
		return Estimate{Cycles: fix + n*perTuple, DRAMBytes: n * db.TupleBytes}
	case query.HMC:
		S := float64(p.OpSize)
		if S < db.TupleBytes {
			S = db.TupleBytes
		}
		tuplesPerChunk := S / db.TupleBytes
		chunks := n / tuplesPerChunk
		rt := (pr.HMCRoundTripBase + pr.HMCRoundTripPerB*256) * math.Pow(256/S, hmcSmallOpExp)
		cmpReads := 2.0
		if p.Kind == query.Q1Agg {
			cmpReads = 1
		}
		perChunk := cmpReads*rt + tuplesPerChunk*(2*pr.CPUOp+branch)
		if p.Kind == query.Q1Agg {
			perChunk += tuplesPerChunk * sel * (tupleLines*pr.CacheMiss*pr.CacheMLP + 8*pr.CPUOp)
		}
		return Estimate{Cycles: fixHMC + chunks*perChunk, DRAMBytes: chunks * cmpReads * S}
	default: // HIVE (HIPE registers no tuple plan; EstimatePlan gated the rest)
		S := float64(p.OpSize)
		if S < db.TupleBytes {
			S = db.TupleBytes
		}
		tuplesPerChunk := S / db.TupleBytes
		chunks := n / tuplesPerChunk
		memC := pr.EngineMem * S / 256
		engineInst := 5.0 // load + pattern compares + AND + mask store
		perChunk := engineInst*pr.EngineSlot + 2*memC + pr.CacheMiss +
			tuplesPerChunk*(2*pr.CPUOp+branch)
		if p.Kind == query.Q1Agg {
			perChunk += tuplesPerChunk * sel * (tupleLines*pr.CacheMiss*pr.CacheMLP + 8*pr.CPUOp)
		}
		return Estimate{Cycles: fixEngineQ6 + chunks*perChunk, DRAMBytes: chunks * S}
	}
}
