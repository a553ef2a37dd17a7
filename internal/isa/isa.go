// Package isa defines the instruction formats shared by the processor
// model and the in-memory engines:
//
//   - CPU micro-ops (µops) consumed by the out-of-order core model,
//     including AVX-512-style vector operations and offload ops that
//     carry HMC/HIVE/HIPE instructions toward the memory cube;
//   - the offload instruction sets themselves: the HMC 2.1-style
//     read-update/compare instructions, the HIVE register-bank vector ISA
//     (lock/unlock, vload/vstore, vector ALU), and the HIPE extension
//     that adds a predicate field to every load/store/ALU instruction;
//   - the functional lane semantics (32-bit lanes over 256-byte vector
//     registers) used by the engines so that simulated queries compute
//     real answers.
package isa

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/mem"
)

// Reg is a virtual CPU register name. The OoO model treats register
// numbers as already renamed: every producer µop names a fresh Reg.
type Reg uint32

// RegNone marks an absent operand.
const RegNone Reg = 0

// OpClass classifies a µop for functional-unit selection.
type OpClass uint8

// µop classes. Latencies and port counts are configured in the cpu
// package (Table I).
const (
	Nop OpClass = iota
	IntALU
	IntMul
	IntDiv
	FPALU
	FPMul
	FPDiv
	// VecALU / VecCmp are AVX-style vector ops executed on the FP/SIMD
	// pipes; Size carries the vector width in bytes (up to 64 = AVX-512).
	VecALU
	VecCmp
	Load
	Store
	Branch
	// Offload carries an OffloadInst toward the memory cube. The core
	// treats it like an uncacheable memory operation: it occupies a
	// load-queue entry until the cube's response arrives.
	Offload
)

var opClassNames = [...]string{
	"nop", "int-alu", "int-mul", "int-div", "fp-alu", "fp-mul", "fp-div",
	"vec-alu", "vec-cmp", "load", "store", "branch", "offload",
}

// String implements fmt.Stringer.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// MicroOp is one instruction as seen by the core model. The stream is a
// post-resolution trace: Taken records the actual branch outcome, and
// wrong-path work is charged as a flush penalty rather than simulated.
type MicroOp struct {
	PC    uint64
	Class OpClass

	Dst  Reg
	Src1 Reg
	Src2 Reg

	// Addr/Size describe memory operands (Load/Store/Offload) and vector
	// widths (VecALU/VecCmp).
	Addr mem.Addr
	Size uint32

	// Taken is the actual direction of a Branch µop.
	Taken bool

	// Uncacheable routes Load/Store around the cache hierarchy (used for
	// streaming stores and bitmask reads declared non-temporal).
	Uncacheable bool

	// Offload is the cube instruction carried by an Offload µop. It is
	// borrowed, not owned: a stream may reuse the instruction's storage
	// once the µop has been handed on (see cpu.Stream), so a consumer
	// that keeps an instruction beyond that point keeps a copy.
	Offload *OffloadInst
}

// IsMem reports whether the µop occupies a memory-order-buffer entry.
func (u *MicroOp) IsMem() bool {
	return u.Class == Load || u.Class == Store || u.Class == Offload
}

// Target selects which in-memory engine executes an offload instruction.
type Target uint8

// Offload targets.
const (
	TargetHMC Target = iota
	TargetHIVE
	TargetHIPE
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case TargetHMC:
		return "hmc"
	case TargetHIVE:
		return "hive"
	case TargetHIPE:
		return "hipe"
	default:
		return fmt.Sprintf("target(%d)", uint8(t))
	}
}

// OffloadOp is the operation of a cube instruction.
type OffloadOp uint8

// Offload operations. Lock/Unlock/VLoad/VStore/VMaskStore/VALU form the
// HIVE/HIPE register-bank ISA; CmpRead/AddImm/CompareSwap are the HMC
// baseline's read-operate instructions.
const (
	// Lock acquires the engine's register bank for the issuing thread.
	Lock OffloadOp = iota
	// Unlock releases the register bank and acknowledges the CPU.
	Unlock
	// VLoad moves Size bytes from DRAM at Addr into register Dst.
	VLoad
	// VStore moves Size bytes from register Src1 to DRAM at Addr.
	VStore
	// VMaskStore compacts register Src1 (one bit per 32-bit lane) and
	// stores the bitmask (Size/32 bytes) to DRAM at Addr.
	VMaskStore
	// VMaskLoad reads a compacted bitmask of Size/32 bytes from Addr and
	// expands it into SIMD lane masks in register Dst (the inverse of
	// VMaskStore) — how a column-at-a-time scan reloads the previous
	// column's intermediate result into the engine.
	VMaskLoad
	// VALU performs a lane-wise ALU operation: Dst = Src1 op Src2/Imm.
	VALU
	// CmpRead is the HMC baseline load-compare: read Size bytes at Addr,
	// lane-compare against Imm, return the compacted bitmask to the CPU.
	CmpRead
	// AddImm is the classic HMC read-modify-write: add Imm to every lane
	// at Addr in place.
	AddImm
	// CompareSwap is the original HMC compare-and-swap update
	// instruction: if the first lane equals Imm, overwrite it with Imm2.
	CompareSwap
)

var offloadOpNames = [...]string{
	"lock", "unlock", "vload", "vstore", "vmaskstore", "vmaskload", "valu",
	"cmpread", "addimm", "cas",
}

// String implements fmt.Stringer.
func (o OffloadOp) String() string {
	if int(o) < len(offloadOpNames) {
		return offloadOpNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ALUKind selects the lane operation of a VALU or CmpRead instruction.
type ALUKind uint8

// Lane operations over 32-bit signed lanes. Compare operations produce
// all-ones (match) or all-zeros (no match) lanes, SIMD style.
const (
	ALUNone ALUKind = iota
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	And
	Or
	Xor
	Add
	Sub
	Mul
)

var aluKindNames = [...]string{
	"none", "cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge",
	"and", "or", "xor", "add", "sub", "mul",
}

// String implements fmt.Stringer.
func (k ALUKind) String() string {
	if int(k) < len(aluKindNames) {
		return aluKindNames[k]
	}
	return fmt.Sprintf("alu(%d)", uint8(k))
}

// IsCompare reports whether the kind produces a lane mask.
func (k ALUKind) IsCompare() bool { return k >= CmpEQ && k <= CmpGE }

// Register-bank shape shared by HIVE (balanced design) and HIPE, from the
// paper: 36 registers of 256 bytes (9 KB total), 64 32-bit lanes each.
const (
	NumRegisters  = 36
	RegisterBytes = 256
	LaneBytes     = 4
	LanesPerReg   = RegisterBytes / LaneBytes
)

// Predicate gates a HIPE instruction on another register's zero flag.
type Predicate struct {
	// Valid marks the instruction as predicated at all.
	Valid bool
	// Reg names the register whose zero flag is tested.
	Reg uint8
	// WhenZero executes the instruction when the flag is set (true) or
	// clear (false). Q06-style plans use WhenZero=false: "touch the next
	// column only if something matched".
	WhenZero bool
}

// String implements fmt.Stringer.
func (p Predicate) String() string {
	if !p.Valid {
		return ""
	}
	if p.WhenZero {
		return fmt.Sprintf("@z(r%d)", p.Reg)
	}
	return fmt.Sprintf("@nz(r%d)", p.Reg)
}

// OffloadInst is one instruction executed by an in-memory engine.
type OffloadInst struct {
	Target Target
	Op     OffloadOp
	ALU    ALUKind

	Dst  uint8
	Src1 uint8
	Src2 uint8

	Addr mem.Addr
	Size uint32
	Imm  int32
	Imm2 int32

	// Pattern, when non-empty, supplies per-lane immediates for CmpRead
	// (tiled across the operand): the 16-byte immediate field of an HMC
	// instruction packet interpreted as lane constants, which is how a
	// row-store compare evaluates different predicates on different
	// tuple fields in a single instruction.
	Pattern []int32

	// UseImm makes VALU use Imm as the second operand instead of Src2.
	UseImm bool

	// FP selects floating-point functional-unit latency for VALU.
	FP bool

	// Pred is the HIPE predication field. Must be zero-valued for
	// TargetHMC and TargetHIVE instructions.
	Pred Predicate

	// Expect is the result the issuer expects the engine to compute for
	// this instruction. Engines never read it: they hand it to OnResult
	// beside the actual result, so one shared callback can check every
	// instruction of a run without a closure per instruction.
	Expect []byte `json:"-"`

	// OnResult, if non-nil, receives the functional result an engine
	// computes for this instruction (the compacted bitmask of a CmpRead
	// or VMaskStore, the old value of a CompareSwap) and the
	// instruction's Expect. The result slice is only valid during the
	// call: engines hand out scratch buffers, so consumers must compare
	// or copy, never retain. Used by the query runner and the tests to
	// cross-check engine results against reference evaluation.
	OnResult func(result, expect []byte) `json:"-"`

	// validated memoises a successful Validate: the engines validate on
	// Submit, and a window-full rejection resubmits the same instruction
	// every cycle — revalidating an immutable instruction each retry was
	// a measurable share of simulation time. Mutating an instruction
	// after validation is a programming error.
	validated bool
}

// Validate checks structural well-formedness of an instruction.
func (in *OffloadInst) Validate() error {
	if in.validated {
		return nil
	}
	switch in.Op {
	case Lock, Unlock:
		if in.Pred.Valid {
			return fmt.Errorf("isa: %s cannot be predicated", in.Op)
		}
		return nil
	case VLoad, VStore, VMaskStore, VMaskLoad, VALU:
		if in.Target == TargetHMC {
			return fmt.Errorf("isa: %s is not an HMC baseline instruction", in.Op)
		}
	case CmpRead, AddImm, CompareSwap:
		if in.Target != TargetHMC {
			return fmt.Errorf("isa: %s only exists in the HMC baseline ISA", in.Op)
		}
	default:
		return fmt.Errorf("isa: unknown op %d", in.Op)
	}
	if in.Pred.Valid {
		if in.Target != TargetHIPE {
			return fmt.Errorf("isa: predication requires the HIPE target, got %s", in.Target)
		}
		if int(in.Pred.Reg) >= NumRegisters {
			return fmt.Errorf("isa: predicate register %d out of range", in.Pred.Reg)
		}
	}
	switch in.Op {
	case VLoad, VStore, VMaskStore, VMaskLoad:
		if in.Size == 0 || in.Size > RegisterBytes {
			return fmt.Errorf("isa: %s size %d outside 1..%d", in.Op, in.Size, RegisterBytes)
		}
		if in.Size%LaneBytes != 0 {
			return fmt.Errorf("isa: %s size %d not lane-aligned", in.Op, in.Size)
		}
	case CmpRead:
		if in.Size == 0 || in.Size > RegisterBytes || in.Size%LaneBytes != 0 {
			return fmt.Errorf("isa: cmpread size %d invalid", in.Size)
		}
		if !in.ALU.IsCompare() {
			return fmt.Errorf("isa: cmpread needs a compare kind, got %s", in.ALU)
		}
		if len(in.Pattern) != 0 && int(in.Size)/LaneBytes%len(in.Pattern) != 0 {
			return fmt.Errorf("isa: cmpread pattern of %d lanes does not tile %d bytes",
				len(in.Pattern), in.Size)
		}
	case VALU:
		if in.ALU == ALUNone {
			return fmt.Errorf("isa: valu without ALU kind")
		}
	}
	// Checked individually (not via a slice literal): Validate runs once
	// per instruction on the submit path and must not allocate.
	if int(in.Dst) >= NumRegisters {
		return fmt.Errorf("isa: register %d out of range (bank has %d)", in.Dst, NumRegisters)
	}
	if int(in.Src1) >= NumRegisters {
		return fmt.Errorf("isa: register %d out of range (bank has %d)", in.Src1, NumRegisters)
	}
	if int(in.Src2) >= NumRegisters {
		return fmt.Errorf("isa: register %d out of range (bank has %d)", in.Src2, NumRegisters)
	}
	in.validated = true
	return nil
}

// String renders a compact disassembly, e.g.
// "hipe vload r3, [0x1000], 256B @nz(r1)".
func (in *OffloadInst) String() string {
	s := fmt.Sprintf("%s %s", in.Target, in.Op)
	switch in.Op {
	case VLoad, VMaskLoad:
		s += fmt.Sprintf(" r%d, [%#x], %dB", in.Dst, in.Addr, in.Size)
	case VStore, VMaskStore:
		s += fmt.Sprintf(" [%#x], r%d, %dB", in.Addr, in.Src1, in.Size)
	case VALU:
		if in.UseImm {
			s += fmt.Sprintf(".%s r%d, r%d, #%d", in.ALU, in.Dst, in.Src1, in.Imm)
		} else {
			s += fmt.Sprintf(".%s r%d, r%d, r%d", in.ALU, in.Dst, in.Src1, in.Src2)
		}
	case CmpRead:
		s += fmt.Sprintf(".%s [%#x], #%d, %dB", in.ALU, in.Addr, in.Imm, in.Size)
	case AddImm:
		s += fmt.Sprintf(" [%#x], #%d, %dB", in.Addr, in.Imm, in.Size)
	case CompareSwap:
		s += fmt.Sprintf(" [%#x], #%d -> #%d", in.Addr, in.Imm, in.Imm2)
	}
	if in.Pred.Valid {
		s += " " + in.Pred.String()
	}
	return s
}
