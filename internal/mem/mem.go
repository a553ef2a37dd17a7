// Package mem defines the memory protocol shared by every level of the
// simulated machine: physical addresses, access requests, and the HMC
// address interleaving that decides which vault, bank and row a physical
// address lives in.
package mem

import (
	"fmt"
	"math/bits"

	"github.com/hipe-sim/hipe/internal/sim"
)

// Addr is a physical byte address inside the simulated HMC.
type Addr uint64

// Kind distinguishes the direction of a memory access.
type Kind uint8

const (
	// Read moves data from DRAM toward the requester.
	Read Kind = iota
	// Write moves data from the requester into DRAM.
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one memory access as seen by the DRAM subsystem. A request
// must not cross a DRAM row boundary; use Geometry.Split to break larger
// or misaligned accesses into row-sized pieces.
type Request struct {
	Addr Addr
	Size uint32
	Kind Kind
	// Done, if non-nil, is invoked exactly once when the access completes
	// (data returned for reads, write committed to the row for writes).
	Done func(now sim.Cycle)
}

// Location is the decomposition of a physical address into HMC topology
// coordinates.
type Location struct {
	Vault uint32
	Bank  uint32
	Row   uint64
	Col   uint32 // byte offset within the row buffer
}

// Geometry describes the HMC structure used for address interleaving.
// Addresses interleave low-order first across vaults, then banks, so that
// a sequential stream spreads 256 B chunks round-robin over all vaults —
// the layout the HMC 2.1 specification mandates for maximum bandwidth and
// the one the paper's streaming results rely on.
type Geometry struct {
	Vaults   uint32 // number of vaults (32 in HMC 2.1)
	Banks    uint32 // DRAM banks per vault (8)
	RowBytes uint32 // row buffer size in bytes (256)
	Total    uint64 // total capacity in bytes (8 GiB)
}

// HMC21 returns the geometry of the paper's HMC v2.1 configuration.
func HMC21() Geometry {
	return Geometry{Vaults: 32, Banks: 8, RowBytes: 256, Total: 8 << 30}
}

// Validate checks that all fields are powers of two and consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Vaults == 0 || g.Vaults&(g.Vaults-1) != 0:
		return fmt.Errorf("mem: vaults %d not a power of two", g.Vaults)
	case g.Banks == 0 || g.Banks&(g.Banks-1) != 0:
		return fmt.Errorf("mem: banks %d not a power of two", g.Banks)
	case g.RowBytes == 0 || g.RowBytes&(g.RowBytes-1) != 0:
		return fmt.Errorf("mem: row bytes %d not a power of two", g.RowBytes)
	case g.Total == 0 || g.Total&(g.Total-1) != 0:
		return fmt.Errorf("mem: total %d not a power of two", g.Total)
	case g.Total < uint64(g.Vaults)*uint64(g.Banks)*uint64(g.RowBytes):
		return fmt.Errorf("mem: total %d smaller than one row per bank", g.Total)
	}
	return nil
}

func log2u32(v uint32) uint { return uint(bits.TrailingZeros32(v)) }

// Decompose maps a physical address to its vault/bank/row/column.
func (g Geometry) Decompose(a Addr) Location {
	colBits := log2u32(g.RowBytes)
	vaultBits := log2u32(g.Vaults)
	bankBits := log2u32(g.Banks)
	x := uint64(a)
	col := uint32(x & uint64(g.RowBytes-1))
	x >>= colBits
	vault := uint32(x & uint64(g.Vaults-1))
	x >>= vaultBits
	bank := uint32(x & uint64(g.Banks-1))
	x >>= bankBits
	return Location{Vault: vault, Bank: bank, Row: x, Col: col}
}

// Compose is the inverse of Decompose.
func (g Geometry) Compose(l Location) Addr {
	colBits := log2u32(g.RowBytes)
	vaultBits := log2u32(g.Vaults)
	bankBits := log2u32(g.Banks)
	x := l.Row
	x = x<<bankBits | uint64(l.Bank)
	x = x<<vaultBits | uint64(l.Vault)
	x = x<<colBits | uint64(l.Col)
	return Addr(x)
}

// RowBase returns the address of the first byte of the row containing a.
func (g Geometry) RowBase(a Addr) Addr {
	return a &^ Addr(g.RowBytes-1)
}

// Chunk is one row-contained piece of a larger access.
type Chunk struct {
	Addr Addr
	Size uint32
}

// Split breaks [addr, addr+size) into chunks that each stay within a
// single DRAM row. Sequential chunks land in consecutive vaults thanks to
// the low-order vault interleave.
func (g Geometry) Split(addr Addr, size uint32) []Chunk {
	if size == 0 {
		return nil
	}
	var out []Chunk
	for size > 0 {
		rowEnd := g.RowBase(addr) + Addr(g.RowBytes)
		n := uint32(rowEnd - addr)
		if n > size {
			n = size
		}
		out = append(out, Chunk{Addr: addr, Size: n})
		addr += Addr(n)
		size -= n
	}
	return out
}

// Port is anything that accepts memory requests: a cache level, the HMC
// link controller, or a vault controller.
type Port interface {
	// Access submits a request. The implementation may process it after an
	// arbitrary delay; req.Done fires on completion. Access reports false
	// if the component cannot accept the request this cycle (full queue),
	// in which case the caller must retry later and Done will not fire.
	Access(req *Request) bool
}

// FuncPort adapts a function to the Port interface (useful in tests).
type FuncPort func(req *Request) bool

// Access implements Port.
func (f FuncPort) Access(req *Request) bool { return f(req) }
