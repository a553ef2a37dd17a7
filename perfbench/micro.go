package main

// Substrate microbenches for the traced run. Each drives one layer's
// public constructor on a standalone sim.Engine with a fixed, seeded
// amount of work, so a change confined to one layer shows as that
// layer's host time per unit of work.

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/cache"
	"github.com/hipe-sim/hipe/internal/core"
	"github.com/hipe-sim/hipe/internal/cpu"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/dram"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/link"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// microReps is how many times each microbench repeats; it reports the
// median.
const microReps = 7

// microbench times run (after a fresh build) microReps times and
// returns the median host nanoseconds per unit of work.
func microbench(build func() (run func() int, err error)) (float64, error) {
	var ns []float64
	for i := 0; i < microReps; i++ {
		run, err := build()
		if err != nil {
			return 0, err
		}
		t := cpuTime()
		units := run()
		if units <= 0 {
			return 0, fmt.Errorf("microbench did no work")
		}
		ns = append(ns, float64(cpuTime()-t)/float64(units))
	}
	return median(ns), nil
}

func noopDone(sim.Cycle) {}

// fixedMemory is a constant-latency backing store.
func fixedMemory(e *sim.Engine, latency sim.Cycle) mem.Port {
	return mem.FuncPort(func(req *mem.Request) bool {
		if req.Done != nil {
			e.ScheduleCall(e.Now()+latency, req.Done)
		}
		return true
	})
}

// microCache drives the Table I hierarchy over a 100-cycle memory with
// three equal access mixes: L1 hits, streaming misses, and bursts to one
// missing line that merge into its MSHR.
func microCache(seed uint64) (float64, error) {
	const perMix = 20000
	return microbench(func() (func() int, error) {
		e := sim.NewEngine()
		h, err := cache.NewHierarchy(e, cache.TableIL1(), cache.TableIL2(), cache.TableIL3(),
			fixedMemory(e, 100), stats.NewRegistry())
		if err != nil {
			return nil, err
		}
		rng := db.NewRNG(seed)
		reqs := make([]mem.Request, 0, 3*perMix)
		for i := 0; i < perMix; i++ { // hits: 64 hot lines
			reqs = append(reqs, mem.Request{Addr: mem.Addr(rng.Intn(64) * 64), Size: 8, Done: noopDone})
		}
		base := mem.Addr(1 << 24)
		for i := 0; i < perMix; i++ { // misses: a cold stream
			reqs = append(reqs, mem.Request{Addr: base + mem.Addr(i*64), Size: 8, Done: noopDone})
		}
		base = 1 << 26
		for i := 0; i < perMix; i++ { // merges: four accesses per cold line
			reqs = append(reqs, mem.Request{Addr: base + mem.Addr(i/4*4096+i%4*8), Size: 8, Done: noopDone})
		}
		return func() int {
			for i := range reqs {
				for !h.Access(&reqs[i]) {
					if !e.Step() {
						break
					}
				}
				if i%64 == 63 {
					e.Run()
				}
			}
			e.Run()
			return len(reqs)
		}, nil
	})
}

// microDRAM streams 256 B reads across the vaults of a standalone cube.
func microDRAM() (float64, error) {
	const n = 40000
	return microbench(func() (func() int, error) {
		e := sim.NewEngine()
		d, err := dram.New(e, mem.HMC21(), dram.HMC21Timing(), stats.NewRegistry())
		if err != nil {
			return nil, err
		}
		reqs := make([]mem.Request, n)
		for i := range reqs {
			reqs[i] = mem.Request{Addr: mem.Addr(i * 256), Size: 256, Done: noopDone}
		}
		return func() int {
			for i := range reqs {
				d.Access(&reqs[i])
				if i%256 == 255 {
					e.Run()
				}
			}
			e.Run()
			return n
		}, nil
	})
}

// microLink sends request/response round trips over the four links.
func microLink() (float64, error) {
	const n = 40000
	return microbench(func() (func() int, error) {
		e := sim.NewEngine()
		l, err := link.New(e, link.Default(), 32, stats.NewRegistry())
		if err != nil {
			return nil, err
		}
		exec := func(p *link.Packet) { p.Complete() }
		pkts := make([]link.Packet, n)
		for i := range pkts {
			pkts[i] = link.Packet{Vault: uint32(i % 32), ReqPayload: 16, RespPayload: 64,
				Execute: exec, Done: noopDone}
		}
		return func() int {
			for i := range pkts {
				l.Send(&pkts[i])
				if i%256 == 255 {
					e.Run()
				}
			}
			e.Run()
			return n
		}, nil
	})
}

// microCore submits HIPE load/compare pairs to a standalone engine over
// its own links and vaults; a refused submit steps the engine.
func microCore() (float64, error) {
	const pairs = 10000
	return microbench(func() (func() int, error) {
		e := sim.NewEngine()
		reg := stats.NewRegistry()
		d, err := dram.New(e, mem.HMC21(), dram.HMC21Timing(), reg)
		if err != nil {
			return nil, err
		}
		l, err := link.New(e, link.Default(), 32, reg)
		if err != nil {
			return nil, err
		}
		image := make([]byte, 1<<20)
		eng, err := core.New(e, core.DefaultHIPE(), l, d, image, reg)
		if err != nil {
			return nil, err
		}
		insts := make([]isa.OffloadInst, 0, 2*pairs)
		for i := 0; i < pairs; i++ {
			r := uint8(2 * (i % 8))
			insts = append(insts,
				isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: r,
					Addr: mem.Addr(i % 4096 * 256), Size: 256},
				isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VALU, ALU: isa.CmpGE,
					Dst: r + 1, Src1: r, UseImm: true, Imm: 1})
		}
		return func() int {
			for i := range insts {
				for !eng.Submit(&insts[i], noopDone) {
					if !e.Step() {
						break
					}
				}
			}
			e.Run()
			return len(insts)
		}, nil
	})
}

// microCPU runs the Table I out-of-order core over a synthetic stream:
// dependent integer chains, loads to a warm 4-cycle memory and
// loop-closing branches.
func microCPU() (float64, error) {
	const n = 60000
	ops := make([]isa.MicroOp, 0, n)
	for i := 0; len(ops) < n; i++ {
		r := isa.Reg(len(ops) + 1)
		pc := uint64(0x1000 + 4*(i%16))
		switch i % 4 {
		case 0:
			ops = append(ops, isa.MicroOp{PC: pc, Class: isa.Load, Dst: r, Addr: mem.Addr(i % 512 * 64), Size: 8})
		case 1, 2:
			ops = append(ops, isa.MicroOp{PC: pc, Class: isa.IntALU, Dst: r, Src1: r - 1})
		default:
			ops = append(ops, isa.MicroOp{PC: pc, Class: isa.Branch, Src1: r - 1, Taken: i%16 != 15})
		}
	}
	return microbench(func() (func() int, error) {
		e := sim.NewEngine()
		memory := fixedMemory(e, 4)
		c, err := cpu.New(e, cpu.TableI("cpu0"), memory, memory, refuseOffload{}, stats.NewRegistry())
		if err != nil {
			return nil, err
		}
		return func() int {
			c.Start(&cpu.SliceStream{Ops: ops}, nil)
			e.Run()
			return int(c.Committed())
		}, nil
	})
}

// refuseOffload is the offload port of a core that runs no offloads.
type refuseOffload struct{}

func (refuseOffload) Submit(*isa.OffloadInst, func(sim.Cycle)) bool { return false }
