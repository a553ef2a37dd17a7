package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
)

// randomProgram draws HIPE instructions whose queue head keeps waiting
// on register interlocks, on predicate flags of in-flight loads, and on
// unlocks that drain stores and flush the mask buffer.
func randomProgram(rng *rand.Rand, n int) []*isa.OffloadInst {
	var prog []*isa.OffloadInst
	for len(prog) < n {
		r := func() uint8 { return uint8(rng.Intn(6)) }
		inst := &isa.OffloadInst{Target: isa.TargetHIPE}
		switch rng.Intn(6) {
		case 0, 1:
			inst.Op, inst.Dst, inst.Addr, inst.Size = isa.VLoad, r(), mem.Addr(256*rng.Intn(1024)), 256
		case 2:
			inst.Op, inst.ALU, inst.Dst, inst.Src1, inst.UseImm, inst.Imm = isa.VALU, isa.CmpEQ, r(), r(), true, int32(rng.Intn(2))
		case 3:
			inst.Op, inst.Src1, inst.Addr, inst.Size = isa.VStore, r(), mem.Addr(256*(1024+rng.Intn(1024))), 256
		case 4:
			// Mask stores fill the write-combine buffer that an unlock
			// must flush before it can issue.
			inst.Op, inst.Src1, inst.Addr, inst.Size = isa.VMaskStore, r(), mem.Addr(512<<10+8*rng.Intn(64)), 256
		default:
			prog = append(prog, hipeInst(isa.Lock), hipeInst(isa.Unlock))
			continue
		}
		if rng.Intn(2) == 0 {
			inst.Pred = isa.Predicate{Valid: true, Reg: r(), WhenZero: rng.Intn(2) == 0}
		}
		prog = append(prog, inst)
	}
	return prog
}

type engineRun struct {
	counters string
	regs     []byte
	stats    sim.Stats
	fired    uint64
}

// runProgram submits prog and runs it to completion. With metronome
// set, a no-op event fires every cycle while anything is pending, so
// the sequencer's domain never skips a tick.
func runProgram(t *testing.T, prog []*isa.OffloadInst, metronome bool) (engineRun, uint64) {
	t.Helper()
	e, eng, image, reg := newEngine(t, DefaultHIPE())
	for i := 0; i < len(image)/4; i++ {
		isa.SetLane(image, i, int32(i/97%2)) // runs of zeros and ones
	}
	for _, inst := range prog {
		submit(t, eng, inst)
	}
	var beats uint64
	if metronome {
		var beat func()
		beat = func() {
			beats++
			if e.Pending() > 0 {
				e.After(1, beat)
			}
		}
		e.Schedule(0, beat)
	}
	var run engineRun
	for e.Step() {
		run.fired++
	}
	run.counters, run.stats = reg.String(), e.Stats()
	for i := 0; i < 6; i++ {
		run.regs = append(run.regs, eng.RegisterData(i)...)
	}
	return run, beats
}

// TestParkedSequencerMatchesUnparked runs random predicated programs
// with the sequencer free to park and with a metronome that wakes it
// every cycle, and demands the same counters (interlock and predicate
// stall cycles included), register contents and scheduler accounting
// net of the metronome's own events.
func TestParkedSequencerMatchesUnparked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		prog := randomProgram(rng, 40+rng.Intn(80))
		got, _ := runProgram(t, prog, false)
		want, beats := runProgram(t, prog, true)
		if got.fired >= got.stats.Executed {
			t.Fatalf("trial %d: the parked run skipped no tick", trial)
		}
		want.stats.Scheduled -= beats
		want.stats.Executed -= beats
		want.stats.RingEvents -= beats
		if want.fired != want.stats.Executed+beats {
			t.Fatalf("trial %d: the metronome run skipped ticks", trial)
		}
		if got.counters != want.counters {
			t.Fatalf("trial %d: counters diverge\n--- parked ---\n%s\n--- unparked ---\n%s", trial, got.counters, want.counters)
		}
		if got.stats != want.stats || !bytes.Equal(got.regs, want.regs) {
			t.Fatalf("trial %d: Stats %+v parked, %+v unparked (registers equal: %v)",
				trial, got.stats, want.stats, bytes.Equal(got.regs, want.regs))
		}
	}
}
