package cpu

import (
	"math/rand"
	"testing"

	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// boundedPort is a constant-latency memory and offload port with a cap
// on outstanding requests. Beyond the cap it refuses, counting the
// refusal — the repeatable-refusal contract, whose RepeatRefusals
// credits skipped retries.
type boundedPort struct {
	engine   *sim.Engine
	latency  sim.Cycle
	cap, out int
	refusals uint64
}

func (p *boundedPort) accept(done func(now sim.Cycle)) bool {
	if p.out >= p.cap {
		p.refusals++
		return false
	}
	p.out++
	at := p.engine.Now() + p.latency
	p.engine.Schedule(at, func() {
		p.out--
		if done != nil {
			done(at)
		}
	})
	return true
}

func (p *boundedPort) Access(req *mem.Request) bool { return p.accept(req.Done) }

func (p *boundedPort) Submit(_ *isa.OffloadInst, done func(now sim.Cycle)) bool {
	return p.accept(done)
}

func (p *boundedPort) RepeatRefusals(n uint64) { p.refusals += n }

// randomStream draws a µop mix that stalls the core every way it can:
// loads (some uncacheable) and offloads against small capped ports,
// stores, dependent ALU chains, a non-pipelined divider and branches.
func randomStream(rng *rand.Rand, n int) []isa.MicroOp {
	inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, Size: 64}
	ops := make([]isa.MicroOp, n)
	for i := range ops {
		op := isa.MicroOp{PC: uint64(4 * (i % 64)), Dst: isa.Reg(1 + rng.Intn(12)), Src1: isa.Reg(rng.Intn(12))}
		switch rng.Intn(9) {
		case 0, 1, 2:
			op.Class, op.Addr, op.Size = isa.Load, mem.Addr(64*rng.Intn(1<<12)), 8
			op.Uncacheable = rng.Intn(4) == 0
		case 3:
			op.Class, op.Addr, op.Size, op.Dst = isa.Store, mem.Addr(64*rng.Intn(1<<12)), 8, isa.RegNone
		case 4:
			op.Class, op.Offload = isa.Offload, inst
		case 5:
			op.Class = isa.IntDiv
		case 6:
			op.Class, op.Taken, op.Dst = isa.Branch, rng.Intn(3) == 0, isa.RegNone
		default:
			op.Class = isa.IntALU
		}
		ops[i] = op
	}
	return ops
}

type parkRun struct {
	cycles   sim.Cycle
	counters string
	refusals [3]uint64
	stats    sim.Stats
	fired    uint64 // real events, skipped ticks excluded
}

// runBounded runs ops on a core whose three ports refuse beyond small
// caps. With metronome set, a no-op event fires every cycle while the
// core runs: a non-tick event wakes every parked domain, so that run
// never skips a tick and is the reference the parked run must match.
func runBounded(t *testing.T, ops []isa.MicroOp, metronome bool) (parkRun, uint64) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	dmem := &boundedPort{engine: e, latency: 120, cap: 6}
	umem := &boundedPort{engine: e, latency: 200, cap: 3}
	off := &boundedPort{engine: e, latency: 90, cap: 2}
	cfg := TableI("cpu0")
	cfg.ROBSize, cfg.MOBReads, cfg.MOBWrites = 24, 8, 4
	c, err := New(e, cfg, dmem, umem, off, reg)
	if err != nil {
		t.Fatal(err)
	}
	finished := false
	c.Start(&SliceStream{Ops: ops}, func() { finished = true })
	var beats uint64
	if metronome {
		var beat func()
		beat = func() {
			beats++
			if !finished {
				e.After(1, beat)
			}
		}
		e.Schedule(0, beat)
	}
	var fired uint64
	for e.Step() {
		fired++
	}
	if !finished {
		t.Fatal("core never finished")
	}
	return parkRun{
		fired:    fired,
		cycles:   c.Cycles(),
		counters: reg.String(),
		refusals: [3]uint64{dmem.refusals, umem.refusals, off.refusals},
		stats:    e.Stats(),
	}, beats
}

// TestParkedCoreMatchesUnparked runs random µop streams with the core
// free to park and with a metronome that wakes it every cycle, and
// demands the same cycles, the same counters on the core and on every
// refusing port, and the same scheduler accounting net of the
// metronome's own events.
func TestParkedCoreMatchesUnparked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		ops := randomStream(rng, 300+rng.Intn(700))
		got, _ := runBounded(t, ops, false)
		want, beats := runBounded(t, ops, true)
		if got.fired >= got.stats.Executed {
			t.Fatalf("trial %d: the parked run skipped no tick", trial)
		}
		want.stats.Scheduled -= beats
		want.stats.Executed -= beats
		want.stats.RingEvents -= beats
		if want.fired != want.stats.Executed+beats {
			t.Fatalf("trial %d: the metronome run skipped ticks", trial)
		}
		if got.cycles != want.cycles {
			t.Fatalf("trial %d: %d cycles parked, %d unparked", trial, got.cycles, want.cycles)
		}
		if got.counters != want.counters {
			t.Fatalf("trial %d: counters diverge\n--- parked ---\n%s\n--- unparked ---\n%s", trial, got.counters, want.counters)
		}
		if got.refusals != want.refusals {
			t.Fatalf("trial %d: port refusals %v parked, %v unparked", trial, got.refusals, want.refusals)
		}
		if got.stats != want.stats {
			t.Fatalf("trial %d: Stats %+v parked, %+v unparked", trial, got.stats, want.stats)
		}
		if got.refusals == [3]uint64{} {
			t.Fatalf("trial %d: no port ever refused; the caps are too loose to test skipping", trial)
		}
	}
}
