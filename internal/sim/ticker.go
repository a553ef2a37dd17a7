package sim

// Activity is what a Ticker reports after one tick.
type Activity uint8

const (
	// Idle: no work left. The domain stops until the next Kick.
	Idle Activity = iota
	// Busy: the tick changed state, or its outcome depended on the
	// clock (a timer that has not expired yet). Tick again next edge.
	Busy
	// Stalled: work is pending, but the tick changed nothing except
	// the ticker's own stall counters, and its outcome did not depend
	// on the clock. Every later tick is an exact repeat of this one
	// until some other event changes the state it reads, so the domain
	// parks instead of ticking (see ClockDomain).
	Stalled
)

// Ticker is a component that wants to be stepped at a fixed cadence while
// it has work outstanding. It is a convenience layer over the raw event
// queue used by pipelined models (the OoO core, the HIVE/HIPE sequencers)
// that are most naturally written as "advance one cycle" loops.
type Ticker interface {
	// Tick advances the component to the given cycle and reports what
	// the tick did.
	Tick(now Cycle) Activity
	// Skip credits k ticks that the domain skipped while parked. Each
	// is an exact repeat of the last Tick, which reported Stalled, so
	// Skip adds k times that tick's stall-counter increments — the
	// stall cause the ticker recorded — and changes nothing else. A
	// ticker that never reports Stalled is never asked to Skip.
	Skip(k uint64)
}

// ClockDomain drives a Ticker every Period cycles while it reports work.
// When the ticker goes idle the domain stops scheduling; Kick restarts
// it on the next edge of its clock grid (a slower domain does not
// overclock just because work arrives between its edges).
//
// A tick that reports Stalled parks the domain. A parked domain
// schedules no event: it keeps a virtual next tick (cycle, seq) — the
// exact position in the engine's global order that the tick it did not
// schedule would have had — and the engine advances it lazily. Virtual
// ticks that fall before the next real event are skipped and credited
// in bulk through Ticker.Skip, consuming sequence numbers and event
// accounting exactly as fired ticks would. The parked domain wakes —
// its next virtual tick becomes a real queued event at the same
// (cycle, seq) — before any event other than a domain tick fires,
// after any other domain's tick that does not stall, and on Kick. So
// every tick that does run fires in the same global order as if the
// domain had never parked, and sees the same state. A ticker that never
// reports Stalled never parks: the plain fixed-cadence clock is the
// degenerate case of the same code.
type ClockDomain struct {
	Engine *Engine
	Period Cycle
	T      Ticker

	running    bool
	everTicked bool
	lastTick   Cycle

	// Parked state: the virtual next tick, the domain's index in
	// Engine.parked, and the ticks skipped but not yet credited (valid
	// only while parked).
	parked    bool
	vcycle    Cycle
	vseq      uint64
	parkIndex int
	skipped   uint64
}

// vbefore reports whether d's next virtual tick precedes (cycle, seq)
// in the global order.
func (d *ClockDomain) vbefore(cycle Cycle, seq uint64) bool {
	return d.vcycle < cycle || (d.vcycle == cycle && d.vseq < seq)
}

// ticksBefore counts d's virtual ticks that precede (cycle, seq) in the
// global order. Only the first can tie on cycle and win on sequence
// number: each later one is numbered when its predecessor fires, after
// every event already queued, so it precedes (cycle, seq) only at an
// earlier cycle.
func (d *ClockDomain) ticksBefore(cycle Cycle, seq uint64) uint64 {
	switch {
	case !d.vbefore(cycle, seq):
		return 0
	case d.vcycle == cycle:
		return 1
	}
	later := uint64(cycle - 1 - d.vcycle)
	if d.Period > 1 { // most domains tick every cycle: skip the divide
		later /= uint64(d.Period)
	}
	return 1 + later
}

// NewClockDomain couples t to engine at the given period (>= 1).
func NewClockDomain(engine *Engine, period Cycle, t Ticker) *ClockDomain {
	if period == 0 {
		panic("sim: clock domain period must be >= 1")
	}
	return &ClockDomain{Engine: engine, Period: period, T: t}
}

// Kick ensures the domain is scheduled. Safe to call redundantly; extra
// calls while running are no-ops, except that a parked domain wakes: its
// next tick runs for real. A restart lands on the domain's next clock
// edge relative to its previous tick.
func (d *ClockDomain) Kick() {
	if d.parked {
		d.Engine.wake(d)
		return
	}
	if d.running {
		return
	}
	d.running = true
	var delay Cycle
	if d.everTicked {
		now := d.Engine.Now()
		elapsed := now - d.lastTick
		if elapsed < d.Period {
			delay = d.Period - elapsed
		} else if rem := elapsed % d.Period; rem != 0 {
			delay = d.Period - rem
		}
	}
	d.Engine.AfterEvent(delay, d, 0)
}

// OnEvent implements Handler: the domain is its own pre-bound tick
// event, so ticking never allocates (a method value per tick would).
func (d *ClockDomain) OnEvent(now Cycle, _ uint64) {
	d.everTicked = true
	d.lastTick = now
	switch d.T.Tick(now) {
	case Stalled:
		d.Engine.park(d)
		return
	case Busy:
		d.Engine.AfterEvent(d.Period, d, 0)
	default:
		d.running = false
	}
	d.Engine.wakeAll()
}

// Running reports whether the domain currently has a tick pending, real
// or parked.
func (d *ClockDomain) Running() bool { return d.running }

// Reset returns the domain to its never-ticked state. The owning
// component calls it as part of a machine reset, after the engine's own
// Reset dropped any scheduled or parked tick.
func (d *ClockDomain) Reset() {
	d.running = false
	d.everTicked = false
	d.lastTick = 0
	d.parked = false
}
