package sim

// Tests for clock-domain parking: a randomized equivalence property
// against runs whose tickers never report a stall, and the zero-alloc
// pin for one park/wake cycle.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// parkWorld is one synthetic model: two tickers on periods 1 and 2 and
// a stream of external events, all driven by one seeded RNG that only
// progress ticks and external events draw from. A ticker that blocks
// itself stalls until an external event, or the other ticker's progress
// tick, unblocks it; in the reference world the same stalled ticks
// report Busy, so its domains never park.
type parkWorld struct {
	e       *Engine
	rng     *rand.Rand
	park    bool
	tickers [2]*synthTicker
	// log is the global firing order of everything but stalled ticks:
	// external events and progress ticks, each with the state it saw.
	log []string
	// skips counts ticks credited through Skip.
	skips uint64
}

type synthTicker struct {
	w       *parkWorld
	id      int
	period  Cycle
	d       *ClockDomain
	work    int
	blocked bool
	// progress counts ticks that moved; stalls is the stall counter a
	// skipped tick credits.
	progress, stalls uint64
	// ticks is every tick's cycle, skipped ticks included.
	ticks    []Cycle
	lastTick Cycle
}

func (t *synthTicker) Tick(now Cycle) Activity {
	t.ticks = append(t.ticks, now)
	t.lastTick = now
	if t.work == 0 {
		t.w.log = append(t.w.log, fmt.Sprintf("idle %d @%d", t.id, now))
		return Idle
	}
	if t.blocked {
		t.stalls++
		if t.w.park {
			return Stalled
		}
		return Busy
	}
	w := t.w
	t.work--
	t.progress++
	w.log = append(w.log, fmt.Sprintf("tick %d @%d %s", t.id, now, w.state()))
	other := w.tickers[1-t.id]
	switch w.rng.Intn(7) {
	case 0, 1:
		// Block until an unblock event a random stretch ahead.
		t.blocked = true
		w.external(now+Cycle(1+w.rng.Intn(40)), t.id, "unblock")
	case 2:
		// Wake the other domain without changing its state: a parked
		// domain must re-run the same stalled tick and park again.
		other.d.Kick()
	case 3:
		// Unblock the other ticker directly: a progress tick that
		// changes a parked domain's state.
		other.blocked = false
		other.work += 1 + w.rng.Intn(3)
		other.d.Kick()
	case 4:
		// Unblock the other ticker without a Kick: the progress tick
		// itself must wake a parked domain.
		other.blocked = false
	case 5:
		w.external(now+Cycle(w.rng.Intn(4)), 1-t.id, "poke")
	}
	return Busy
}

func (t *synthTicker) Skip(k uint64) {
	if !t.w.park || !t.blocked {
		panic("Skip on a ticker that did not stall")
	}
	for i := uint64(0); i < k; i++ {
		t.lastTick += t.period
		t.ticks = append(t.ticks, t.lastTick)
	}
	t.stalls += k
	t.w.skips += k
}

// state renders every ticker's observable state.
func (w *parkWorld) state() string {
	a, b := w.tickers[0], w.tickers[1]
	return fmt.Sprintf("[%d %d %d %v|%d %d %d %v]",
		a.work, a.progress, a.stalls, a.blocked, b.work, b.progress, b.stalls, b.blocked)
}

// external schedules an external event on ticker id. Every kind logs
// the state it sees; unblock also clears the ticker's block, poke adds
// work and kicks, and either may chain a further external event.
func (w *parkWorld) external(at Cycle, id int, kind string) {
	w.e.Schedule(at, func() {
		t := w.tickers[id]
		w.log = append(w.log, fmt.Sprintf("%s %d @%d %s", kind, id, w.e.Now(), w.state()))
		switch kind {
		case "unblock":
			t.blocked = false
		case "poke":
			t.work += w.rng.Intn(3)
			t.d.Kick()
		}
		if w.rng.Intn(4) == 0 {
			delay := Cycle(w.rng.Intn(8))
			if w.rng.Intn(8) == 0 {
				delay += ringSize // far: the heap lane
			}
			w.external(w.e.Now()+delay, w.rng.Intn(2), []string{"unblock", "poke", "note"}[w.rng.Intn(3)])
		}
	})
}

// runParkWorld builds and runs one world from seed. With chunk > 0 it
// advances in RunUntil steps of chunk cycles, recording the clock after
// each, and kicks a ticker from outside the engine between steps.
func runParkWorld(seed int64, park bool, chunk Cycle) (*parkWorld, []Cycle) {
	w := &parkWorld{e: NewEngine(), rng: rand.New(rand.NewSource(seed)), park: park}
	for i, p := range []Cycle{1, 2} {
		t := &synthTicker{w: w, id: i, period: p}
		t.d = NewClockDomain(w.e, p, t)
		w.tickers[i] = t
	}
	for i := 0; i < 1+w.rng.Intn(6); i++ {
		w.external(Cycle(w.rng.Intn(30)), w.rng.Intn(2), []string{"unblock", "poke", "note"}[w.rng.Intn(3)])
	}
	for _, t := range w.tickers {
		t.work = w.rng.Intn(20)
		t.d.Kick()
	}
	var clocks []Cycle
	if chunk == 0 {
		w.e.Run()
		return w, clocks
	}
	for limit := chunk; ; limit += chunk {
		drained := w.e.RunUntil(limit)
		clocks = append(clocks, w.e.Now())
		if drained {
			return w, clocks
		}
		if limit%(3*chunk) == 0 {
			// New work from outside any event: Kick must wake a
			// parked domain.
			t := w.tickers[int(limit/chunk)%2]
			t.blocked = false
			t.work++
			t.d.Kick()
		}
	}
}

// TestParkedDomainsMatchNeverStalling replays random worlds with parking
// and without, demanding the same global firing order, the same cycle
// for every tick of every ticker (skipped ticks included), the same
// counters and the same scheduler accounting.
func TestParkedDomainsMatchNeverStalling(t *testing.T) {
	var skipped, ticks uint64
	for seed := int64(0); seed < 400; seed++ {
		chunk := Cycle(0)
		if seed%3 == 0 {
			chunk = Cycle(1 + seed%17)
		}
		ref, refClocks := runParkWorld(seed, false, chunk)
		got, gotClocks := runParkWorld(seed, true, chunk)
		if !reflect.DeepEqual(got.log, ref.log) {
			for i := range ref.log {
				if i >= len(got.log) || got.log[i] != ref.log[i] {
					t.Fatalf("seed %d: firing order diverges at %d:\n parked %v\n ref    %s", seed, i, got.log[min(i, len(got.log)-1)], ref.log[i])
				}
			}
			t.Fatalf("seed %d: parked run fired %d logged events, reference %d", seed, len(got.log), len(ref.log))
		}
		for i := range ref.tickers {
			g, r := got.tickers[i], ref.tickers[i]
			if !reflect.DeepEqual(g.ticks, r.ticks) {
				t.Fatalf("seed %d ticker %d: tick cycles\n parked %v\n ref    %v", seed, i, g.ticks, r.ticks)
			}
			if g.stalls != r.stalls || g.progress != r.progress {
				t.Fatalf("seed %d ticker %d: stalls/progress %d/%d, ref %d/%d", seed, i, g.stalls, g.progress, r.stalls, r.progress)
			}
			ticks += uint64(len(r.ticks))
		}
		if got.e.Stats() != ref.e.Stats() {
			t.Fatalf("seed %d: Stats %+v, ref %+v", seed, got.e.Stats(), ref.e.Stats())
		}
		if got.e.Now() != ref.e.Now() || !reflect.DeepEqual(gotClocks, refClocks) {
			t.Fatalf("seed %d: clock %d %v, ref %d %v", seed, got.e.Now(), gotClocks, ref.e.Now(), refClocks)
		}
		skipped += got.skips
	}
	if skipped*10 < ticks {
		t.Fatalf("only %d of %d ticks skipped: the property barely exercises parking", skipped, ticks)
	}
}

// stallingTicker alternates one progress tick, which schedules its own
// unblock a few cycles ahead, with a stretch of stalled ticks.
type stallingTicker struct {
	e       *Engine
	blocked bool
	stalls  uint64
}

func (s *stallingTicker) Tick(now Cycle) Activity {
	if s.blocked {
		return Stalled
	}
	s.blocked = true
	s.e.ScheduleEvent(now+8, s, 0)
	return Busy
}

func (s *stallingTicker) Skip(k uint64) { s.stalls += k }

// OnEvent is the unblock event.
func (s *stallingTicker) OnEvent(Cycle, uint64) { s.blocked = false }

func TestParkWakeZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := &stallingTicker{e: e}
	NewClockDomain(e, 1, s).Kick()
	e.RunLimit(64) // warm the ring buckets and the parked list
	allocs := testing.AllocsPerRun(100, func() {
		// One cycle: progress tick, stalled tick (park), unblock event
		// (skip and wake), woken tick.
		e.RunLimit(4)
	})
	if allocs != 0 {
		t.Fatalf("park/wake cycle allocates %.1f times", allocs)
	}
	if s.stalls == 0 {
		t.Fatal("the ticker never skipped a tick")
	}
}
