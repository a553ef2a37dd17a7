// Package sim provides the deterministic discrete-event simulation engine
// that drives every timing model in the HIPE reproduction.
//
// The engine keeps a monotonically increasing cycle counter (CPU cycles at
// the core frequency) and a priority queue of events. Events scheduled for
// the same cycle fire in FIFO order of their scheduling, which makes every
// simulation run bit-reproducible regardless of map iteration order or
// goroutine scheduling: the engine is strictly single-threaded.
//
// # Scheduler structure
//
// The queue is split into two lanes that together behave exactly like one
// priority queue ordered by (cycle, sequence number):
//
//   - a near-future ring of ringSize per-cycle FIFO buckets covering
//     [now, now+ringSize), with a bitmap tracking occupied buckets. The
//     overwhelming majority of events in the timing models are "a few
//     cycles ahead" (pipeline ticks, FU latencies, DRAM bank timings),
//     so they enqueue and dequeue in O(1) with no comparisons at all;
//   - a concrete-typed 4-ary min-heap for events at or beyond the ring
//     horizon (long DRAM refresh intervals, far ALU completions). 4-ary
//     halves the tree depth of a binary heap and keeps children of a node
//     in one cache line; there is no container/heap indirection and no
//     interface{} boxing of queue entries.
//
// Step compares the earliest ring event with the heap root under the
// global (cycle, seq) order, so an event that entered the heap when it
// was far away and a later event scheduled into the ring for the same
// cycle still fire in their scheduling order. See docs/ARCHITECTURE.md
// for the full determinism argument.
//
// Steady-state scheduling is allocation-free: bucket slices and the heap
// array retain their high-water capacity, and both event forms — a
// Handler implemented by a pre-bound model object, or a plain func —
// store into the queue entry without boxing (func values are
// pointer-shaped, so the Handler interface conversion does not allocate).
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Handler is a pre-bound event target: a model object that receives the
// event directly, with no closure allocation at the scheduling site. The
// tag disambiguates multiple event kinds scheduled on one object, and
// now is the cycle the event fires at (== the cycle it was scheduled
// for). Schedule a Handler with ScheduleEvent/AfterEvent.
type Handler interface {
	OnEvent(now Cycle, tag uint64)
}

// fnHandler adapts a plain func() to Handler. A func value is
// pointer-shaped, so converting fnHandler to Handler does not allocate.
type fnHandler func()

func (f fnHandler) OnEvent(Cycle, uint64) { f() }

// callHandler adapts a completion callback func(Cycle) to Handler —
// the shape of mem.Request.Done and link.Packet.Done — passing the
// firing cycle through. Pointer-shaped: no boxing.
type callHandler func(now Cycle)

func (f callHandler) OnEvent(now Cycle, _ uint64) { f(now) }

// queuedEvent is one queue entry. Entries are stored by value in the
// ring buckets and the heap array; nothing is boxed.
type queuedEvent struct {
	cycle Cycle
	seq   uint64
	h     Handler
	tag   uint64
}

// before reports the global firing order: cycle, then scheduling
// sequence (FIFO within a cycle).
func (a *queuedEvent) before(b *queuedEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// Near-future ring geometry. 256 cycles covers the overwhelming
// majority of the Table I models' delays (pipeline ticks, FU
// latencies up to the 40-cycle divider, link hops, most DRAM bank
// timings) while keeping the occupancy bitmap at four words; the few
// longer delays — closed-page DRAM worst cases around ~300 cycles,
// refresh intervals in the thousands — correctly fall to the heap
// lane, which preserves the same total order.
const (
	ringBits = 8
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// bucket is one ring slot: a FIFO of events for a single cycle. head
// indexes the next event to fire so dequeue never shifts; the slice
// resets to [:0] when drained, retaining capacity.
type bucket struct {
	evs  []queuedEvent
	head int
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Cycle
	seq uint64

	// ring holds events with cycle in [now, now+ringSize), indexed by
	// cycle & ringMask. occ is the occupancy bitmap (bit i ⇔ ring[i]
	// has unfired events). ringCount is the total across buckets.
	ring      [ringSize]bucket
	occ       [ringSize / 64]uint64
	ringCount int

	// heap is a 4-ary min-heap (by queuedEvent.before) of events at or
	// beyond the ring horizon.
	heap []queuedEvent

	// parked lists the clock domains whose next tick is virtual (see
	// ClockDomain); unordered, each domain knows its index.
	parked []*ClockDomain

	// executed counts events that have fired, for diagnostics.
	executed uint64
	// scheduled counts events enqueued; ringEvents/heapEvents split it by
	// the lane enqueue routed to. Plain field increments, so the Schedule
	// and Step zero-allocation pins are unaffected.
	scheduled  uint64
	ringEvents uint64
	heapEvents uint64
}

// Stats is a snapshot of the scheduler's event accounting: how many
// events were enqueued, how many fired, and which lane — the near-future
// ring or the far-future heap — each enqueue routed to. The counters are
// cumulative since construction or the last Reset. A parked clock
// domain's skipped ticks count exactly as the fired ticks they stand
// for: each one executed, and each one scheduling its successor in the
// lane its period routes to.
type Stats struct {
	Scheduled  uint64
	Executed   uint64
	RingEvents uint64
	HeapEvents uint64
}

// NewEngine returns an engine positioned at cycle 0 with no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its post-NewEngine state — cycle 0, empty
// queue, sequence numbers restarted — while keeping the ring buckets'
// and heap's high-water capacity, so a reused engine schedules without
// reallocating. Pending events are dropped.
func (e *Engine) Reset() {
	e.now, e.seq, e.executed = 0, 0, 0
	e.scheduled, e.ringEvents, e.heapEvents = 0, 0, 0
	if e.ringCount != 0 {
		for i := range e.ring {
			b := &e.ring[i]
			for j := b.head; j < len(b.evs); j++ {
				b.evs[j].h = nil
			}
			b.evs = b.evs[:0]
			b.head = 0
		}
		e.ringCount = 0
	}
	for i := range e.heap {
		e.heap[i] = queuedEvent{}
	}
	e.heap = e.heap[:0]
	for i := range e.occ {
		e.occ[i] = 0
	}
	clear(e.parked)
	e.parked = e.parked[:0]
}

// Now reports the current simulation cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of events waiting to fire, a parked clock
// domain's virtual next tick included.
func (e *Engine) Pending() int { return e.ringCount + len(e.heap) + len(e.parked) }

// Executed reports the total number of events that have fired.
func (e *Engine) Executed() uint64 { return e.executed }

// Stats reports the scheduler's cumulative event accounting.
func (e *Engine) Stats() Stats {
	return Stats{
		Scheduled:  e.scheduled,
		Executed:   e.executed,
		RingEvents: e.ringEvents,
		HeapEvents: e.heapEvents,
	}
}

// Schedule queues fn to run at absolute cycle at. Scheduling in the past
// (at < Now) is a programming error and panics: allowing it would silently
// corrupt causality in the timing models.
func (e *Engine) Schedule(at Cycle, fn Event) {
	if fn == nil {
		panic("sim: schedule nil event")
	}
	e.enqueue(at, fnHandler(fn), 0)
}

// After queues fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) {
	e.Schedule(e.now+delay, fn)
}

// ScheduleCall queues cb to run at absolute cycle at, receiving that
// cycle as its argument. It is the allocation-free form for completion
// callbacks (mem.Request.Done and friends): where Schedule(at, func() {
// cb(at) }) would allocate a closure per event, ScheduleCall stores cb
// directly.
func (e *Engine) ScheduleCall(at Cycle, cb func(now Cycle)) {
	if cb == nil {
		panic("sim: schedule nil event")
	}
	e.enqueue(at, callHandler(cb), 0)
}

// AfterCall queues cb to run delay cycles from now, receiving the firing
// cycle.
func (e *Engine) AfterCall(delay Cycle, cb func(now Cycle)) {
	e.ScheduleCall(e.now+delay, cb)
}

// ScheduleEvent queues a pre-bound handler to fire at absolute cycle at
// with the given tag. This is the zero-alloc path for model objects that
// schedule themselves: the object pointer stores directly into the
// queue entry.
func (e *Engine) ScheduleEvent(at Cycle, h Handler, tag uint64) {
	if h == nil {
		panic("sim: schedule nil event")
	}
	e.enqueue(at, h, tag)
}

// AfterEvent queues a pre-bound handler tag cycles of delay from now.
func (e *Engine) AfterEvent(delay Cycle, h Handler, tag uint64) {
	e.ScheduleEvent(e.now+delay, h, tag)
}

// enqueue numbers an event, counts it and routes it to its lane.
func (e *Engine) enqueue(at Cycle, h Handler, tag uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d before now %d", at, e.now))
	}
	e.count(at-e.now, 1)
	e.insert(queuedEvent{cycle: at, seq: e.seq, h: h, tag: tag})
	e.seq++
}

// count records n enqueues delay cycles ahead of now.
func (e *Engine) count(delay Cycle, n uint64) {
	e.scheduled += n
	if delay < ringSize {
		e.ringEvents += n
	} else {
		e.heapEvents += n
	}
}

// insert places an already-numbered event in the ring or the heap. A
// ring bucket stays sorted by sequence number: a fresh event appends,
// and a woken domain tick, whose number was reserved earlier, moves
// back past any later-numbered events of its cycle.
func (e *Engine) insert(ev queuedEvent) {
	if ev.cycle-e.now >= ringSize {
		e.heapPush(ev)
		return
	}
	i := int(ev.cycle & ringMask)
	b := &e.ring[i]
	b.evs = append(b.evs, ev)
	for j := len(b.evs) - 1; j > b.head && b.evs[j-1].seq > ev.seq; j-- {
		b.evs[j], b.evs[j-1] = b.evs[j-1], b.evs[j]
	}
	e.occ[i>>6] |= 1 << (uint(i) & 63)
	e.ringCount++
}

// park makes d's next tick virtual instead of queueing it. The
// reservation takes the sequence number and the accounting of the
// AfterEvent(Period) the stalled tick would have made.
func (e *Engine) park(d *ClockDomain) {
	d.parked = true
	d.vcycle, d.vseq = e.now+d.Period, e.seq
	e.seq++
	e.count(d.Period, 1)
	d.parkIndex = len(e.parked)
	e.parked = append(e.parked, d)
}

// wake turns parked d's virtual next tick into a real queued event at
// the same (cycle, seq).
func (e *Engine) wake(d *ClockDomain) {
	last := len(e.parked) - 1
	moved := e.parked[last]
	e.parked[d.parkIndex], moved.parkIndex = moved, d.parkIndex
	e.parked[last] = nil
	e.parked = e.parked[:last]
	d.parked = false
	e.insert(queuedEvent{cycle: d.vcycle, seq: d.vseq, h: d})
}

// wakeAll wakes every parked domain.
func (e *Engine) wakeAll() {
	for len(e.parked) > 0 {
		e.wake(e.parked[len(e.parked)-1])
	}
}

// skipParked fires, virtually, every parked tick that precedes
// (cycle, seq) in the global order, and reports the cycle of the last
// one. Ticks are taken in global order: the earliest parked domain
// skips in bulk up to the limit or up to the next-earliest parked tick,
// whichever comes first, so each skipped tick consumes the sequence
// number it would have had as a fired event. Each domain's skipped
// ticks are then credited through one Ticker.Skip call.
func (e *Engine) skipParked(cycle Cycle, seq uint64) (last Cycle) {
	for {
		var first, second *ClockDomain
		for _, d := range e.parked {
			switch {
			case first == nil || d.vbefore(first.vcycle, first.vseq):
				first, second = d, first
			case second == nil || d.vbefore(second.vcycle, second.vseq):
				second = d
			}
		}
		if first == nil {
			break
		}
		limCycle, limSeq := cycle, seq
		if second != nil && second.vbefore(cycle, seq) {
			limCycle, limSeq = second.vcycle, second.vseq
		}
		k := first.ticksBefore(limCycle, limSeq)
		if k == 0 {
			break
		}
		first.vcycle += Cycle(k) * first.Period
		first.vseq = e.seq + k - 1
		first.skipped += k
		e.seq += k
		e.executed += k
		e.count(first.Period, k)
	}
	for _, d := range e.parked {
		if d.skipped > 0 {
			last = max(last, d.vcycle-d.Period)
			d.T.Skip(d.skipped)
			d.skipped = 0
		}
	}
	return last
}

// nextRingBucket returns the index of the occupied ring bucket with the
// earliest cycle, scanning the occupancy bitmap from now's slot forward
// (at most four word reads plus one trailing-zeros). Call only when
// ringCount > 0.
func (e *Engine) nextRingBucket() int {
	start := int(e.now & ringMask)
	w := start >> 6
	// Mask off bits below start in the first word, then rotate through
	// the (wrapped) remaining words.
	if m := e.occ[w] &^ ((1 << (uint(start) & 63)) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for k := 1; k <= len(e.occ); k++ {
		i := (w + k) & (len(e.occ) - 1)
		if m := e.occ[i]; i == w {
			// Wrapped fully: only bits below start remain.
			if m &= (1 << (uint(start) & 63)) - 1; m != 0 {
				return i<<6 + bits.TrailingZeros64(m)
			}
		} else if m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: ringCount > 0 with empty occupancy bitmap")
}

// ringCycle converts an occupied bucket index to the absolute cycle its
// events fire at. Ring events always lie in [now, now+ringSize), so the
// offset is the index distance from now's slot, modulo the ring.
func (e *Engine) ringCycle(i int) Cycle {
	return e.now + Cycle((i-int(e.now&ringMask))&ringMask)
}

// Step fires the earliest pending event, advancing the clock to its cycle.
// It reports false when no events remain. Parked clock domains' ticks
// that precede the event are skipped first; an event that is not a
// domain tick then wakes every parked domain, since it may change the
// state their ticks read.
func (e *Engine) Step() bool {
	ev, ok := e.dequeue()
	if !ok {
		if len(e.parked) > 0 {
			panic("sim: clock domain stalled with no pending event (the model is deadlocked)")
		}
		return false
	}
	e.now = ev.cycle
	if len(e.parked) > 0 {
		e.skipParked(ev.cycle, ev.seq)
		if _, tick := ev.h.(*ClockDomain); !tick {
			e.wakeAll()
		}
	}
	e.executed++
	ev.h.OnEvent(ev.cycle, ev.tag)
	return true
}

// dequeue removes and returns the globally earliest event under the
// (cycle, seq) order, merging the ring and heap lanes.
func (e *Engine) dequeue() (queuedEvent, bool) {
	if e.ringCount == 0 {
		if len(e.heap) == 0 {
			return queuedEvent{}, false
		}
		return e.heapPop(), true
	}
	i := e.nextRingBucket()
	b := &e.ring[i]
	ringEv := &b.evs[b.head]
	// A heap event can precede the ring head: its cycle may have entered
	// the ring window as now advanced, or tie the ring head's cycle with
	// an earlier sequence number.
	if len(e.heap) > 0 && e.heap[0].before(ringEv) {
		return e.heapPop(), true
	}
	ev := *ringEv
	ringEv.h = nil // release the reference; the slot is reused
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		e.occ[i>>6] &^= 1 << (uint(i) & 63)
	}
	e.ringCount--
	return ev, true
}

// heapPush inserts into the 4-ary min-heap.
func (e *Engine) heapPush(ev queuedEvent) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes the heap root.
func (e *Engine) heapPop() queuedEvent {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queuedEvent{} // clear the vacated slot for the GC
	h = h[:n]
	e.heap = h
	// Sift down: promote the smallest of up to four children.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return root
}

// Run fires events until the queue is empty and returns the final cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// RunLimit fires at most n events; it reports the number actually fired.
// Skipped ticks of parked clock domains do not count toward n. Useful as
// a watchdog in tests to catch livelock in timing models.
func (e *Engine) RunLimit(n uint64) uint64 {
	var fired uint64
	for fired < n && e.Step() {
		fired++
	}
	return fired
}
