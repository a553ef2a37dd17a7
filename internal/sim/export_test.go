package sim

// peekCycle reports the cycle of the earliest pending event.
func (e *Engine) peekCycle() (Cycle, bool) {
	var best Cycle
	have := false
	if e.ringCount > 0 {
		best = e.ringCycle(e.nextRingBucket())
		have = true
	}
	if len(e.heap) > 0 && (!have || e.heap[0].cycle < best) {
		best = e.heap[0].cycle
		have = true
	}
	return best, have
}

// RunUntil fires every event with cycle <= limit, in order, parked
// domains' skipped ticks included. It reports true if that drained the
// queue, false if events at cycles beyond limit remain. The clock is
// left at the cycle of the last event fired; it does not advance to
// limit when no event lands exactly there (and does not move at all if
// nothing fires), so after RunUntil(limit) the clock reads the last real
// activity, not the probe horizon.
func (e *Engine) RunUntil(limit Cycle) bool {
	for {
		c, ok := e.peekCycle()
		if !ok || c > limit {
			if len(e.parked) > 0 && limit < ^Cycle(0) {
				if last := e.skipParked(limit+1, 0); last > e.now {
					e.now = last
				}
			}
			return !ok && len(e.parked) == 0
		}
		e.Step()
	}
}
