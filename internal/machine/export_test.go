package machine

// Idle reports how many idle machines are kept.
func Idle() int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.free)
}

// idleFor reports how many idle machines of cfg are kept.
func idleFor(cfg Config) int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	n := 0
	for _, m := range idle.free {
		if m.cfg == cfg {
			n++
		}
	}
	return n
}
