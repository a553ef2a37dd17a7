package hmc

// InFlight reports the current window occupancy.
func (e *Engine) InFlight() int { return e.inFlight }
