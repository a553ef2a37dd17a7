package core

import "github.com/hipe-sim/hipe/internal/isa"

// RegisterData returns a copy of a register's contents.
func (e *Engine) RegisterData(i int) []byte {
	out := make([]byte, isa.RegisterBytes)
	copy(out, e.regs[i].data[:])
	return out
}

// RegisterZero reports a register's zero flag.
func (e *Engine) RegisterZero(i int) bool { return e.regs[i].zero }

// RegisterPending reports whether a register is interlocked.
func (e *Engine) RegisterPending(i int) bool { return e.regs[i].pending }

// QueueDepth reports buffered instructions.
func (e *Engine) QueueDepth() int { return e.queue.Len() }
