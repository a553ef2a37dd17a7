package cpu

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Stream supplies µops in program order (the correct execution path).
type Stream interface {
	// Next returns the next µop; ok=false ends the program. An Offload
	// µop's instruction need only stay valid until the following call
	// to Next: the core copies it at fetch, so a stream may build each
	// block of µops in storage it reuses for the next block.
	Next() (isa.MicroOp, bool)
}

// SliceStream adapts a pre-built µop slice to the Stream interface.
type SliceStream struct {
	Ops []isa.MicroOp
	pos int
}

// Next implements Stream.
func (s *SliceStream) Next() (isa.MicroOp, bool) {
	if s.pos >= len(s.Ops) {
		return isa.MicroOp{}, false
	}
	op := s.Ops[s.pos]
	s.pos++
	return op, true
}

// OffloadPort accepts HMC/HIVE/HIPE instructions departing the core.
type OffloadPort interface {
	// Submit sends one instruction toward the cube; done fires when the
	// response arrives back at the core. Submit reports false if the port
	// cannot accept this cycle (retry later). An accepting port copies
	// inst: the core reuses the instruction's storage once the µop
	// commits, and a posted instruction commits before the engine runs
	// it.
	Submit(inst *isa.OffloadInst, done func(now sim.Cycle)) bool
}

// refuser is a port whose refusals are repeatable: a refused Access or
// Submit changes nothing but the port's own stall counters, the same way
// whichever request it refused, and the same call is refused again until
// some event changes the port's state. RepeatRefusals applies n more
// refusals without re-running the call — how Skip credits the retries
// of skipped ticks. A tick refused by a port without this method counts
// as Busy and is never skipped.
type refuser interface {
	RepeatRefusals(n uint64)
}

// The core's ports, indexing Core.refusers and stallRecord.refused.
const (
	portDcache = iota
	portUmem
	portOffload
	numPorts
)

// stallRecord is one tick's stall-counter increments and refused
// accesses per port. Every tick credits it once; a Stalled tick's
// record is the stall cause, and Skip credits it again for each skipped
// repeat.
type stallRecord struct {
	robFull uint64
	mob     uint64
	fetch   uint64
	retries uint64
	refused [numPorts]uint64
}

type entryState uint8

const (
	stWaiting entryState = iota
	stReady
	stExecuting
	stDone
)

type fetchedOp struct {
	uop          isa.MicroOp
	seq          uint64
	mispredicted bool
}

// robEntry event tags (sim.Handler).
const (
	tagComplete uint64 = iota
	tagBranchResolve
)

// robEntry is one in-flight µop. Entries are pooled: the core draws
// them from a free list at dispatch and returns them after commit (for
// stores, after the drained write completes), so steady-state execution
// allocates nothing per µop. The embedded request and the pre-bound
// callbacks (created once, when the entry is first constructed) replace
// the per-µop closure and request allocations of the old pipeline.
type robEntry struct {
	c *Core
	fetchedOp
	state   entryState
	deps    int
	waiters []*robEntry
	inROB   bool

	// req is the entry's memory access (load at issue, store at drain).
	req         mem.Request
	uncacheable bool

	// Pre-bound completion callbacks (one-time per pooled entry).
	loadDone  func(now sim.Cycle) // load/offload response: frees MOB read slot
	storeDone func(now sim.Cycle) // store drain: frees MOB write slot, releases entry
}

// OnEvent implements sim.Handler: FU completions and branch resolution
// are scheduled directly on the entry.
func (e *robEntry) OnEvent(now sim.Cycle, tag uint64) {
	c := e.c
	if tag == tagBranchResolve {
		if c.hasBlockingBr && c.blockingBranch == e.seq {
			// Resolving mispredicted branch: restart the front end after
			// the refill penalty.
			c.hasBlockingBr = false
			c.fetchStallUntil = now + c.cfg.MispredictPenalty
		}
	}
	c.complete(e)
}

// Core is one out-of-order processor core.
type Core struct {
	cfg    Config
	engine *sim.Engine

	dcache  mem.Port    // cacheable path (L1D)
	umem    mem.Port    // uncacheable path (directly toward the cube)
	offload OffloadPort // HMC/HIVE/HIPE instruction path

	// refusers holds each port's repeatable-refusal form (nil when the
	// port has none).
	refusers [numPorts]refuser

	// busy records that the current tick changed pipeline state or
	// depended on the clock; a tick that did neither is a stall the
	// clock domain parks on. stall tallies the tick's stall counters.
	busy  bool
	stall stallRecord

	stream     Stream
	streamDone bool
	nextSeq    uint64

	fetchBuf  sim.Queue[fetchedOp]
	decodeBuf sim.Queue[fetchedOp]
	rob       sim.Queue[*robEntry]
	readyQ    []*robEntry
	readyKeep []*robEntry // scratch for issue's keep list, swapped each cycle

	entryFree []*robEntry

	// offloadInsts holds the core's copy of every in-flight Offload
	// µop's instruction, slot seq mod len: the stream's storage is only
	// valid until its next Next call. A µop is in flight from fetch to
	// commit, and at most FetchBufSize+DecodeBufSize+ROBSize µops are,
	// all with consecutive sequence numbers, so no live slot is ever
	// overwritten.
	offloadInsts []isa.OffloadInst

	producers map[isa.Reg]*robEntry

	mobReads      int // in-flight loads + offloads
	mobWrites     int // in-flight committed stores
	pendingStores sim.Queue[*robEntry]

	fetchStallUntil sim.Cycle
	blockingBranch  uint64 // seq of the unresolved mispredicted branch
	hasBlockingBr   bool
	issuedThisCycle [fuClasses]int
	divBusyUntil    [fuClasses][]sim.Cycle
	pred            *branchPredictor
	domain          *sim.ClockDomain
	startCycle      sim.Cycle
	finishCycle     sim.Cycle
	running         bool
	onFinish        func()

	committed   *stats.Counter
	branches    *stats.Counter
	mispredicts *stats.Counter
	btbMisses   *stats.Counter
	fetchStalls *stats.Counter
	robStalls   *stats.Counter
	mobStalls   *stats.Counter
	cacheRetry  *stats.Counter
	loads       *stats.Counter
	stores      *stats.Counter
	offloads    *stats.Counter
	cycles      *stats.Counter
}

// New builds a core. dcache is the L1 entry point; umem is the
// uncacheable path to memory; offloadPort carries cube instructions (may
// be nil for a pure x86 core, in which case Offload µops panic).
func New(engine *sim.Engine, cfg Config, dcache, umem mem.Port, offloadPort OffloadPort, reg *stats.Registry) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:       cfg,
		engine:    engine,
		dcache:    dcache,
		umem:      umem,
		offload:   offloadPort,
		producers: make(map[isa.Reg]*robEntry),
		pred:      newBranchPredictor(cfg.GHRBits, cfg.PHTEntries, cfg.BTBEntries),
	}
	c.offloadInsts = make([]isa.OffloadInst, cfg.FetchBufSize+cfg.DecodeBufSize+cfg.ROBSize)
	for i := range c.divBusyUntil {
		if !cfg.FUs[i].Pipelined {
			c.divBusyUntil[i] = make([]sim.Cycle, cfg.FUs[i].Units)
		}
	}
	sc := reg.Scope(cfg.Name)
	c.committed = sc.Counter("committed_uops")
	c.branches = sc.Counter("branches")
	c.mispredicts = sc.Counter("branch_mispredicts")
	c.btbMisses = sc.Counter("btb_misses")
	c.fetchStalls = sc.Counter("fetch_stall_cycles")
	c.robStalls = sc.Counter("rob_full_stalls")
	c.mobStalls = sc.Counter("mob_stalls")
	c.cacheRetry = sc.Counter("cache_retries")
	c.loads = sc.Counter("loads")
	c.stores = sc.Counter("stores")
	c.offloads = sc.Counter("offload_insts")
	c.cycles = sc.Counter("active_cycles")
	c.refusers[portDcache], _ = dcache.(refuser)
	c.refusers[portUmem], _ = umem.(refuser)
	c.refusers[portOffload], _ = offloadPort.(refuser)
	c.domain = sim.NewClockDomain(engine, 1, c)
	return c, nil
}

// newEntry draws a pooled entry and initialises it for f.
func (c *Core) newEntry(f fetchedOp) *robEntry {
	var e *robEntry
	if n := len(c.entryFree); n > 0 {
		e = c.entryFree[n-1]
		c.entryFree = c.entryFree[:n-1]
	} else {
		e = &robEntry{c: c}
		e.loadDone = func(now sim.Cycle) {
			e.c.mobReads--
			e.c.complete(e)
		}
		e.storeDone = func(now sim.Cycle) {
			e.c.mobWrites--
			e.c.release(e)
		}
	}
	e.fetchedOp = f
	e.state = stWaiting
	e.deps = 0
	e.waiters = e.waiters[:0]
	e.inROB = true
	e.uncacheable = false
	return e
}

// release returns an entry to the pool. Callers must guarantee nothing
// still references it (see commit and storeDone).
func (c *Core) release(e *robEntry) {
	c.entryFree = append(c.entryFree, e)
}

// Reset returns the core to its post-New state: pipeline empty,
// predictor untrained, MOB free, clock domain never ticked. In-flight
// entries are recovered into the pool (a machine reset drops their
// completion events with the engine's queue). Counters are zeroed by
// the registry reset the machine performs alongside.
func (c *Core) Reset() {
	c.stream = nil
	c.streamDone = false
	c.nextSeq = 0
	c.fetchBuf.Reset()
	c.decodeBuf.Reset()
	for c.rob.Len() > 0 {
		c.release(c.rob.Pop())
	}
	for c.pendingStores.Len() > 0 {
		c.release(c.pendingStores.Pop())
	}
	c.readyQ = c.readyQ[:0]
	c.readyKeep = c.readyKeep[:0]
	clear(c.producers)
	c.mobReads, c.mobWrites = 0, 0
	c.fetchStallUntil = 0
	c.blockingBranch, c.hasBlockingBr = 0, false
	c.issuedThisCycle = [fuClasses]int{}
	for i := range c.divBusyUntil {
		for j := range c.divBusyUntil[i] {
			c.divBusyUntil[i][j] = 0
		}
	}
	c.pred.reset()
	c.domain.Reset()
	c.startCycle, c.finishCycle = 0, 0
	c.running = false
	c.onFinish = nil
}

// Start begins executing a µop stream; onFinish (optional) fires when the
// last µop has committed and all stores have drained.
func (c *Core) Start(s Stream, onFinish func()) {
	if c.running {
		panic("cpu: core already running")
	}
	c.stream = s
	c.streamDone = false
	c.running = true
	c.onFinish = onFinish
	c.startCycle = c.engine.Now()
	c.domain.Kick()
}

// Cycles reports the cycles consumed by the last completed run.
func (c *Core) Cycles() sim.Cycle { return c.finishCycle - c.startCycle }

// Committed reports total committed µops.
func (c *Core) Committed() uint64 { return c.committed.Value() }

// Tick implements sim.Ticker: one pipeline cycle. A tick in which no
// stage moved anything, and whose outcome did not hinge on a timer
// (a fetch bubble, a busy divider), reports Stalled: it only retried
// refused accesses and counted stalls, and repeats exactly until an
// event changes the state it read.
func (c *Core) Tick(now sim.Cycle) sim.Activity {
	c.busy = false
	c.stall = stallRecord{}
	for i := range c.issuedThisCycle {
		c.issuedThisCycle[i] = 0
	}
	c.commit(now)
	c.issue(now)
	c.dispatch()
	c.decode()
	c.fetch(now)
	c.drainStores()
	c.credit(1)

	if c.idle() {
		c.running = false
		c.finishCycle = now
		if c.onFinish != nil {
			f := c.onFinish
			c.onFinish = nil
			f()
		}
		return sim.Idle
	}
	if c.busy {
		return sim.Busy
	}
	return sim.Stalled
}

// Skip implements sim.Ticker: k repeats of the last, stalled tick.
func (c *Core) Skip(k uint64) {
	c.credit(k)
	for p, n := range c.stall.refused {
		if n > 0 {
			c.refusers[p].RepeatRefusals(k * n)
		}
	}
}

// credit adds n ticks' worth of the current stall record to the core's
// counters.
func (c *Core) credit(n uint64) {
	c.cycles.Add(n)
	c.robStalls.Add(n * c.stall.robFull)
	c.mobStalls.Add(n * c.stall.mob)
	c.fetchStalls.Add(n * c.stall.fetch)
	c.cacheRetry.Add(n * c.stall.retries)
}

// refused records a refusal by port p. A port without a repeatable form
// makes the tick impossible to skip.
func (c *Core) refused(p int) {
	if c.refusers[p] == nil {
		c.busy = true
		return
	}
	c.stall.refused[p]++
}

func (c *Core) idle() bool {
	return c.streamDone &&
		c.fetchBuf.Len() == 0 && c.decodeBuf.Len() == 0 && c.rob.Len() == 0 &&
		c.pendingStores.Len() == 0 && c.mobWrites == 0 && c.mobReads == 0
}

// fetch brings µops into the fetch buffer, honoring the fetch-group byte
// budget, the one-branch-per-fetch rule, and branch-induced stalls.
func (c *Core) fetch(now sim.Cycle) {
	if c.streamDone || c.hasBlockingBr {
		return
	}
	if now < c.fetchStallUntil {
		c.stall.fetch++
		c.busy = true // the bubble ends on a timer
		return
	}
	budget := int(c.cfg.FetchBytes / c.cfg.InstBytes)
	branches := 0
	for budget > 0 && c.fetchBuf.Len() < c.cfg.FetchBufSize {
		c.busy = true
		uop, ok := c.stream.Next()
		if !ok {
			c.streamDone = true
			return
		}
		if uop.Class == isa.Offload {
			slot := &c.offloadInsts[c.nextSeq%uint64(len(c.offloadInsts))]
			*slot = *uop.Offload
			uop.Offload = slot
		}
		f := fetchedOp{uop: uop, seq: c.nextSeq}
		c.nextSeq++
		if uop.Class == isa.Branch {
			branches++
			c.branches.Inc()
			predicted := c.pred.predict(uop.PC)
			c.pred.update(uop.PC, uop.Taken)
			btbHit := c.pred.btbHit(uop.PC)
			if predicted != uop.Taken {
				// Fetch halts until this branch resolves at execute.
				f.mispredicted = true
				c.mispredicts.Inc()
				c.hasBlockingBr = true
				c.blockingBranch = f.seq
				c.fetchBuf.Push(f)
				return
			}
			if uop.Taken && !btbHit {
				// Correct direction but unknown target: redirect bubble.
				c.btbMisses.Inc()
				c.fetchStallUntil = now + c.cfg.BTBMissPenalty
				c.fetchBuf.Push(f)
				return
			}
			if uop.Taken || branches >= c.cfg.MaxBranchFetch {
				// Taken branches end the fetch group.
				c.fetchBuf.Push(f)
				return
			}
		}
		c.fetchBuf.Push(f)
		budget--
	}
}

// decode moves µops from the fetch buffer to the decode buffer.
func (c *Core) decode() {
	n := c.cfg.DecodeWidth
	for n > 0 && c.fetchBuf.Len() > 0 && c.decodeBuf.Len() < c.cfg.DecodeBufSize {
		c.decodeBuf.Push(c.fetchBuf.Pop())
		c.busy = true
		n--
	}
}

// dispatch renames µops into the ROB and resolves dependencies.
func (c *Core) dispatch() {
	n := c.cfg.IssueWidth
	for n > 0 && c.decodeBuf.Len() > 0 {
		if c.rob.Len() >= c.cfg.ROBSize {
			c.stall.robFull++
			return
		}
		c.busy = true
		f := c.decodeBuf.Pop()
		e := c.newEntry(f)
		if src := f.uop.Src1; src != isa.RegNone {
			if p, ok := c.producers[src]; ok && p.state != stDone {
				e.deps++
				p.waiters = append(p.waiters, e)
			}
		}
		if src := f.uop.Src2; src != isa.RegNone {
			if p, ok := c.producers[src]; ok && p.state != stDone {
				e.deps++
				p.waiters = append(p.waiters, e)
			}
		}
		if f.uop.Dst != isa.RegNone {
			c.producers[f.uop.Dst] = e
		}
		c.rob.Push(e)
		if e.deps == 0 {
			e.state = stReady
			c.readyQ = append(c.readyQ, e)
		}
		n--
	}
}

// issue selects ready µops (oldest first) respecting FU and MOB limits.
// The keep list reuses a scratch buffer swapped with readyQ each cycle.
func (c *Core) issue(now sim.Cycle) {
	issued := 0
	keep := c.readyKeep[:0]
	for _, e := range c.readyQ {
		if issued >= c.cfg.IssueWidth {
			keep = append(keep, e)
			continue
		}
		if !c.tryIssue(e, now) {
			keep = append(keep, e)
			continue
		}
		c.busy = true
		issued++
	}
	c.readyKeep = c.readyQ[:0]
	c.readyQ = keep
}

// tryIssue attempts to start execution of one µop.
func (c *Core) tryIssue(e *robEntry, now sim.Cycle) bool {
	fu := fuFor(e.uop.Class)
	fuCfg := &c.cfg.FUs[fu]
	if fuCfg.Pipelined {
		if c.issuedThisCycle[fu] >= fuCfg.Units {
			return false
		}
	} else {
		// Either outcome hinges on the clock: a unit frees on a timer,
		// and claiming one changes state even if the µop then waits.
		c.busy = true
		unit := -1
		for i, busy := range c.divBusyUntil[fu] {
			if busy <= now {
				unit = i
				break
			}
		}
		if unit < 0 {
			return false
		}
		c.divBusyUntil[fu][unit] = now + fuCfg.Latency
	}

	switch e.uop.Class {
	case isa.Load:
		if c.mobReads >= c.cfg.MOBReads {
			c.stall.mob++
			return false
		}
		port, p := c.dcache, portDcache
		if e.uop.Uncacheable {
			port, p = c.umem, portUmem
		}
		e.req = mem.Request{Addr: e.uop.Addr, Size: e.uop.Size, Kind: mem.Read, Done: e.loadDone}
		if !port.Access(&e.req) {
			c.stall.retries++
			c.refused(p)
			return false
		}
		c.mobReads++
		c.loads.Inc()
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		return true

	case isa.Offload:
		if c.offload == nil {
			panic(fmt.Sprintf("cpu %s: offload µop without an offload port", c.cfg.Name))
		}
		if c.mobReads >= c.cfg.MOBReads {
			c.stall.mob++
			return false
		}
		if !c.offload.Submit(e.uop.Offload, e.loadDone) {
			c.stall.retries++
			c.refused(portOffload)
			return false
		}
		c.mobReads++
		c.offloads.Inc()
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		return true

	case isa.Store:
		// Address generation only; the write drains post-commit.
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		c.engine.ScheduleEvent(now+fuCfg.Latency, e, tagComplete)
		return true

	default:
		e.state = stExecuting
		c.issuedThisCycle[fu]++
		done := now + fuCfg.Latency
		if e.uop.Class == isa.Branch && e.mispredicted {
			c.engine.ScheduleEvent(done, e, tagBranchResolve)
		} else {
			c.engine.ScheduleEvent(done, e, tagComplete)
		}
		return true
	}
}

// complete marks a µop done and wakes dependents.
func (c *Core) complete(e *robEntry) {
	e.state = stDone
	if e.uop.Dst != isa.RegNone {
		if p, ok := c.producers[e.uop.Dst]; ok && p == e {
			delete(c.producers, e.uop.Dst)
		}
	}
	for _, w := range e.waiters {
		w.deps--
		if w.deps == 0 && w.state == stWaiting {
			w.state = stReady
			c.readyQ = append(c.readyQ, w)
		}
	}
	e.waiters = e.waiters[:0]
}

// commit retires done µops in order; stores enter the store buffer here.
// Retired non-store entries return to the pool immediately: their
// completion event has fired (state is stDone), their waiters list is
// drained, and complete() removed any producer-table reference. Store
// entries return after their drained write completes (storeDone).
func (c *Core) commit(now sim.Cycle) {
	n := c.cfg.CommitWidth
	for n > 0 && c.rob.Len() > 0 {
		e := *c.rob.Front()
		if e.state != stDone {
			return
		}
		if e.uop.Class == isa.Store {
			if c.mobWrites >= c.cfg.MOBWrites {
				c.stall.mob++
				return
			}
			c.mobWrites++
			c.stores.Inc()
			e.req = mem.Request{Addr: e.uop.Addr, Size: e.uop.Size, Kind: mem.Write, Done: e.storeDone}
			e.uncacheable = e.uop.Uncacheable
			c.pendingStores.Push(e)
		}
		c.busy = true
		c.rob.Pop()
		e.inROB = false
		c.committed.Inc()
		if e.uop.Class != isa.Store {
			c.release(e)
		}
		n--
	}
}

// drainStores pushes buffered stores into the memory system in order.
func (c *Core) drainStores() {
	for c.pendingStores.Len() > 0 {
		e := *c.pendingStores.Front()
		port, p := c.dcache, portDcache
		if e.uncacheable {
			port, p = c.umem, portUmem
		}
		if !port.Access(&e.req) {
			c.refused(p)
			return
		}
		c.busy = true
		c.pendingStores.Pop()
	}
}
