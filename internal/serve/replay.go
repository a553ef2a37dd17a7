// The serving replay: one single-threaded virtual-time timeline of
// replica pools of per-shard FIFO queues, behind every load test. A
// fleet replays its pools under queue-aware routing and, as its spec
// declares them, admission control, adaptive routing, faults and
// recovery. A Cluster is the degenerate case: one pool that serves
// every backend, routed statically by each request's admission-time
// decision. Without faults or a recovery policy every attempt succeeds
// first time, so the attempt loop books exactly one FIFO pass per
// request. Whether the replay recovers decides only which recovery
// fields the report publishes; cluster or fleet decides only the
// report's shape.
package serve

import (
	"fmt"
	"math"
	"strconv"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/fault"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// fleetReplay is the single-threaded virtual-time state of one load
// test.
type fleetReplay struct {
	// fleet supplies the shards and the replica pools; a Cluster's
	// one-pool fleet pins ArchAuto, serving every backend.
	fleet *Fleet
	// static holds a Cluster's admission-time routing decision per
	// request (nil for fixed-architecture requests). Nil on a fleet,
	// which ranks its candidates at every attempt.
	static  []*cost.Decision
	report  *Report
	classes []ClassSpec
	accums  []classAccum
	shed    bool
	// byPlan and planResp hold each distinct candidate plan's shard
	// partials and merged answer, indexed by fleetCand.pi.
	byPlan   [][]ShardPartial
	planResp []*Response
	// poolFree is each replica pool's per-shard free time, in virtual
	// cycles — the router's queue-depth signal and the FIFO state.
	poolFree [][]uint64
	// tr records the request span tree when tracing is on (nil when
	// off). The replay is single-threaded, so recording is race-free
	// and byte-deterministic.
	tr *obs.Trace

	// ad is the per-run adaptive routing state (LoadSpec.Adaptive); nil
	// keeps routing static. adRouted/adExplored/adObserved total the
	// feedback loop's events for the serve.* counter roll-up.
	ad         *cost.Adaptive
	adRouted   uint64
	adExplored uint64
	adObserved uint64

	// inj injects the scheduled faults (nil: none); rec is the recovery
	// policy (nil: none); fstats totals fault events and recovery
	// actions; slow is the per-pool observed-slowdown EWMA the failover
	// router penalises stragglers by; done is the per-shard
	// first-completion scratch of coverage accounting.
	inj    *fault.Injector
	rec    *RecoverySpec
	fstats *FaultStats
	slow   []float64
	done   []bool
}

// cluster reports whether the replay serves a single-replica Cluster.
func (rp *fleetReplay) cluster() bool { return rp.static != nil }

// recovering reports whether the load test declared faults or a
// recovery policy: only then do classes time out and the report carry
// attempt, coverage and fault accounting. The gate itself is
// allocation-free.
func (rp *fleetReplay) recovering() bool { return rp.inj != nil || rp.rec != nil }

// run replays spec over the admitted requests' routing candidates
// (cands, one list per request of the spec) and returns the report.
// Every distinct candidate plan of the issued requests is computed
// once on the bounded executor pool and verified against the unsharded
// reference evaluator; the timeline is then replayed single-threaded.
// Reports are byte-identical at any worker count.
func (rp *fleetReplay) run(spec LoadSpec, opt Options, cands [][]fleetCand) (*Report, error) {
	c, pools := rp.fleet.Cluster, rp.fleet.pools
	var err error
	// Adaptive routing state is built fresh per load test from the spec:
	// the replay is single-threaded, so observations fold in arrival
	// order and the report is byte-identical at any worker count.
	if spec.Adaptive != nil {
		if rp.ad, err = cost.NewAdaptive(*spec.Adaptive); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if spec.Faults != nil {
		if rp.inj, err = fault.New(*spec.Faults, len(pools), len(c.shards)); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	rp.rec = spec.Recovery

	// Open loop fixes the issued set (and arrival times) up front;
	// closed loop issues every request.
	reqs := spec.Requests
	var arrivalTimes []uint64
	if spec.Mode == Open {
		arrivalTimes = spec.arrivals()
		reqs = reqs[:len(arrivalTimes)]
		if len(reqs) == 0 {
			return nil, fmt.Errorf("serve: no request arrives inside %d cycles", spec.DurationCycles)
		}
	}

	// Compute stage: every distinct candidate plan, first-occurrence
	// order, each (plan, shard) simulated exactly once; merge + verify
	// once per plan.
	planIndex := make(map[query.Plan]int)
	var plans []query.Plan
	for _, cs := range cands[:len(reqs)] {
		for j := range cs {
			pi, ok := planIndex[cs[j].plan]
			if !ok {
				pi = len(plans)
				planIndex[cs[j].plan] = pi
				plans = append(plans, cs[j].plan)
			}
			cs[j].pi = pi
		}
	}
	if rp.byPlan, err = c.runPlanSet(plans, opt); err != nil {
		return nil, err
	}
	rp.planResp = make([]*Response, len(plans))
	for pi, p := range plans {
		if rp.planResp[pi], err = c.merge(Request{Plan: p}, rp.byPlan[pi]); err != nil {
			return nil, fmt.Errorf("serve: plan %s: %w", p, err)
		}
	}

	// Virtual-time replay, single-threaded. Busy time books per pool
	// and per shard; the report keeps the view its shape shows.
	r := &Report{
		Mode:     spec.Mode.String(),
		Shards:   len(c.shards),
		Rows:     c.whole.N,
		Offered:  len(spec.Requests),
		Pools:    make([]PoolStats, len(pools)),
		PerShard: newShardStats(len(c.shards)),
	}
	if opt.Exec == sweep.ExecEstimate {
		r.ExecMode = opt.Exec.String()
	}
	// Counter totals sum each distinct (plan, shard) simulation once —
	// requests and replica pools share the memoised runs, so
	// per-request summing would double-count them.
	if opt.Counters {
		r.Counters = sumPlanCounters(rp.byPlan)
	}
	if opt.Trace {
		rp.tr = obs.NewTrace()
		rp.tr.NameProcess(0, "requests")
	}
	rp.report, rp.classes, rp.shed = r, spec.classes(), spec.Shed
	rp.accums = newClassAccums(rp.classes)
	rp.poolFree = make([][]uint64, len(pools))
	rp.slow = make([]float64, len(pools))
	rp.done = make([]bool, len(c.shards))
	rp.fstats = &FaultStats{}
	for pi, a := range pools {
		r.Pools[pi] = PoolStats{Pool: pi, Arch: a.String()}
		rp.poolFree[pi] = make([]uint64, len(c.shards))
		rp.slow[pi] = 1
		if rp.tr.On() {
			name := fmt.Sprintf("pool %d (%s)", pi, a)
			if rp.cluster() {
				name = "cluster"
			}
			rp.tr.NameProcess(1+pi, name)
			for s := range c.shards {
				rp.tr.NameThread(1+pi, s, fmt.Sprintf("shard %d", s))
			}
		}
	}
	switch spec.Mode {
	case Open:
		for i := range reqs {
			if _, err := rp.dispatchRecover(i, -1, arrivalTimes[i], reqs[i], cands[i]); err != nil {
				return nil, err
			}
		}
	case Closed:
		concurrency := min(spec.Concurrency, len(reqs))
		clientFree := make([]uint64, concurrency)
		for i := range reqs {
			// The next issue slot is the earliest-free client; ties break
			// on client index, so arrivals are nondecreasing and the
			// replay is fully deterministic.
			client := 0
			for cl := 1; cl < concurrency; cl++ {
				if clientFree[cl] < clientFree[client] {
					client = cl
				}
			}
			tr, err := rp.dispatchRecover(i, client, clientFree[client], reqs[i], cands[i])
			if err != nil {
				return nil, err
			}
			clientFree[client] = tr.Completion
		}
		r.Concurrency = concurrency
	}
	r.Trace = rp.tr
	r.finish()
	if rp.cluster() {
		r.Pools = nil
	} else {
		r.PerShard = nil
		r.finishFleet(rp.accums, rp.recovering())
	}
	if rp.recovering() {
		r.Faults = rp.fstats
		r.Degraded = rp.fstats.Degraded
		if opt.Counters {
			r.Counters.Add(rp.fstats.recoveryCounters(r.Shed))
		}
	}
	if rp.ad != nil && opt.Counters {
		r.Counters.Add(obs.NewCounters(map[string]uint64{
			"serve.adaptive_routed":       rp.adRouted,
			"serve.adaptive_explored":     rp.adExplored,
			"serve.adaptive_observations": rp.adObserved,
		}))
	}
	return r, nil
}

// dispatchRecover admits, routes and books one arrival. It sheds, routes
// (health-aware under failover), and then drives the attempt loop —
// timeout, capped-backoff retries, optional hedging — until the
// request completes or its budget degrades it to a partial result. A
// shed request produces a zero trace but is fully accounted in the
// report; a served request's trace lands in report.Requests.
func (rp *fleetReplay) dispatchRecover(index, client int, arrival uint64, req Request, cands []fleetCand) (RequestTrace, error) {
	spec := rp.classes[req.Class]
	acc := &rp.accums[req.Class]
	acc.row.Offered++
	if rp.shed && spec.PatienceCycles > 0 {
		if backlog := rp.admissionBacklog(cands, arrival); backlog > spec.PatienceCycles {
			acc.row.Shed++
			rp.report.Shed++
			rp.report.ShedRequests = append(rp.report.ShedRequests, ShedTrace{
				Index: index, Class: req.Class, Arrival: arrival, QueueCycles: backlog,
			})
			if rp.tr.On() {
				rp.tr.Instant("shed", "admission", 0, 0, arrival,
					obs.Arg{Key: "class", Val: spec.Name},
					obs.Arg{Key: "backlog_cycles", Val: strconv.FormatUint(backlog, 10)})
			}
			return RequestTrace{}, nil
		}
	}

	recovering := rp.recovering()
	maxRetries := 0
	var timeout, backoff, backoffCap uint64
	hedging := false
	if recovering {
		timeout = spec.TimeoutCycles
	}
	if rp.rec != nil {
		maxRetries = rp.rec.MaxRetries
		backoff = rp.rec.BackoffCycles
		backoffCap = rp.rec.BackoffCapCycles
		hedging = rp.rec.Hedge && spec.HedgeCycles > 0
	}

	for s := range rp.done {
		rp.done[s] = false
	}
	var cov coverage
	t := arrival
	attempts, hedges := 0, 0
	hedgeWon, degraded := false, false
	var completion uint64
	var chosen fleetCand
	var d *cost.Decision
	var reqName string
	for {
		attempts++
		dec, cand, failedOver, err := rp.routeHealth(index, cands, t)
		if err != nil {
			return RequestTrace{}, fmt.Errorf("serve: request %d: %w", index, err)
		}
		chosen, d = cand, dec
		if failedOver {
			rp.fstats.Failovers++
			acc.row.Failovers++
		}
		if rp.tr.On() {
			if attempts == 1 {
				reqName = rp.traceBegin(index, arrival, spec.Name, cand.plan)
			}
			if failedOver {
				rp.tr.Instant("failover", "routing", 0, 0, t,
					obs.Arg{Key: "pool", Val: strconv.Itoa(cand.pool)})
			}
			rp.traceRoute(t, dec, cand, len(cands), attempts)
		}
		primary := rp.runAttempt(reqName, cand, t, timeout, &cov)

		var hedge attemptOutcome
		hedged := false
		if hedging && !(primary.success && primary.completion <= t+spec.HedgeCycles) {
			if hc, ok := rp.hedgeCandidate(cands, cand.pool, t+spec.HedgeCycles); ok {
				hedged = true
				hedges++
				rp.fstats.Hedges++
				acc.row.Hedges++
				if rp.tr.On() {
					rp.tr.Instant("hedge", "recovery", 0, 0, t+spec.HedgeCycles,
						obs.Arg{Key: "pool", Val: strconv.Itoa(hc.pool)})
				}
				hedge = rp.runAttempt(reqName, hc, t+spec.HedgeCycles, timeout, &cov)
			}
		}

		if primary.success || (hedged && hedge.success) {
			completion = primary.completion
			if hedged && hedge.success && (!primary.success || hedge.completion < primary.completion) {
				completion = hedge.completion
				hedgeWon = true
				rp.fstats.HedgeWins++
				acc.row.HedgeWins++
				chosen = fleetCand{} // re-resolved below
				for _, c := range cands {
					if c.pool == hedge.pool {
						chosen = c
						break
					}
				}
			}
			break
		}

		failAt := primary.resolve
		if hedged && hedge.resolve > failAt {
			failAt = hedge.resolve
		}
		if attempts-1 >= maxRetries {
			degraded = true
			completion = failAt
			break
		}
		rp.fstats.Retries++
		acc.row.Retries++
		t = failAt + backoff
		if rp.tr.On() {
			rp.tr.Instant("retry", "recovery", 0, 0, t,
				obs.Arg{Key: "attempt", Val: strconv.Itoa(attempts + 1)},
				obs.Arg{Key: "backoff_cycles", Val: strconv.FormatUint(backoff, 10)})
		}
		if next := backoff * 2; next > backoff {
			backoff = next
			if backoffCap > 0 && backoff > backoffCap {
				backoff = backoffCap
			}
		}
	}

	resp := rp.planResp[chosen.pi]
	rp.report.Pools[chosen.pool].Requests++
	latency := completion - arrival
	covFrac := 1.0
	matches, revenue := resp.Matches, resp.Revenue
	errMatches, errRevenue := 0.0, 0.0
	if degraded {
		rp.fstats.Degraded++
		covFrac = float64(cov.rows) / float64(rp.fleet.whole.N)
		matches, revenue = cov.matches, cov.revenue
		errMatches = relErr(float64(matches), float64(resp.Matches))
		errRevenue = relErr(float64(revenue), float64(resp.Revenue))
		if rp.tr.On() {
			rp.tr.Instant("degraded", "recovery", 0, 0, completion,
				obs.Arg{Key: "coverage", Val: strconv.FormatFloat(covFrac, 'g', -1, 64)})
		}
	}
	acc.observe(latency, spec.SLOCycles > 0, degraded, covFrac, errRevenue)
	rp.observeAdaptive(d, chosen, float64(resp.Cycles))
	if rp.tr.On() {
		rp.tr.Instant("merge", "merge", 0, 0, completion,
			obs.Arg{Key: "matches", Val: strconv.Itoa(matches)})
		end := []obs.Arg{{Key: "latency_cycles", Val: strconv.FormatUint(latency, 10)}}
		if recovering {
			end = append(end, obs.Arg{Key: "attempts", Val: strconv.Itoa(attempts)})
		}
		rp.tr.End(reqName, "request", 0, index, completion, end...)
	}
	tr := RequestTrace{
		Index:      index,
		Client:     client,
		Plan:       chosen.plan,
		Routing:    d,
		Class:      req.Class,
		Arrival:    arrival,
		Completion: completion,
		Latency:    latency,
		Service:    resp.Cycles,
		Work:       resp.WorkCycles,
		Matches:    matches,
		Revenue:    revenue,
	}
	if !rp.cluster() {
		tr.Pool = &PoolPick{
			Pool: chosen.pool, Arch: rp.fleet.pools[chosen.pool].String(),
			QueueCycles: uint64(d.QueueCycles[d.ChosenIndex]), EstCycles: chosen.est.Cycles,
		}
	}
	if recovering {
		tr.Attempts, tr.Hedges, tr.HedgeWon = attempts, hedges, hedgeWon
		tr.Degraded, tr.Coverage = degraded, covFrac
		tr.ErrMatches, tr.ErrRevenue = errMatches, errRevenue
	}
	rp.report.Requests = append(rp.report.Requests, tr)
	return tr, nil
}

// traceBegin opens request index's span on the router track (pid 0)
// and returns its name. A recovering replay names the span by index
// alone, since a retry may land on another backend; otherwise the
// name carries the backend. Cluster spans carry the backend as their
// argument, fleet spans the admission class.
func (rp *fleetReplay) traceBegin(index int, arrival uint64, class string, p query.Plan) string {
	name := fmt.Sprintf("q%d %s", index, p.Arch)
	if rp.recovering() {
		name = fmt.Sprintf("q%d", index)
	}
	arg := obs.Arg{Key: "class", Val: class}
	if rp.cluster() {
		arg = obs.Arg{Key: "arch", Val: p.Arch.String()}
	}
	rp.tr.Begin(name, "request", 0, index, arrival, arg)
	return name
}

// traceRoute records one attempt's routing instant on the router
// track. A cluster records the planner's pick for routed requests
// only; a fleet records the pool pick, with the attempt number when
// the replay recovers and the candidate count and absorbed backlog
// otherwise.
func (rp *fleetReplay) traceRoute(t uint64, d *cost.Decision, c fleetCand, nCands, attempt int) {
	switch {
	case rp.cluster():
		if d != nil {
			rp.tr.Instant("route", "routing", 0, 0, t,
				obs.Arg{Key: "chosen", Val: d.Chosen.Arch.String()},
				obs.Arg{Key: "candidates", Val: strconv.Itoa(len(d.Estimates))})
		}
	case rp.recovering():
		rp.tr.Instant("route", "routing", 0, 0, t,
			obs.Arg{Key: "pool", Val: strconv.Itoa(c.pool)},
			obs.Arg{Key: "arch", Val: rp.fleet.pools[c.pool].String()},
			obs.Arg{Key: "attempt", Val: strconv.Itoa(attempt)})
	default:
		rp.tr.Instant("route", "routing", 0, 0, t,
			obs.Arg{Key: "pool", Val: strconv.Itoa(c.pool)},
			obs.Arg{Key: "arch", Val: rp.fleet.pools[c.pool].String()},
			obs.Arg{Key: "candidates", Val: strconv.Itoa(nCands)},
			obs.Arg{Key: "queue_cycles", Val: strconv.FormatUint(uint64(d.QueueCycles[d.ChosenIndex]), 10)})
	}
}

// backlogAt is a pool's booked critical-path backlog at cycle t: the
// worst per-shard excess of its free time over t, exclusive of
// outages.
func (rp *fleetReplay) backlogAt(pool int, t uint64) uint64 {
	var backlog uint64
	for _, free := range rp.poolFree[pool] {
		if free > t && free-t > backlog {
			backlog = free - t
		}
	}
	return backlog
}

// admissionBacklog is the booked backlog on the least-loaded candidate
// at cycle t — what admission control weighs against the class's
// patience. Under failover, down pools cannot absorb the request, so
// the bound is taken over the healthy candidates; when every candidate
// is down, each counts with its outage wait added.
func (rp *fleetReplay) admissionBacklog(cands []fleetCand, t uint64) uint64 {
	failover := rp.rec != nil && rp.rec.Failover
	minBacklog, seen := uint64(0), false
	allDownMin, allSeen := uint64(0), false
	for i := range cands {
		pool := cands[i].pool
		backlog := rp.backlogAt(pool, t)
		if until, down := rp.inj.DownUntil(pool, t); down && failover {
			if wait := until - t + backlog; !allSeen || wait < allDownMin {
				allDownMin, allSeen = wait, true
			}
			continue
		}
		if !seen || backlog < minBacklog {
			minBacklog, seen = backlog, true
		}
	}
	if !seen && allSeen {
		return allDownMin
	}
	return minBacklog
}

// routeHealth picks one attempt's candidate at cycle t. A Cluster routes
// statically: its one candidate under the admission-time decision. A
// fleet ranks its candidates by predicted critical path plus booked
// backlog (rank). With failover on, down pools are excluded and
// straggling pools penalised by the observed slowdown; when every
// candidate is down the pick queues for the earliest recovery, the
// outage wait folded into each queue penalty. Returns the decision,
// the chosen candidate, and whether the pick failed over (excluded at
// least one down pool).
func (rp *fleetReplay) routeHealth(index int, cands []fleetCand, t uint64) (*cost.Decision, fleetCand, bool, error) {
	if rp.cluster() {
		return rp.static[index], cands[0], false, nil
	}
	queue := make([]float64, len(cands))
	for ci := range cands {
		queue[ci] = float64(rp.backlogAt(cands[ci].pool, t))
	}
	var health []cost.Health
	nDown := 0
	if rp.rec != nil && rp.rec.Failover {
		health = make([]cost.Health, len(cands))
		for ci, c := range cands {
			until, down := rp.inj.DownUntil(c.pool, t)
			health[ci] = cost.Health{Down: down, Slowdown: rp.slow[c.pool]}
			if down {
				nDown++
				// Pre-fold the outage wait so the all-down fallback ranks by
				// earliest recovery plus backlog.
				queue[ci] += float64(until - t)
			}
		}
	}
	d, err := rank(rp.ad, index, cands, queue, health)
	if err != nil {
		return nil, fleetCand{}, false, err
	}
	if rp.ad != nil {
		rp.adRouted++
		if d.Explored {
			rp.adExplored++
		}
	}
	return d, cands[d.ChosenIndex], nDown > 0 && !health[d.ChosenIndex].Down, nil
}

// hedgeCandidate picks the hedge attempt's target: the best-scored
// candidate on a pool distinct from primary (healthy pools only under
// failover), or ok=false when no distinct pool can serve.
func (rp *fleetReplay) hedgeCandidate(cands []fleetCand, primary int, t uint64) (fleetCand, bool) {
	failover := rp.rec != nil && rp.rec.Failover
	best, found := fleetCand{}, false
	var bestScore float64
	for _, c := range cands {
		if c.pool == primary {
			continue
		}
		if failover {
			if _, down := rp.inj.DownUntil(c.pool, t); down {
				continue
			}
		}
		score := c.est.Cycles + float64(rp.backlogAt(c.pool, t))
		if failover && rp.slow[c.pool] > 1 {
			score = c.est.Cycles*rp.slow[c.pool] + float64(rp.backlogAt(c.pool, t))
		}
		if !found || score < bestScore {
			best, bestScore, found = c, score, true
		}
	}
	return best, found
}

// runAttempt books one attempt of a request on candidate c's pool,
// dispatched at cycle t under the attempt timeout (0: none). Per shard
// it applies, in order: FIFO queueing behind the pool's booked work,
// transient stall delay, outage wait, straggler service inflation;
// then resolves the task as completed, killed by a crash beginning
// mid-execution, or cancelled at the deadline. Booked busy cycles —
// including wasted work of killed and cancelled tasks — land on the
// pool's and the shard's accounting, and first-time shard completions
// accumulate into cov.
func (rp *fleetReplay) runAttempt(reqName string, c fleetCand, t, timeout uint64, cov *coverage) attemptOutcome {
	parts := rp.byPlan[c.pi]
	free := rp.poolFree[c.pool]
	pool := &rp.report.Pools[c.pool]
	deadline := uint64(math.MaxUint64)
	if timeout > 0 {
		deadline = t + timeout
	}
	out := attemptOutcome{pool: c.pool, success: true}
	maxRatio := 0.0
	for s, p := range parts {
		start := t
		if free[s] > start {
			start = free[s]
		}
		if st := rp.inj.StallUntil(c.pool, s, start); st > start {
			start = st
			rp.fstats.StallDelays++
		}
		if until, down := rp.inj.DownUntil(c.pool, start); down {
			start = until
		}
		if start >= deadline {
			// The shard never starts inside the attempt's budget; its
			// queue state stays as it was.
			out.success = false
			if deadline > out.resolve {
				out.resolve = deadline
			}
			continue
		}
		svc := p.Cycles
		if slow := rp.inj.Slowdown(c.pool, s, start); slow > 1 {
			svc = uint64(math.Ceil(float64(svc) * slow))
			rp.fstats.Straggles++
		}
		end := start + svc
		var busy uint64
		switch crashAt, _, killed := rp.inj.NextCrash(c.pool, start, end); {
		case killed:
			// The outage kills the task mid-flight; work up to the crash
			// is wasted. Later starts on this shard pass through
			// DownUntil, which parks them past the recovery.
			busy = crashAt - start
			free[s] = crashAt
			rp.fstats.CrashKills++
			out.success = false
			if crashAt > out.resolve {
				out.resolve = crashAt
			}
			if rp.tr.On() {
				rp.tr.Complete(reqName, "shard-killed", 1+c.pool, s, start, crashAt,
					obs.Arg{Key: "fault", Val: "crash"})
			}
		case end > deadline:
			// Cancelled at the class deadline; partial work is wasted.
			busy = deadline - start
			free[s] = deadline
			out.success = false
			if deadline > out.resolve {
				out.resolve = deadline
			}
			if rp.tr.On() {
				rp.tr.Complete(reqName, "shard-timeout", 1+c.pool, s, start, deadline,
					obs.Arg{Key: "fault", Val: "timeout"})
			}
		default:
			busy = svc
			free[s] = end
			if end > out.completion {
				out.completion = end
			}
			if end > out.resolve {
				out.resolve = end
			}
			if ratio := float64(svc) / float64(p.Cycles); ratio > maxRatio {
				maxRatio = ratio
			}
			if !rp.done[s] {
				rp.done[s] = true
				cov.rows += rp.fleet.shards[s].N
				cov.matches += p.Matches
				cov.revenue += p.Revenue
			}
			if rp.tr.On() {
				rp.tr.Complete(reqName, "shard", 1+c.pool, s, start, end,
					obs.Arg{Key: "matches", Val: strconv.Itoa(p.Matches)})
			}
		}
		pool.Tasks++
		pool.BusyCycles += busy
		rp.report.PerShard[s].Tasks++
		rp.report.PerShard[s].BusyCycles += busy
	}
	// Fold the attempt's observed service inflation into the pool's
	// slowdown estimate — the failover router's straggler signal. Only
	// completed tasks observe a ratio; kills are caught by DownUntil.
	if maxRatio > 0 {
		rp.slow[c.pool] = 0.75*rp.slow[c.pool] + 0.25*maxRatio
	}
	return out
}

// observeAdaptive closes the feedback loop for one completed request:
// the chosen backend's (kind, selectivity-bucket) cell absorbs the
// observed nominal service cycles. Fault-driven inflation stays out of
// the cells on purpose — the slowdown EWMA and health-aware routing
// already carry it — so adaptive state converges on the workload, not
// on transient faults.
func (rp *fleetReplay) observeAdaptive(d *cost.Decision, chosen fleetCand, cycles float64) {
	if rp.ad == nil || d == nil {
		return
	}
	rp.ad.Observe(chosen.plan.Kind, chosen.plan.Arch, chosen.sel, cycles)
	rp.adObserved++
}

// finishFleet derives the fleet-only aggregates: per-class rows (with
// coverage means when the replay recovered) and per-pool utilisation
// (each pool runs len(shards) engines, so its denominator is makespan
// x shards).
func (r *Report) finishFleet(accums []classAccum, recovering bool) {
	for i := range accums {
		r.Classes = append(r.Classes, accums[i].finish(recovering))
	}
	if r.MakespanCycles > 0 && r.Shards > 0 {
		denom := float64(r.MakespanCycles) * float64(r.Shards)
		for i := range r.Pools {
			r.Pools[i].Utilisation = float64(r.Pools[i].BusyCycles) / denom
		}
	}
}
