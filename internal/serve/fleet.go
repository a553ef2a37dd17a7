// The fleet layer: R replica pools over one sharded table, each pool
// pinned to a backend family, with a router that picks the (replica,
// backend) pair jointly from the cost model's predicted critical path
// plus the replica's current virtual-time backlog — and, under
// overload, admission control that sheds low-patience classes first.
//
// Replicas hold the same data, so a (plan, shard) service time is
// identical on every pool that can run the plan; the fleet therefore
// shares the Cluster's executor pool and memoised shard simulations,
// and only the virtual-time replay — which is single-threaded — knows
// about pools. Reports stay byte-identical at any worker count.
package serve

import (
	"errors"
	"fmt"
	"sync"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// Fleet is a replicated serving fleet: the embedded Cluster's shards,
// replicated across len(pools) complete replicas, each pinned to one
// backend family. Immutable after NewFleet and safe for concurrent
// Query calls.
type Fleet struct {
	*Cluster
	pools []query.Arch

	// ests caches the sharded cost estimate per distinct plan — the
	// router's per-candidate input, a pure function of (shards, plan).
	estMu sync.Mutex
	ests  map[query.Plan]poolEstimate
}

type poolEstimate struct {
	est cost.Estimate
	sel float64
}

// NewFleet builds a fleet over tab cut into nShards shards, with one
// complete replica per entry of pools, pinned to that architecture.
// Pools must name registered concrete backends — ArchAuto names no
// backend family to pin a replica to and is rejected.
func NewFleet(cfg sweep.Config, tab *db.Table, nShards int, pools []query.Arch) (*Fleet, error) {
	if len(pools) == 0 {
		return nil, fmt.Errorf("serve: a fleet needs at least one replica pool")
	}
	for i, a := range pools {
		if a == query.ArchAuto {
			return nil, fmt.Errorf("serve: pool %d: replica pools must pin a concrete backend, not auto", i)
		}
		if _, ok := query.BackendFor(a); !ok {
			return nil, fmt.Errorf("serve: pool %d: architecture %d is not a registered backend", i, a)
		}
	}
	c, err := New(cfg, tab, nShards)
	if err != nil {
		return nil, err
	}
	return &Fleet{
		Cluster: c,
		pools:   append([]query.Arch(nil), pools...),
		ests:    make(map[query.Plan]poolEstimate),
	}, nil
}

// Pools reports the replica pools' pinned architectures, in pool order.
func (f *Fleet) Pools() []query.Arch { return append([]query.Arch(nil), f.pools...) }

// Calibrate replaces the fleet's routing cost model (see
// Cluster.Calibrate) and additionally invalidates the cached sharded
// estimates the fleet router ranks candidates by.
func (f *Fleet) Calibrate(p cost.Params) {
	f.Cluster.Calibrate(p)
	f.estMu.Lock()
	f.ests = make(map[query.Plan]poolEstimate)
	f.estMu.Unlock()
}

// fleetCand is one routable (replica pool, plan) pair with its cached
// cost estimate. In a load test, pi indexes the plan in the replay's
// compute stage.
type fleetCand struct {
	pool int
	plan query.Plan
	est  cost.Estimate
	sel  float64
	pi   int
}

// estimate returns the sharded estimate for one plan, cached.
func (f *Fleet) estimate(p query.Plan) (cost.Estimate, float64, error) {
	f.estMu.Lock()
	e, ok := f.ests[p]
	f.estMu.Unlock()
	if ok {
		return e.est, e.sel, nil
	}
	est, sel, err := cost.EstimateSharded(f.params, f.shards, p)
	if err != nil {
		return cost.Estimate{}, 0, err
	}
	f.estMu.Lock()
	f.ests[p] = poolEstimate{est: est, sel: sel}
	f.estMu.Unlock()
	return est, sel, nil
}

// candidatesFor expands one request into its routable (pool, plan)
// candidates, in pool order. An ArchAuto request is a candidate on
// every pool (each pool's pinned backend's best serving shape over the
// request's predicate); a fixed-architecture request only on pools
// pinned to that architecture. Pools whose plan the envelope rejects
// are skipped; an error is returned only when no pool survives.
func (f *Fleet) candidatesFor(req Request) ([]fleetCand, error) {
	maxRows := f.maxShardRows()
	var cands []fleetCand
	for pi, arch := range f.pools {
		p := req.Plan
		if p.Auto() {
			b, _ := query.BackendFor(arch)
			p = autoPlan(req.Plan, b)
		} else if p.Arch != arch {
			continue
		}
		if p.ValidateFor(maxRows) != nil {
			continue
		}
		est, sel, err := f.estimate(p)
		if err != nil {
			continue
		}
		cands = append(cands, fleetCand{pool: pi, plan: p, est: est, sel: sel})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("serve: no replica pool can serve %s", req.Plan)
	}
	return cands, nil
}

// Admit validates a request against the fleet: its class must be
// non-negative and at least one replica pool must be able to execute
// it.
func (f *Fleet) Admit(req Request) error {
	_, err := f.admit(req)
	return err
}

// admit is Admit returning the request's routable candidates.
func (f *Fleet) admit(req Request) ([]fleetCand, error) {
	if req.Class < 0 {
		return nil, fmt.Errorf("serve: negative admission class %d", req.Class)
	}
	return f.candidatesFor(req)
}

// rank is the one routing hook behind every fleet pick, online or
// replayed, and every adaptive cluster pick. It scores each candidate
// by predicted critical path plus its queue penalty. With ad non-nil,
// each analytic prior is blended with the observed-cycles EWMA of the
// candidate's (kind, backend, selectivity bucket) cell, and the
// deterministic exploration floor may override the pick for request
// index; the decision records the blend, the bucket samples and the
// override, so every pick stays auditable. A non-nil health makes the
// pick failover-aware (cost.RankLoadedHealth); when every candidate is
// down it falls back to health-blind ranking over the queues, which
// then carry the outage waits. Exploration never lands on a down
// candidate: such a draw is dropped rather than redirected, so the
// draw stays a pure function of (seed, index).
func rank(ad *cost.Adaptive, index int, cands []fleetCand, queue []float64, health []cost.Health) (*cost.Decision, error) {
	ests := make([]cost.Estimate, len(cands))
	var obsCycles []float64
	var samples []uint64
	if ad != nil {
		obsCycles = make([]float64, len(cands))
		samples = make([]uint64, len(cands))
	}
	for i, c := range cands {
		ests[i] = c.est
		if ad != nil {
			blended, _, n := ad.Blended(c.plan.Kind, c.plan.Arch, c.sel, c.est.Cycles)
			if n > 0 {
				obsCycles[i] = blended
			}
			samples[i] = n
		}
	}
	d, err := cost.RankLoadedHealth(cands[0].sel, ests, queue, health, obsCycles)
	if errors.Is(err, cost.ErrAllDown) {
		d, err = cost.RankLoaded(cands[0].sel, ests, queue, obsCycles)
	}
	if err != nil {
		return nil, err
	}
	if ad != nil {
		d.BucketSamples = samples
		if j, ok := ad.ExplorePick(index, len(cands)); ok && (health == nil || !health[j].Down) {
			d.ChosenIndex = j
			d.Chosen = d.Estimates[j].Plan
			d.Explored = true
		}
	}
	return d, nil
}

// Query routes one request across the fleet's replica pools — on an
// idle fleet the queues are zero, so the pick is the predicted-fastest
// (replica, backend) pair, blended with observed cycles when
// EnableAdaptive is on — executes it on the shared shard engines, and
// returns the verified answer with the routing decision and pool pick
// attached. Safe for concurrent callers.
func (f *Fleet) Query(req Request, opt Options) (*Response, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	cands, err := f.admit(req)
	if err != nil {
		return nil, err
	}
	d, ad, err := f.adaptiveRoute(cands)
	if err == nil && d == nil {
		d, err = rank(nil, 0, cands, make([]float64, len(cands)), nil)
	}
	if err != nil {
		return nil, err
	}
	chosen := cands[d.ChosenIndex]
	resp, err := f.execute(Request{Plan: chosen.plan, Class: req.Class}, opt)
	if err != nil {
		return nil, err
	}
	f.observe(ad, chosen, resp.Cycles)
	resp.Routing = d
	resp.Pool = &PoolPick{
		Pool: chosen.pool, Arch: f.pools[chosen.pool].String(),
		EstCycles: chosen.est.Cycles,
	}
	return resp, nil
}

// LoadTest runs the load spec against the fleet: every request expands
// into its (pool, plan) candidates, and the replay (fleetReplay.run)
// computes each distinct candidate plan once and replays the timeline.
// Per arrival, the router ranks the candidates by predicted critical
// path plus the candidate replica's current backlog; admission control
// (Shed) refuses requests whose class's patience even the least-loaded
// candidate exceeds; the pick dispatches FIFO onto the chosen
// replica's shard queues, under the spec's faults and recovery policy
// when it declares them. Reports are byte-identical at any worker
// count.
func (f *Fleet) LoadTest(spec LoadSpec, opt Options) (*Report, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	classes := spec.classes()
	cands := make([][]fleetCand, len(spec.Requests))
	for i, req := range spec.Requests {
		if req.Class < 0 || req.Class >= len(classes) {
			return nil, fmt.Errorf("serve: request %d: class %d outside the %d declared classes",
				i, req.Class, len(classes))
		}
		cs, err := f.candidatesFor(req)
		if err != nil {
			return nil, fmt.Errorf("serve: request %d: %w", i, err)
		}
		cands[i] = cs
	}
	return (&fleetReplay{fleet: f}).run(spec, opt, cands)
}
