// Request-level recovery for the replicated fleet: per-class
// virtual-time attempt timeouts, capped exponential-backoff retries,
// hedged second attempts, health-aware failover routing, and — when
// the retry budget runs out — graceful degradation to a partial result
// with exact coverage and answer-error accounting.
//
// The mechanism lives inside the single-threaded virtual-time replay
// (replay.go), so faulted runs are exactly as deterministic — and as
// worker-count-independent — as healthy ones. The replay keeps
// arrival-order priority: a request's retries and hedges book shard
// capacity when the request is processed, ahead of later arrivals —
// a deterministic simplification of real contention between retried
// and fresh work.
package serve

import (
	"fmt"
	"math"

	"github.com/hipe-sim/hipe/internal/obs"
)

// RecoverySpec declares the fleet's request-level recovery policy.
// The zero value (or a nil pointer on the load spec) disables every
// mechanism; per-class timeouts and hedge delays live on ClassSpec.
type RecoverySpec struct {
	// MaxRetries bounds the re-dispatch attempts after the first try.
	// A request whose final attempt fails degrades to a partial result.
	MaxRetries int
	// BackoffCycles is the virtual-time delay between a failed attempt
	// and its retry; each further retry doubles it (capped exponential
	// backoff). Zero retries immediately.
	BackoffCycles uint64
	// BackoffCapCycles caps the doubling (0 = uncapped).
	BackoffCapCycles uint64
	// Hedge honours the classes' HedgeCycles delays: a primary attempt
	// still incomplete that long after dispatch gets a second attempt
	// on the next-ranked distinct replica pool, first completion wins.
	Hedge bool
	// Failover makes routing health-aware (cost.RankLoadedHealth): down
	// replica pools are excluded and straggling pools are penalised by
	// the replay's observed-slowdown factor.
	Failover bool
}

// validate rejects malformed recovery policies.
func (r *RecoverySpec) validate() error {
	if r == nil {
		return nil
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("serve: negative retry budget %d", r.MaxRetries)
	}
	if r.BackoffCapCycles > 0 && r.BackoffCapCycles < r.BackoffCycles {
		return fmt.Errorf("serve: backoff cap %d below the base backoff %d",
			r.BackoffCapCycles, r.BackoffCycles)
	}
	return nil
}

// FaultStats totals a faulted/recovering load test's fault events and
// recovery actions. It appears on the report (and, with counters on,
// as serve.* keys in Report.Counters) only when fault injection or a
// recovery policy was configured.
type FaultStats struct {
	// CrashKills counts shard tasks killed mid-flight by a replica
	// outage; StallDelays dispatches delayed by a transient stall;
	// Straggles shard tasks inflated by a straggler episode.
	CrashKills  int
	StallDelays int
	Straggles   int
	// Retries, Hedges, HedgeWins and Failovers total the recovery
	// actions; Degraded the requests answered with a partial result.
	Retries   int
	Hedges    int
	HedgeWins int
	Failovers int
	Degraded  int
}

// recoveryCounters renders the totals as obs counter keys so
// BENCH-style overhead checks can read recovery cost next to the
// machine counters.
func (fs *FaultStats) recoveryCounters(shed int) *obs.Counters {
	return obs.NewCounters(map[string]uint64{
		"serve.crash_kills":  uint64(fs.CrashKills),
		"serve.stall_delays": uint64(fs.StallDelays),
		"serve.straggles":    uint64(fs.Straggles),
		"serve.retries":      uint64(fs.Retries),
		"serve.hedges":       uint64(fs.Hedges),
		"serve.hedge_wins":   uint64(fs.HedgeWins),
		"serve.failovers":    uint64(fs.Failovers),
		"serve.shed":         uint64(shed),
		"serve.degraded":     uint64(fs.Degraded),
	})
}

// coverage accumulates the shards a request actually scanned across
// all its attempts. Any attempt's completion of shard s yields the
// identical verified partial (candidate plans share the predicate), so
// first-completion accounting is exact.
type coverage struct {
	rows    int
	matches int
	revenue int64
}

// attemptOutcome is one attempt's resolution: success when every shard
// completed inside the deadline with no crash kill; completion is the
// slowest completed shard's end; resolve is the cycle the outcome is
// known (completion on success, the last kill/deadline otherwise).
type attemptOutcome struct {
	pool       int
	success    bool
	completion uint64
	resolve    uint64
}

// relErr is the relative error of a partial answer against the
// reference value (exact 0 when they agree; |ref| saturates at 1 so a
// zero reference cannot divide by zero).
func relErr(seen, ref float64) float64 {
	den := math.Abs(ref)
	if den < 1 {
		den = 1
	}
	return math.Abs(ref-seen) / den
}
