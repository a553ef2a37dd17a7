package serve

import (
	"sync"
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

const testRows = 512

func testTable() *db.Table { return db.Generate(testRows, 42) }

// TestShardedAnswersExactAcrossShardCounts is the tentpole acceptance
// check: for every architecture (including the HIPE in-memory
// aggregation plan), the merged match count and revenue equal the
// unsharded reference evaluator's at shard counts {1, 2, 4, 8}.
func TestShardedAnswersExactAcrossShardCounts(t *testing.T) {
	tab := testTable()
	q := db.DefaultQ06()
	ref := db.Reference(tab, q)
	plans := []query.Plan{
		DefaultPlan(query.X86, q),
		DefaultPlan(query.HMC, q),
		DefaultPlan(query.HIVE, q),
		DefaultPlan(query.HIPE, q),
	}
	agg := DefaultPlan(query.HIPE, q)
	agg.Aggregate = true
	plans = append(plans, agg)

	for _, nShards := range []int{1, 2, 4, 8} {
		c, err := New(sweep.Default(), tab, nShards)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			resp, err := c.Query(Request{Plan: p}, Options{})
			if err != nil {
				t.Fatalf("shards=%d plan=%s: %v", nShards, p, err)
			}
			if resp.Matches != ref.Matches {
				t.Fatalf("shards=%d plan=%s: matches %d, reference %d",
					nShards, p, resp.Matches, ref.Matches)
			}
			if resp.Revenue != ref.Revenue {
				t.Fatalf("shards=%d plan=%s: revenue %d, reference %d",
					nShards, p, resp.Revenue, ref.Revenue)
			}
			if len(resp.Shards) != nShards {
				t.Fatalf("shards=%d: %d partials", nShards, len(resp.Shards))
			}
			// Cycles is the slowest shard; WorkCycles the sum.
			var maxC, sumC uint64
			var sumMatches int
			for _, sp := range resp.Shards {
				sumC += sp.Cycles
				sumMatches += sp.Matches
				if sp.Cycles > maxC {
					maxC = sp.Cycles
				}
			}
			if resp.Cycles != maxC || resp.WorkCycles != sumC {
				t.Fatalf("shards=%d plan=%s: cycle accounting wrong: %+v", nShards, p, resp)
			}
			if sumMatches != resp.Matches {
				t.Fatalf("shards=%d plan=%s: partial cardinalities do not sum", nShards, p)
			}
		}
	}
}

// TestSingleShardMatchesSweepRun pins the shard runner to the sweep
// engine's single-run machinery: a 1-shard cluster query costs exactly
// the cycles of a whole-table sweep run (the shard-sized image changes
// no addresses or timing).
func TestSingleShardMatchesSweepRun(t *testing.T) {
	tab := testTable()
	cfg := sweep.Default()
	plan := DefaultPlan(query.HIPE, db.DefaultQ06())

	res, err := cfg.Run(tab, plan)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(Request{Plan: plan}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cycles != res.Cycles {
		t.Fatalf("1-shard cluster %d cycles, sweep run %d", resp.Cycles, res.Cycles)
	}
}

func TestConcurrentQueriesAreSafeAndExact(t *testing.T) {
	tab := testTable()
	c, err := New(sweep.Default(), tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := New(sweep.Default(), tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(sweep.Default(), tab, 4, []query.Arch{query.HIPE, query.X86})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Cluster{adaptive, f.Cluster} {
		if err := a.EnableAdaptive(cost.AdaptiveConfig{Seed: 5, ExplorePct: 30}); err != nil {
			t.Fatal(err)
		}
	}
	// Mixed-selectivity predicates from concurrent callers: the race
	// detector gates the reference cache, the executor pool and the
	// online adaptive routing state here.
	for _, tc := range []struct {
		name  string
		query func(Request, Options) (*Response, error)
		arch  query.Arch
	}{
		{"cluster", c.Query, query.HIPE},
		{"adaptive cluster", adaptive.Query, ArchAuto},
		{"adaptive fleet", f.Query, ArchAuto},
	} {
		var wg sync.WaitGroup
		errc := make(chan error, 8)
		for i := 0; i < 8; i++ {
			q := db.DefaultQ06()
			q.QtyHi = int32(10 + 5*i)
			wg.Add(1)
			go func(q db.Q06) {
				defer wg.Done()
				resp, err := tc.query(Request{Plan: DefaultPlan(tc.arch, q)}, Options{Workers: 2})
				if err != nil {
					errc <- err
					return
				}
				if want := db.Reference(tab, q).Matches; resp.Matches != want {
					errc <- errMismatch(resp.Matches, want)
				}
			}(q)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

type errMismatchT struct{ got, want int }

func errMismatch(got, want int) error { return errMismatchT{got, want} }
func (e errMismatchT) Error() string  { return "match count mismatch" }

func TestAdmitRejectsInvalidPlans(t *testing.T) {
	c, err := New(sweep.Default(), testTable(), 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := query.Plan{Arch: query.X86, Strategy: query.ColumnAtATime,
		OpSize: 256, Unroll: 1, Q: db.DefaultQ06()}
	if _, err := c.Query(Request{Plan: bad}, Options{}); err == nil {
		t.Fatal("x86/256B plan admitted")
	}
}

func TestNewRejectsBadShardCounts(t *testing.T) {
	tab := testTable()
	if _, err := New(sweep.Default(), tab, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(sweep.Default(), tab, testRows/64+1); err == nil {
		t.Fatal("more shards than 64-row blocks accepted")
	}
	rows := (&Cluster{whole: tab, shards: []*db.Table{tab}}).Rows()
	if rows != testRows {
		t.Fatalf("rows %d", rows)
	}
}

func TestShardRows(t *testing.T) {
	c, err := New(sweep.Default(), testTable(), 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range c.shards {
		if s.N%64 != 0 {
			t.Fatalf("shard rows %d not a multiple of 64", s.N)
		}
		total += s.N
	}
	if total != testRows || c.Shards() != 3 {
		t.Fatalf("shards cover %d rows across %d shards", total, c.Shards())
	}
}
