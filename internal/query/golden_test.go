package query

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/machine"
)

// The golden stream pins: every valid arch×strategy×opsize×unroll×
// {Q6,Q1}×{fused,aggregate} combination's full µop stream is serialised
// canonically and hashed, and the hashes are committed. Any refactor of
// the generators or the registry layer that changes a single byte of a
// single µop — opcode, register, address, size, predicate, offload
// payload — changes a hash and fails this test. Regenerate with
//
//	go test ./internal/query -run TestGoldenStreams -update-golden
//
// only when a stream change is intended and called out in the PR.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_streams.json from the current generators")

const goldenTuples = 256

// goldenPlans enumerates the pinned combination space: the full cross
// product of the evaluated axes, trimmed by ValidateFor exactly the way
// grid expansion trims it.
func goldenPlans() []Plan {
	var plans []Plan
	for _, kind := range []QueryKind{Q6Select, Q1Agg} {
		for _, arch := range []Arch{X86, HMC, HIVE, HIPE} {
			for _, strat := range []Strategy{TupleAtATime, ColumnAtATime} {
				for _, op := range []uint32{16, 32, 64, 128, 256} {
					for _, unroll := range []int{1, 8, 32} {
						for _, fused := range []bool{false, true} {
							for _, agg := range []bool{false, true} {
								p := Plan{Arch: arch, Strategy: strat, OpSize: op,
									Unroll: unroll, Fused: fused, Aggregate: agg, Kind: kind}
								if kind == Q1Agg {
									p.Q1 = db.DefaultQ01()
								} else {
									p.Q = db.DefaultQ06()
								}
								if p.ValidateFor(goldenTuples) != nil {
									continue
								}
								plans = append(plans, p)
							}
						}
					}
				}
			}
		}
	}
	return plans
}

// fmtMicroOp renders every field of a µop (and its offload payload, when
// present) into one canonical line. OnResult and Expect verify results;
// they are not part of the instruction encoding and are deliberately
// excluded.
func fmtMicroOp(b *strings.Builder, u isa.MicroOp) {
	fmt.Fprintf(b, "pc=%#x class=%s dst=%d src1=%d src2=%d addr=%#x size=%d taken=%t uc=%t",
		u.PC, u.Class, u.Dst, u.Src1, u.Src2, uint64(u.Addr), u.Size, u.Taken, u.Uncacheable)
	if in := u.Offload; in != nil {
		fmt.Fprintf(b, " off[target=%s op=%s alu=%s dst=%d src1=%d src2=%d addr=%#x size=%d imm=%d imm2=%d useimm=%t fp=%t pred=%t/%d/%t pat=%v]",
			in.Target, in.Op, in.ALU, in.Dst, in.Src1, in.Src2, uint64(in.Addr), in.Size,
			in.Imm, in.Imm2, in.UseImm, in.FP, in.Pred.Valid, in.Pred.Reg, in.Pred.WhenZero, in.Pattern)
	}
	b.WriteByte('\n')
}

// streamHash drains a plan's whole µop stream and hashes its canonical
// serialisation.
func streamHash(t *testing.T, p Plan) (hash string, ops int) {
	t.Helper()
	mc := machine.Default()
	mc.ImageBytes = db.ImageBytesFor(goldenTuples)
	m, err := machine.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	tab := db.GenerateMemo(goldenTuples, 42)
	w, err := Prepare(m, tab, p)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	h := sha256.New()
	var b strings.Builder
	s := w.Stream()
	for {
		u, ok := s.Next()
		if !ok {
			break
		}
		b.Reset()
		fmtMicroOp(&b, u)
		h.Write([]byte(b.String()))
		ops++
	}
	return hex.EncodeToString(h.Sum(nil)), ops
}

type goldenEntry struct {
	Hash string `json:"hash"`
	Ops  int    `json:"ops"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_streams.json") }

// TestGoldenStreams asserts that every pinned plan combination still
// generates a byte-identical µop stream.
func TestGoldenStreams(t *testing.T) {
	plans := goldenPlans()
	got := make(map[string]goldenEntry, len(plans))
	for _, p := range plans {
		hash, ops := streamHash(t, p)
		got[p.String()] = goldenEntry{Hash: hash, Ops: ops}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]goldenEntry, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d plans)", goldenPath(), len(got))
		return
	}

	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file pins %d plans, generators produce %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: pinned plan no longer generated", k)
			continue
		}
		if g != w {
			t.Errorf("%s: stream changed: got %d ops hash %s, want %d ops hash %s",
				k, g.Ops, g.Hash, w.Ops, w.Hash)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: new plan combination not pinned (run -update-golden)", k)
		}
	}
}
