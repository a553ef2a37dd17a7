package query

import (
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/machine"
)

// TestStreamEmitZeroAlloc pins allocation-free µop emission: for every
// plan TestGoldenStreams pins — each backend, both query kinds, every
// strategy family, op size and unroll — draining the stream after its
// first block allocates nothing. Block buffers are reused, and expected
// results are data prepared once, not a closure and a mask per
// instruction.
func TestStreamEmitZeroAlloc(t *testing.T) {
	tab := db.GenerateMemo(goldenTuples, 42)
	mc := machine.Default()
	mc.ImageBytes = db.ImageBytesFor(goldenTuples)
	for _, p := range goldenPlans() {
		m, err := machine.New(mc)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Prepare(m, tab, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		s := w.Stream()
		first, ops := true, 0
		allocs := testing.AllocsPerRun(1, func() {
			if first {
				// AllocsPerRun's warm-up call: emit the first block.
				first = false
				s.Next()
				return
			}
			for {
				if _, ok := s.Next(); !ok {
					return
				}
				ops++
			}
		})
		if ops == 0 {
			t.Errorf("%s: stream ended within its first block", p)
		}
		if allocs != 0 {
			t.Errorf("%s: emitting %d µops after the first block allocated %.0f objects, want 0", p, ops, allocs)
		}
	}
}

// TestChunkedStreamEnd checks the explicit end of a chunked stream: an
// empty block mid-stream continues it, the generator's false ends it,
// and Next keeps returning false afterwards without asking again.
func TestChunkedStreamEnd(t *testing.T) {
	blocks := [][]isa.OpClass{
		{isa.IntALU, isa.Branch},
		{},
		{isa.Load},
	}
	calls := 0
	s := newChunkedStream(0, 0, func(e *emitter) bool {
		calls++
		if calls > len(blocks) {
			return false
		}
		for _, c := range blocks[calls-1] {
			e.emit(isa.MicroOp{Class: c})
		}
		return true
	})
	var got []isa.OpClass
	for {
		u, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, u.Class)
	}
	want := []isa.OpClass{isa.IntALU, isa.Branch, isa.Load}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream yielded %v, want %v", got, want)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); ok {
			t.Fatal("Next after the end returned a µop")
		}
	}
	if calls != len(blocks)+1 {
		t.Errorf("generator called %d times, want %d (once per block and once to end)", calls, len(blocks)+1)
	}
}

// TestChunkedStreamOffloadBinding checks that each Offload µop Next
// hands out points at its own instruction, including when the block's
// instruction buffer grew while the block was emitted.
func TestChunkedStreamOffloadBinding(t *testing.T) {
	const n = 100
	done := false
	s := newChunkedStream(0, 1, func(e *emitter) bool {
		if done {
			return false
		}
		done = true
		for i := 0; i < n; i++ {
			e.offload(isa.Reg(i+1), isa.RegNone, isa.OffloadInst{Op: isa.VALU, Imm: int32(i)})
			e.emit(isa.MicroOp{Class: isa.IntALU})
		}
		return true
	})
	i := 0
	for {
		u, ok := s.Next()
		if !ok {
			break
		}
		if u.Class != isa.Offload {
			continue
		}
		if u.Offload == nil || u.Offload.Imm != int32(i) {
			t.Fatalf("offload µop %d carries %v", i, u.Offload)
		}
		i++
	}
	if i != n {
		t.Fatalf("%d offload µops, want %d", i, n)
	}
}
