package main

// In-memory span recording for the traced run. Spans are recorded only
// by the benchmark's own code, around its calls into each layer, and
// written out once the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/hipe-sim/hipe/internal/cpu"
	"github.com/hipe-sim/hipe/internal/isa"
)

// span is one timed interval. Times are nanoseconds since the tracer
// started; parent is -1 for a root span; op groups the spans of one op.
type span struct {
	name       string
	op         int
	parent     int
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	t0    time.Duration
	spans []span
}

func newTracer() *tracer { return &tracer{t0: hostNow()} }

func (t *tracer) now() int64 { return int64(hostNow() - t.t0) }

// begin opens a span and returns its id. A nil tracer records nothing,
// so untraced runs share the traced code paths.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: t.now(), end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = t.now()
	}
}

// stage times one call as a child span of parent.
func (t *tracer) stage(name string, parent, op int, fn func()) {
	s := t.begin(name, parent, op)
	fn()
	t.end(s)
}

// add records an already measured span.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// children returns each span's child ids.
func (t *tracer) children() [][]int {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	return kids
}

// covered returns how much of span id's interval its children cover,
// counting overlapping children once.
func (t *tracer) covered(id int, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{t.spans[k].start, t.spans[k].end})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes sums each span name's self time: its duration minus the
// part of it that its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	kids := t.children()
	out := map[string]int64{}
	for i, s := range t.spans {
		out[s.name] += s.dur() - t.covered(i, kids[i])
	}
	return out
}

// durations returns the durations in milliseconds of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// minCoverage is the smallest share of an op span's duration that its
// stage spans cover, over every span named op; 0 when there are none.
func (t *tracer) minCoverage(op string) float64 {
	kids := t.children()
	min, seen := 1.0, false
	for i, s := range t.spans {
		if s.name != op || s.dur() <= 0 {
			continue
		}
		c := float64(t.covered(i, kids[i])) / float64(s.dur())
		if !seen || c < min {
			min, seen = c, true
		}
	}
	if !seen {
		return 0
	}
	return min
}

// write stores the spans as CSV (id, parent, op, name, start_ns, end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStream wraps a µop stream and accumulates the host time spent
// producing µops, which is µop emission's share of a machine run.
type timedStream struct {
	inner cpu.Stream
	ns    int64
	uops  int64
}

func (s *timedStream) Next() (isa.MicroOp, bool) {
	t := time.Now()
	u, ok := s.inner.Next()
	s.ns += int64(time.Since(t))
	if ok {
		s.uops++
	}
	return u, ok
}
