package main

import (
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one op share its index;
// set-up spans carry op -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Spans named harness.* group the harness's own driving code (the op, one
// sweep candidate). Their self time is time no layer call covers, so it
// counts against trace.coverage_share.
const (
	harnessPrefix = "harness."
	opSpan        = harnessPrefix + "op"
	candidateSpan = harnessPrefix + "candidate"
)

// tracer records spans in memory from the one goroutine that drives the
// traced op; they are written out once, when the benchmark ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// in times fn as a child of whatever span is open.
func (t *tracer) in(name string, fn func()) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfMS is each span's duration minus the part its children cover, in ms.
func (t *tracer) selfMS() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// layerMatch reports whether a span belongs to a layer call: the name
// itself, or the name with a "/phase" suffix (kne.Settle/impact).
func layerMatch(spanName, call string) bool {
	return spanName == call || strings.HasPrefix(spanName, call+"/")
}

// selfPerOp sums, for every measured op, the self time of the spans of one
// layer call.
func (t *tracer) selfPerOp(call string, ops int) []float64 {
	out := make([]float64, ops)
	self := t.selfMS()
	for i, s := range t.spans {
		if s.Op >= 0 && s.Op < ops && layerMatch(s.Name, call) {
			out[s.Op] += self[i]
		}
	}
	return out
}

// durations lists the wall time in ms of every span with exactly this name,
// among the set-up's spans or the measured ops'.
func (t *tracer) durations(name string, setup bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if (s.Op < 0) == setup && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// coverage is the share of the measured ops' wall time that layer spans
// account for.
func (t *tracer) coverage() float64 {
	self := t.selfMS()
	var wall, covered float64
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		if s.Parent == -1 {
			wall += float64(s.End-s.Start) / 1e6
		}
		if !strings.HasPrefix(s.Name, harnessPrefix) {
			covered += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return covered / wall
}
