package main

import (
	"sort"
	"sync"
	"time"
)

// Span names. Each is the public function the benchmark calls (or, for
// replays, re-runs over the same inputs after the measured call), so a
// span's duration is that layer's cost as the benchmark sees it.
const (
	spanRep       = "rep"
	spanParse     = "source.Parse"
	spanSem       = "sem.Analyze"
	spanNew       = "aggregate.NewWithCache"
	spanProgram   = "aggregate.Estimator.Program"
	spanRender    = "symexpr.Poly.String"
	spanEval      = "symexpr.Poly.Eval"
	spanExplain   = "perfpredict.ExplainCtx"
	spanOptimize  = "perfpredict.OptimizeCtx"
	spanExplore   = "perfpredict.ExploreCtx"
	spanHTTP      = "http.RoundTrip"
	spanEncode    = "json.Marshal"
	spanLower     = "lower.Translator.Body"
	spanTetris    = "tetris.Estimate"
	spanExplained = "tetris.EstimateExplained"
	spanDeps      = "deps.Analyze"
)

// span is one timed call. Replay spans re-run a layer's public entry
// point over inputs a measured call already processed; they are kept
// apart from the measured spans and from the rep's wall time.
type span struct {
	name   string
	label  string // sub-kind, e.g. request type or kernel name
	parent int32
	rep    int32
	start  int64 // ns since the tracer's epoch
	end    int64
	replay bool
}

// tracer keeps every span of a run in memory; they are summarized and
// written out when the run ends. Safe for concurrent use (serve-mix
// clients record from two goroutines).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	rep   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span under parent (-1 for none) and returns its id.
func (t *tracer) open(name, label string, parent int32, replay bool) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, label: label, parent: parent, rep: t.rep, start: start, replay: replay})
	t.mu.Unlock()
	return id
}

func (t *tracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// record adds an already-finished span (used where the duration is
// measured by the caller, e.g. per-request latencies).
func (t *tracer) record(name, label string, parent int32, start, end time.Time, replay bool) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, label: label, parent: parent, rep: t.rep,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), replay: replay})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part its direct
// children cover (children of one parent never overlap: each parent is
// driven by one goroutine).
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// perRep sums self time (seconds) of the named spans per rep; reps
// without such spans report 0 so every traced rep is a sample.
func (t *tracer) perRep(reps []int32, match func(s *span) bool) []float64 {
	self := t.selfTimes()
	idx := map[int32]int{}
	for i, r := range reps {
		idx[r] = i
	}
	out := make([]float64, len(reps))
	for i := range t.spans {
		s := &t.spans[i]
		if k, ok := idx[s.rep]; ok && match(s) {
			out[k] += float64(self[i]) / 1e9
		}
	}
	return out
}

// durations lists the wall durations (ms) of matching spans.
func (t *tracer) durations(match func(s *span) bool) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; match(s) {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

func named(name string) func(s *span) bool {
	return func(s *span) bool { return s.name == name }
}

// SpanSummary is one span name's totals over the run.
type SpanSummary struct {
	Name   string  `json:"name"`
	Replay bool    `json:"replay"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// TraceDump is the written-out trace: per-name summaries plus every
// span as [name index, label index, parent, rep, start ns, end ns,
// replay 0|1].
type TraceDump struct {
	Summary []SpanSummary `json:"summary"`
	Names   []string      `json:"names"`
	Labels  []string      `json:"labels"`
	Spans   [][7]int64    `json:"spans"`
}

func (t *tracer) dump() TraceDump {
	self := t.selfTimes()
	type key struct {
		name   string
		replay bool
	}
	sums := map[key]*SpanSummary{}
	var d TraceDump
	nameIdx, labelIdx := map[string]int64{}, map[string]int64{}
	intern := func(m map[string]int64, list *[]string, s string) int64 {
		if i, ok := m[s]; ok {
			return i
		}
		m[s] = int64(len(*list))
		*list = append(*list, s)
		return m[s]
	}
	for i, s := range t.spans {
		k := key{s.name, s.replay}
		sum := sums[k]
		if sum == nil {
			sum = &SpanSummary{Name: s.name, Replay: s.replay}
			sums[k] = sum
		}
		sum.Count++
		sum.TotalS += float64(s.end-s.start) / 1e9
		sum.SelfS += float64(self[i]) / 1e9
		replay := int64(0)
		if s.replay {
			replay = 1
		}
		d.Spans = append(d.Spans, [7]int64{intern(nameIdx, &d.Names, s.name), intern(labelIdx, &d.Labels, s.label),
			int64(s.parent), int64(s.rep), s.start, s.end, replay})
	}
	for _, s := range sums {
		d.Summary = append(d.Summary, *s)
	}
	sort.Slice(d.Summary, func(i, j int) bool { return d.Summary[i].SelfS > d.Summary[j].SelfS })
	return d
}
