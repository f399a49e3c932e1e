// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload through the public library
// API (and, for serve-mix and the long-input deadline probe, through
// the predictd handler stack in-process), checks every output against
// a reference, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
// --trace 1 they are its per_layer list, taken from spans the benchmark
// records around its own calls into each layer. Every run also writes
// a full record (all statistics, input properties, environment, and
// for traced runs every span) under --out. Run it from the repository
// root:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// minReps is the fewest measured repetitions a run makes, however
// short --seconds is.
const minReps = 3

// setupBuilds is how many times set-up is timed before each
// repetition. Set-up takes 2–12 ms, so one sample per repetition left
// setup_s spreading by up to 25% between runs.
const setupBuilds = 3

var workloads = map[string]func(b *bench) error{
	"corpus":     runCorpus,
	"long-input": runLongInput,
	"search":     runSearch,
	"serve-mix":  runServeMix,
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measurement time")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.out, "out", filepath.Join("perfbench", "results"), "directory for the full run record")
	flag.Parse()
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	// One P. With two, the collector's workers run on the second vCPU,
	// and on a shared 2-vCPU host a neighbour busy there slowed runs far
	// more (corpus cold rate 1728–2638/s with two P against 2402–2753/s
	// with one, over the same minutes). Serve-mix clients and the server
	// still interleave on the one P.
	runtime.GOMAXPROCS(1)
	fn, ok := workloads[opt.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", opt.workload))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	b := newBench(opt)
	b.cpus = allowedCPUs()
	if err := fn(b); err != nil {
		fatal(fmt.Errorf("%s: %w", opt.workload, err))
	}
	line, err := b.finish(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// MetricSpec is one metric entry of BENCHMARK.json.
type MetricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Spec is the part of BENCHMARK.json a run reads: the metric lists.
type Spec struct {
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

func loadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type series struct {
	unit string
	vals []float64
	// Each sample's interval lies between checkpoints spans[j][0] and
	// spans[j][1] (indices into bench.calib).
	spans [][2]int32
}

// bench is one run's state: samples, failures, and the trace.
type bench struct {
	opt options
	tr  *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	recording bool
	series    map[string]*series
	e2e       map[string]float64
	layer     map[string]float64
	extra     map[string]metricValue
	inputs    map[string]any

	calib      []float64   // calibration kernel ms at each checkpoint
	calibAt    []time.Time // when each checkpoint was taken
	calibSpent time.Duration
	calibCPU   []float64 // the CPU each checkpoint pinned the process to
	cpus       []int     // CPUs the process may run on
	raw        map[string]float64
	resetup    func() (float64, error)
	heapPeak   atomic.Uint64
	tracedReps []int32
}

func newBench(opt options) *bench {
	return &bench{
		opt:    opt,
		tr:     newTracer(),
		series: map[string]*series{},
		e2e:    map[string]float64{},
		raw:    map[string]float64{},
		layer:  map[string]float64{},
		extra:  map[string]metricValue{},
		inputs: map[string]any{},
	}
}

// verify counts one operation and whether its output matched the
// reference.
func (b *bench) verify(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
}

// add records one sample of a named series (ignored during warm-up).
func (b *bench) add(name, unit string, v float64) { b.addTimed(name, unit, v, time.Now()) }

// addTimed records one sample of a timing series measured from t0 until
// now, so norm can scale it by the checkpoints around that interval.
func (b *bench) addTimed(name, unit string, v float64, t0 time.Time) {
	b.addEach(name, unit, []float64{v}, t0)
}

// addEach records samples of a timing series that were all measured
// between t0 and now: the latencies of one section's operations.
func (b *bench) addEach(name, unit string, v []float64, t0 time.Time) {
	if !b.recording {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.series[name]
	if s == nil {
		s = &series{unit: unit}
		b.series[name] = s
	}
	from := int32(len(b.calibAt) - 1)
	for from > 0 && b.calibAt[from].After(t0) {
		from--
	}
	for _, x := range v {
		s.vals = append(s.vals, x)
		s.spans = append(s.spans, [2]int32{from, int32(len(b.calib))})
	}
}

func (b *bench) samples(name string) []float64 {
	if s := b.series[name]; s != nil {
		return s.vals
	}
	return nil
}

// med is the median of a recorded series.
func (b *bench) med(name string) float64 { return median(b.samples(name)) }

// checkpoint times the calibration kernel. measure takes one before
// and after every repetition; a workload takes more between the
// sections of a repetition, never inside a timed interval.
func (b *bench) checkpoint() {
	t0 := time.Now()
	ms, cpu := calibrateCPUs(b.cpus)
	b.calib = append(b.calib, ms)
	b.calibCPU = append(b.calibCPU, float64(cpu))
	b.calibAt = append(b.calibAt, time.Now())
	b.calibSpent += time.Since(t0)
}

// norm is the median of a timing series normalized by normalized.
func (b *bench) norm(name string) float64 { return median(b.normalized(name)) }

// normalized returns a timing series with each sample rescaled to the
// calibration kernel's nominal speed: a time is multiplied, and a rate
// divided, by nominal over the kernel's time around the sample (the
// geometric mean of the checkpoints from the last before it to the
// first after it).
func (b *bench) normalized(name string) []float64 {
	s := b.series[name]
	if s == nil {
		return nil
	}
	v := make([]float64, len(s.vals))
	for j, x := range s.vals {
		logSum := 0.0
		for i := s.spans[j][0]; i <= s.spans[j][1]; i++ {
			logSum += math.Log(b.calib[i])
		}
		f := calibNominalMS / math.Exp(logSum/float64(s.spans[j][1]-s.spans[j][0]+1))
		if s.unit == "1/s" {
			f = 1 / f
		}
		v[j] = x * f
	}
	return v
}

// setE2E sets an end-to-end metric from a timing series, normalized,
// and keeps the series' plain median for the run record.
func (b *bench) setE2E(metric, series string) {
	b.e2e[metric] = b.norm(series)
	b.raw[metric] = b.med(series)
}

// setTail sets an end-to-end metric to the p99 of a series of
// per-operation latencies pooled over the run, normalized, and keeps
// the plain p99 for the run record. Runs make thousands of operations,
// so hundreds of samples lie beyond it.
func (b *bench) setTail(metric, series string) {
	b.e2e[metric] = quantile(sortedCopy(b.normalized(series)), 0.99)
	b.raw[metric] = quantile(sortedCopy(b.samples(series)), 0.99)
}

// setup builds a workload's state. measure times the build again
// before every repetition, discarding the copy, so setup_s samples the
// whole run the way the repetitions do rather than one instant.
func setup[T any](b *bench, build func() (T, error)) (T, error) {
	st, err := build()
	if err != nil {
		return st, err
	}
	b.resetup = func() (float64, error) {
		runtime.GC()
		t0 := time.Now()
		_, err := build()
		return time.Since(t0).Seconds(), err
	}
	return st, nil
}

// rep is one repetition of a workload's fixed unit of work.
type rep struct {
	traced bool
	root   int32 // span id of the traced rep, -1 otherwise
}

// span opens a child span of the rep root when the rep is traced; the
// returned func closes it.
func (r *rep) span(b *bench, name, label string) func() {
	if !r.traced {
		return func() {}
	}
	id := b.tr.open(name, label, r.root, false)
	return func() { b.tr.close(id) }
}

// measure runs one untimed warm-up repetition, then repetitions until
// --seconds have passed (at least minReps). In a traced run the
// repetitions alternate plain and traced, so the two can be compared
// for tracing overhead; replay runs after each traced repetition,
// outside its wall time. run must be deterministic in the work it does
// per repetition.
func (b *bench) measure(run func(r *rep) error, replay func(r *rep) error) error {
	b.recording = false
	if err := run(&rep{root: -1}); err != nil {
		return err
	}
	b.recording = true
	stop := b.watchHeap()
	defer stop()
	start := time.Now()
	budget := time.Duration(b.opt.seconds * float64(time.Second))
	b.checkpoint()
	for i := int32(0); ; i++ {
		traced := b.opt.trace && i%2 == 1
		for k := 0; b.resetup != nil && k < setupBuilds; k++ {
			t0 := time.Now()
			d, err := b.resetup()
			if err != nil {
				return err
			}
			b.addTimed("setup_s", "s", d, t0)
		}
		runtime.GC()
		b.checkpoint()
		b.tr.rep = i
		r := &rep{traced: traced, root: -1}
		if traced {
			r.root = b.tr.open(spanRep, "", -1, false)
		}
		b.heapPeak.Store(0)
		t0, spent := time.Now(), b.calibSpent
		if err := run(r); err != nil {
			return err
		}
		// The repetition's time without its checkpoints.
		wall := (time.Since(t0) - (b.calibSpent - spent)).Seconds()
		if traced {
			b.tr.close(r.root)
			b.tracedReps = append(b.tracedReps, i)
			b.addTimed("rep.traced_s", "s", wall, t0)
			if replay != nil {
				if err := replay(r); err != nil {
					return err
				}
			}
		} else {
			b.addTimed("rep.plain_s", "s", wall, t0)
			b.add("peak_heap_mb", "MB", float64(b.heapPeak.Load())/(1<<20))
		}
		n := int(i) + 1
		if b.opt.trace {
			n /= 2
		}
		if n >= minReps && time.Since(start) >= budget && (!b.opt.trace || i%2 == 1) {
			b.checkpoint()
			return nil
		}
	}
}

// watchHeap keeps heapPeak at the largest heap a garbage collection
// cycle has found live (after marking) since heapPeak was last reset,
// until the returned stop func is called. Live heap, not heap in use,
// so the figure does not depend on how far a cycle had got. It reads
// the figure once per cycle, from the finalizer of a sentinel object
// that each cycle frees and the finalizer re-creates: no polling.
func (b *bench) watchHeap() (stop func()) {
	var stopped atomic.Bool
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var arm func()
	arm = func() {
		// A pointerful object, so the tiny allocator (whose objects may
		// never be finalized) does not place it.
		runtime.SetFinalizer(&heapSentinel{}, func(*heapSentinel) {
			if stopped.Load() {
				return
			}
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for old := b.heapPeak.Load(); v > old && !b.heapPeak.CompareAndSwap(old, v); old = b.heapPeak.Load() {
			}
			arm()
		})
	}
	arm()
	return func() { stopped.Store(true) }
}

type heapSentinel struct{ _ *byte }

// layerPerRep sets a per-layer metric to the median over traced reps of
// the self time (s) of spans matching match.
func (b *bench) layerPerRep(name string, match func(s *span) bool) []float64 {
	v := b.tr.perRep(b.tracedReps, match)
	b.layer[name] = median(v)
	return v
}

// Record is the full record of one run, written under --out.
type Record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Trace    bool                   `json:"trace"`
	Env      map[string]any         `json:"env"`
	Inputs   map[string]any         `json:"inputs"`
	Metrics  map[string]metricValue `json:"metrics"`
	// RawMedians holds each end-to-end timing's plain median, before
	// normalization to the calibration kernel's nominal speed.
	RawMedians map[string]float64 `json:"raw_medians"`
	// Extra holds the workload's own end-to-end figures that the
	// generic metrics do not carry, plus failed_frac.
	Extra map[string]metricValue `json:"extra"`
	Stats []Stat                 `json:"stats"`
	// Samples holds every recorded series' raw samples, in order, and
	// calib_ms the calibration kernel's time at each checkpoint;
	// SampleSpans gives the checkpoints around each sample.
	Samples     map[string][]float64  `json:"samples"`
	SampleSpans map[string][][2]int32 `json:"sample_spans"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	Failures    []string              `json:"failures,omitempty"`
	TraceDump   *TraceDump            `json:"trace_dump,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish derives the common metrics, writes the record and returns the
// result line.
func (b *bench) finish(spec *Spec) ([]byte, error) {
	b.setE2E("setup_s", "setup_s")
	b.e2e["peak_heap_mb"] = b.med("peak_heap_mb")
	if b.opt.trace {
		b.layer["trace.overhead_frac"] = b.norm("rep.traced_s")/b.norm("rep.plain_s") - 1
	}
	want := spec.EndToEnd
	got := b.e2e
	if b.opt.trace {
		want, got = spec.PerLayer, b.layer
	}
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			if !b.opt.trace {
				return nil, fmt.Errorf("workload %s produced no %s", b.opt.workload, m.Name)
			}
			// A layer this workload never calls did no work.
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s: metric %s is %v", b.opt.workload, m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	rec := Record{
		Workload: b.opt.workload, Seed: b.opt.seed, Seconds: b.opt.seconds, Trace: b.opt.trace,
		Env: environment(), Inputs: b.inputs, Metrics: out, RawMedians: b.raw,
		Attempted: b.attempted, Failed: b.failed, Failures: b.failures,
	}
	b.extra["failed_frac"] = metricValue{Value: float64(b.failed) / float64(max(b.attempted, 1)), Unit: "fraction"}
	rec.Extra = b.extra
	names := make([]string, 0, len(b.series))
	for n := range b.series {
		names = append(names, n)
	}
	sort.Strings(names)
	rec.Samples = map[string][]float64{"calib_ms": b.calib, "calib_cpu": b.calibCPU}
	rec.SampleSpans = map[string][][2]int32{}
	for _, n := range names {
		rec.Stats = append(rec.Stats, summarize(n, b.series[n].unit, b.series[n].vals))
		rec.Samples[n] = b.series[n].vals
		rec.SampleSpans[n] = b.series[n].spans
	}
	if b.opt.trace {
		d := b.tr.dump()
		rec.TraceDump = &d
	}
	if err := writeRecord(b.opt, &rec); err != nil {
		return nil, err
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", f)
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, out})
}

func writeRecord(opt options, rec *Record) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return fmt.Errorf("record directory: %w", err)
	}
	mode := 0
	if opt.trace {
		mode = 1
	}
	path := filepath.Join(opt.out, fmt.Sprintf("%s-seed%d-trace%d.json", opt.workload, opt.seed, mode))
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	return nil
}

// environment describes where the run happened. The commit is read
// from .git when the checkout has one; the source digest identifies
// the code either way.
func environment() map[string]any {
	env := map[string]any{
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"os":            runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":           cpuModel(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if c, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(c))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources and module files, so
// a record names the code it measured even without a commit id.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join("perfbench", "results")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// addInputShape records the statement and loop counts of the inputs.
func (b *bench) addInputShape(srcs []string) error {
	stmts, loops, err := shape(srcs...)
	if err != nil {
		return err
	}
	b.inputs["statements"] = stmts
	b.inputs["loops"] = loops
	return nil
}
