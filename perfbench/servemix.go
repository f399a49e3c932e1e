package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfpredict"
	"perfpredict/internal/kernels"
	"perfpredict/internal/machine"
	"perfpredict/internal/serve"
)

const (
	// serveRequests is the fixed length of the serve-mix sequence.
	serveRequests = 500
	// serveClients is the closed-loop client count: each stands in for
	// a compile step that blocks on its answer.
	serveClients = 2
	// serveBatch is the batch size of /v1/batch requests.
	serveBatch = 8
	// serveOptimizeNodes bounds the searches /v1/optimize runs.
	serveOptimizeNodes = 16
	// serveWarmPasses is how many times the warm server answers the
	// sequence again (all result-cache hits) per repetition.
	serveWarmPasses = 3
)

// serveMix is the request mix: endpoint kind and its share.
var serveMix = []struct {
	kind  string
	share float64
	hot   int // distinct requests of this kind in the hot set
}{
	{"predict", 0.5, 8},
	{"batch", 0.2, 4},
	{"explain", 0.2, 4},
	{"optimize", 0.1, 2},
}

// serveTarget is one request target: a registered name or an inline
// spec uploaded with the request.
type serveTarget struct {
	name string
	spec json.RawMessage
	m    *machine.Machine
}

// serveReq is one request of the sequence with its reference answer.
type serveReq struct {
	kind string
	hot  bool
	path string
	body []byte
	// answer is the library's result for the request and want its
	// encoding, the exact body the server must send.
	answer any
	want   []byte
	libMS  float64
}

// genServeSequence draws the seeded request sequence. The counts are
// fixed — each kind's share of the mix, half of each kind from the hot
// set and half unique — and programs, targets and hot-set members are
// dealt round-robin from seeded permutations, so every seed does the
// same amount of each kind of work; the seed changes which inputs meet
// and in what order.
func genServeSequence(rng *rand.Rand, progs, kernelSrcs []string, targets []serveTarget) ([]*serveReq, error) {
	deal := func(n int) func() int {
		var perm []int
		return func() int {
			if len(perm) == 0 {
				perm = rng.Perm(n)
			}
			i := perm[0]
			perm = perm[1:]
			return i
		}
	}
	nextProg, nextKernel, nextTarget := deal(len(progs)), deal(len(kernelSrcs)), deal(len(targets))
	salt := 0
	pick := func(kind string, unique bool) string {
		src := progs[nextProg()]
		if kind == "optimize" {
			src = kernelSrcs[nextKernel()]
		}
		if !unique {
			return src
		}
		salt++
		return saltProgram(src, salt)
	}
	build := func(kind string, unique bool) (*serveReq, error) {
		t := targets[nextTarget()]
		name := t.name
		if t.spec != nil {
			name = ""
		}
		var req any
		switch kind {
		case "predict":
			req = serve.PredictRequest{Source: pick(kind, unique), Machine: name, Spec: t.spec}
		case "batch":
			srcs := make([]string, serveBatch)
			for i := range srcs {
				srcs[i] = pick(kind, unique)
			}
			req = serve.BatchRequest{Sources: srcs, Machine: name, Spec: t.spec}
		case "explain":
			req = serve.ExplainRequest{Source: pick(kind, unique), Machine: name, Spec: t.spec}
		case "optimize":
			req = serve.OptimizeRequest{Source: pick(kind, unique), Machine: "POWER1", Nominal: searchNominal, MaxNodes: serveOptimizeNodes}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		return &serveReq{kind: kind, hot: !unique, path: "/v1/" + kind, body: body}, nil
	}
	var seq []*serveReq
	for _, k := range serveMix {
		hot := make([]*serveReq, k.hot)
		for i := range hot {
			r, err := build(k.kind, false)
			if err != nil {
				return nil, err
			}
			hot[i] = r
		}
		nextHot := deal(len(hot))
		n := int(k.share * serveRequests)
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				seq = append(seq, hot[nextHot()])
				continue
			}
			r, err := build(k.kind, true)
			if err != nil {
				return nil, err
			}
			seq = append(seq, r)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq, nil
}

// saltProgram makes src unique by declaring one more scalar and
// assigning it a distinct constant as the last statement.
func saltProgram(src string, salt int) string {
	header, rest, _ := strings.Cut(strings.TrimLeft(src, "\n"), "\n")
	body := strings.TrimSuffix(strings.TrimRight(rest, "\n"), "end")
	return fmt.Sprintf("%s\n  real zsalt\n%s  zsalt = %d.5\nend\n", header, body, salt)
}

// loadServeInputs reads the corpus programs (predict, batch and
// explain sources), the kernel suite (optimize sources) and the serving
// targets: the registered machines by name and the corpus specs inline.
func loadServeInputs() ([]string, []string, []serveTarget, error) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "programs", "*.f"))
	if err != nil {
		return nil, nil, nil, err
	}
	sort.Strings(paths)
	var progs []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, nil, err
		}
		progs = append(progs, string(data))
	}
	var targets []serveTarget
	for _, n := range perfpredict.TargetNames() {
		m, err := perfpredict.LoadTarget(n)
		if err != nil {
			return nil, nil, nil, err
		}
		targets = append(targets, serveTarget{name: n, m: m})
	}
	specs, err := filepath.Glob(filepath.Join(corpusDir, "specs", "*.json"))
	if err != nil {
		return nil, nil, nil, err
	}
	sort.Strings(specs)
	for _, p := range specs {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, nil, err
		}
		m, err := perfpredict.LoadTarget(p)
		if err != nil {
			return nil, nil, nil, err
		}
		targets = append(targets, serveTarget{name: m.Name, spec: data, m: m})
	}
	var ks []string
	for _, k := range kernels.All() {
		// A 16-node search of the 4×4-unrolled matmul takes seconds, a
		// long-input case rather than a serving one.
		if k.Name != "matmul44" {
			ks = append(ks, k.Src)
		}
	}
	return progs, ks, targets, nil
}

// answer computes the library's result for a request, shaped as the
// server's response body.
func answer(r *serveReq, targets map[string]*machine.Machine, seg *perfpredict.SegmentCache) (any, error) {
	ctx := context.Background()
	target := func(name string, spec json.RawMessage) (*machine.Machine, error) {
		if spec != nil {
			sp, err := machine.ParseSpec(spec)
			if err != nil {
				return nil, err
			}
			return sp.Machine()
		}
		return targets[name], nil
	}
	switch r.kind {
	case "predict":
		var q serve.PredictRequest
		if err := json.Unmarshal(r.body, &q); err != nil {
			return nil, err
		}
		m, err := target(q.Machine, q.Spec)
		if err != nil {
			return nil, err
		}
		p, err := perfpredict.PredictCtx(ctx, q.Source, m, perfpredict.PredictOptions{Cache: seg})
		if err != nil {
			return nil, err
		}
		resp := serve.PredictResponse{Machine: m.Name, Cost: p.Cost.String()}
		if !p.Memory.IsZero() {
			resp.InCore = p.Cost.Sub(p.Memory).String()
			resp.Memory = p.Memory.String()
		}
		if c, ok := p.OneTime.IsConst(); !ok || c != 0 {
			resp.OneTime = p.OneTime.String()
		}
		for _, u := range p.Unknowns {
			resp.Unknowns = append(resp.Unknowns, serve.UnknownJSON{Name: u.Name, Kind: u.Kind, Source: u.Source})
		}
		return resp, nil
	case "batch":
		var q serve.BatchRequest
		if err := json.Unmarshal(r.body, &q); err != nil {
			return nil, err
		}
		m, err := target(q.Machine, q.Spec)
		if err != nil {
			return nil, err
		}
		resp := serve.BatchResponse{Machine: m.Name}
		for _, src := range q.Sources {
			p, err := perfpredict.PredictCtx(ctx, src, m, perfpredict.PredictOptions{Cache: seg})
			if err != nil {
				return nil, err
			}
			item := serve.BatchItem{Cost: p.Cost.String()}
			if !p.Memory.IsZero() {
				item.Memory = p.Memory.String()
			}
			resp.Results = append(resp.Results, item)
		}
		return resp, nil
	case "explain":
		var q serve.ExplainRequest
		if err := json.Unmarshal(r.body, &q); err != nil {
			return nil, err
		}
		m, err := target(q.Machine, q.Spec)
		if err != nil {
			return nil, err
		}
		return perfpredict.ExplainCtx(ctx, q.Source, m, perfpredict.ExplainOptions{Nominal: q.Nominal, SkipWhatIf: q.SkipWhatIf})
	case "optimize":
		var q serve.OptimizeRequest
		if err := json.Unmarshal(r.body, &q); err != nil {
			return nil, err
		}
		m, err := target(q.Machine, q.Spec)
		if err != nil {
			return nil, err
		}
		res, err := perfpredict.OptimizeCtx(ctx, q.Source, m, q.Nominal,
			perfpredict.OptimizeOptions{Workers: 1, MaxNodes: q.MaxNodes, MaxDepth: q.MaxDepth})
		if err != nil {
			return nil, err
		}
		return serve.OptimizeResponse{Machine: m.Name, Source: res.Source, Transformations: res.Transformations,
			PredictedBefore: res.PredictedBefore, PredictedAfter: res.PredictedAfter,
			MemoryBefore: res.MemoryBefore, MemoryAfter: res.MemoryAfter, Explored: res.Explored}, nil
	}
	return nil, fmt.Errorf("unknown request kind %q", r.kind)
}

// serveState is serve-mix's set-up: the request sequence, the targets
// and a server stack.
type serveState struct {
	seq     []*serveReq
	targets []serveTarget
	srv     *inProcServer
}

// servePass is one pass of the sequence through a server.
type servePass struct {
	status []int
	body   [][]byte
	start  []time.Time
	lat    []float64 // ms
	wall   time.Duration
}

// drive sends the sequence with serveClients closed-loop clients, each
// taking the next unsent request when its previous one is answered.
func drive(srv *inProcServer, seq []*serveReq) (*servePass, error) {
	p := &servePass{status: make([]int, len(seq)), body: make([][]byte, len(seq)),
		start: make([]time.Time, len(seq)), lat: make([]float64, len(seq))}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				s := time.Now()
				status, body, err := srv.post(seq[i].path, seq[i].body)
				p.start[i], p.lat[i] = s, float64(time.Since(s))/1e6
				if err != nil {
					errs[c] = err
					return
				}
				p.status[i], p.body[i] = status, body
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runServeMix: the predictd handler stack, called in-process,
// driven by two closed-loop clients through a fixed seeded sequence of
// 500 requests (50% predict, 20% batch of 8, 20% explain, 10%
// optimize; half from a hot set, half unique) on a fresh server, then
// serveWarmPasses more times on the now-warm server. The only workload
// through HTTP, JSON, admission and the result cache.
func runServeMix(b *bench) error {
	st, err := setup(b, func() (*serveState, error) {
		progs, ks, targets, err := loadServeInputs()
		if err != nil {
			return nil, err
		}
		seq, err := genServeSequence(rand.New(rand.NewSource(b.opt.seed)), progs, ks, targets)
		if err != nil {
			return nil, err
		}
		// Each repetition serves from a fresh stack; set-up times one
		// stack's construction.
		return &serveState{seq: seq, targets: targets, srv: newInProcServer(serve.Config{Workers: 1})}, nil
	})
	if err != nil {
		return err
	}
	seq, targets := st.seq, st.targets

	// Reference answers, computed once per distinct request.
	byName := map[string]*machine.Machine{}
	for _, t := range targets {
		byName[t.name] = t.m
	}
	refSeg := perfpredict.NewSegmentCache()
	seen := map[*serveReq]bool{}
	var srcs []string
	hot, bytes := 0, 0
	kinds := map[string]int{}
	for _, r := range seq {
		kinds[r.kind]++
		bytes += len(r.body)
		if r.hot {
			hot++
		}
		if seen[r] {
			continue
		}
		seen[r] = true
		srcs = append(srcs, requestSources(r)...)
		t0 := time.Now()
		ans, err := answer(r, byName, refSeg)
		r.libMS = float64(time.Since(t0)) / 1e6
		if err != nil {
			return fmt.Errorf("reference answer: %w", err)
		}
		data, err := json.Marshal(ans)
		if err != nil {
			return err
		}
		r.answer, r.want = ans, append(data, '\n')
	}
	if err := b.addInputShape(srcs); err != nil {
		return err
	}
	b.inputs["requests"] = len(seq)
	b.inputs["distinct_requests"] = len(seen)
	b.inputs["request_bytes"] = bytes
	b.inputs["kinds"] = kinds
	b.inputs["hot_share"] = float64(hot) / float64(len(seq))
	b.inputs["repeat_share"] = float64(len(seq)-len(seen)) / float64(len(seq))
	b.inputs["clients"] = serveClients

	check := func(p *servePass, pass string) (shed, non200 int) {
		for i, r := range seq {
			if p.status[i] == http.StatusServiceUnavailable {
				shed++
			}
			if p.status[i] != http.StatusOK {
				non200++
			}
			b.verify(p.status[i] == http.StatusOK && string(p.body[i]) == string(r.want),
				"%s request %d (%s): status %d body %.200s, library %.200s", pass, i, r.kind, p.status[i], p.body[i], r.want)
		}
		return shed, non200
	}
	var rcStats [][3]float64 // hits, misses, bytes per traced rep
	var counts [][2]float64  // shed, non200
	err = b.measure(func(r *rep) error {
		s := newInProcServer(serve.Config{Workers: 1})
		coldT0 := time.Now()
		cold, err := drive(s, seq)
		if err != nil {
			return err
		}
		st := s.srv.Results().Stats()
		shed, non200 := check(cold, "cold")
		if !r.traced {
			b.addTimed("serve_rps", "1/s", float64(len(seq))/cold.wall.Seconds(), coldT0)
			b.addEach("request_ms", "ms", cold.lat, coldT0)
		}
		b.checkpoint()
		var warmWall time.Duration
		warmT0 := time.Now()
		for i := 0; i < serveWarmPasses; i++ {
			warm, err := drive(s, seq)
			if err != nil {
				return err
			}
			warmWall += warm.wall
			check(warm, "warm")
		}
		b.add("resultcache.cold_hit_share", "fraction", float64(st.Hits)/float64(st.Hits+st.Misses))
		if !r.traced {
			b.addTimed("serve_warm_rps", "1/s", float64(serveWarmPasses*len(seq))/warmWall.Seconds(), warmT0)
			return nil
		}
		rcStats = append(rcStats, [3]float64{float64(st.Hits), float64(st.Misses), float64(st.Bytes)})
		counts = append(counts, [2]float64{float64(shed), float64(non200)})
		// Client-side spans: the measured latency of every cold request.
		for i, q := range seq {
			end := cold.start[i].Add(time.Duration(cold.lat[i] * 1e6))
			// Two clients overlap, so these spans have no parent.
			b.tr.record(spanHTTP, q.kind+hotLabel(q.hot), -1, cold.start[i], end, false)
		}
		return nil
	}, func(r *rep) error {
		for _, q := range seq {
			id := b.tr.open(spanEncode, q.kind, -1, true)
			_, err := json.Marshal(q.answer)
			b.tr.close(id)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	b.setE2E("ops_per_s", "serve_rps")
	b.setE2E("warm_per_s", "serve_warm_rps")
	b.setE2E("p50_ms", "request_ms")
	b.setTail("tail_ms", "request_ms")
	b.inputs["resultcache_hit_share"] = b.med("resultcache.cold_hit_share")
	if b.opt.trace {
		col := func(v [][3]float64, i int) float64 {
			var x []float64
			for _, e := range v {
				x = append(x, e[i])
			}
			return median(x)
		}
		b.layer["resultcache.hits"] = col(rcStats, 0)
		b.layer["resultcache.misses"] = col(rcStats, 1)
		b.layer["resultcache.hit_ratio"] = col(rcStats, 0) / (col(rcStats, 0) + col(rcStats, 1))
		b.layer["resultcache.bytes"] = col(rcStats, 2)
		var shed, non200 []float64
		for _, c := range counts {
			shed, non200 = append(shed, c[0]), append(non200, c[1])
		}
		b.layer["serve.shed"] = median(shed)
		b.layer["serve.non200"] = median(non200)
		for _, k := range serveMix {
			kind := k.kind
			b.layer["serve."+kind+"_p50_ms"] = median(b.tr.durations(func(s *span) bool {
				return s.name == spanHTTP && strings.HasPrefix(s.label, kind+"/")
			}))
		}
		// HTTP latency minus library time for unique predicts: both
		// price on a segment cache warmed by the same kind of traffic.
		var over []float64
		for _, q := range seq {
			if q.kind == "predict" && !q.hot {
				over = append(over, q.libMS)
			}
		}
		httpMS := median(b.tr.durations(func(s *span) bool { return s.name == spanHTTP && s.label == "predict/unique" }))
		b.layer["serve.overhead_ms"] = httpMS - median(over)
		b.layerPerRep("json.encode_s", func(s *span) bool { return s.replay && s.name == spanEncode })
	}
	return nil
}

// requestSources lists the F-lite programs a request carries.
func requestSources(r *serveReq) []string {
	var q struct {
		Source  string   `json:"source"`
		Sources []string `json:"sources"`
	}
	if json.Unmarshal(r.body, &q) != nil {
		return nil
	}
	if q.Source != "" {
		return []string{q.Source}
	}
	return q.Sources
}

func hotLabel(hot bool) string {
	if hot {
		return "/hot"
	}
	return "/unique"
}
