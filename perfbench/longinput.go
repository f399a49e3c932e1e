package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/ir"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/serve"
	"perfpredict/internal/source"
	"perfpredict/internal/tetris"
)

// probeTimeout is the predictd deadline the long-input probe runs under.
const probeTimeout = 50 * time.Millisecond

// longShape is one generated long program.
type longShape struct {
	name   string
	src    string
	stmts  int
	ref    float64 // reference value of the cost at the nominal point
	golden string  // cost string of the first pricing; later ones must match
}

// inProcServer is the predictd handler stack, called in-process: an
// http.Client whose transport hands each request to the handler with an
// httptest recorder. Requests pass routing, admission, deadlines, JSON
// and the result cache, but no socket: the kernel's loopback path is not
// predictd's code and only adds run-to-run noise on a shared host.
type inProcServer struct {
	srv    *serve.Server
	client *http.Client
}

func newInProcServer(cfg serve.Config) *inProcServer {
	s := serve.New(cfg)
	return &inProcServer{srv: s, client: &http.Client{Transport: handlerTransport{s.Handler()}}}
}

// handlerTransport serves each request with h on the caller's goroutine.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.Result(), nil
}

// post sends one request and returns status and body.
func (p *inProcServer) post(path string, body []byte) (int, []byte, error) {
	resp, err := p.client.Post("http://predictd"+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runLongInput: generated long programs — straight-line bodies of 500
// and 2000 statements and guarded-loop sequences of 250 and 1000 loops
// — priced cold, then again on a warm segment cache, plus a deadline
// probe: a fresh 1000-loop program sent to in-process predictd with a
// 50 ms deadline. No segment repeats, so lowering, the symbolic
// running sums and dependence building dominate.
func runLongInput(b *bench) error {
	st, err := setup(b, func() (*longState, error) {
		rng := rand.New(rand.NewSource(b.opt.seed))
		target, err := perfpredict.LoadTarget("POWER1")
		if err != nil {
			return nil, err
		}
		return &longState{
			shapes: []*longShape{
				{name: "straight500", src: genStraight(rng, 500)},
				{name: "straight2000", src: genStraight(rng, 2000)},
				{name: "loops250", src: genLoops(rng, 250)},
				{name: "loops1000", src: genLoops(rng, 1000)},
			},
			target: target,
			srv:    newInProcServer(serve.Config{Timeout: probeTimeout}),
		}, nil
	})
	if err != nil {
		return err
	}
	shapes, target, srv := st.shapes, st.target, st.srv

	totalStmts, totalBytes := 0, 0
	for _, s := range shapes {
		var err error
		if s.stmts, _, err = shape(s.src); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if s.ref, err = longReference(s, target); err != nil {
			return fmt.Errorf("%s reference: %w", s.name, err)
		}
		totalStmts += s.stmts
		totalBytes += len(s.src)
		b.inputs[s.name+"_bytes"] = len(s.src)
		b.inputs[s.name+"_statements"] = s.stmts
	}
	b.inputs["repeat_share"] = 0.0
	b.inputs["loops"] = 250 + 1000

	warm := aggregate.NewSegCache()
	var counts []replayCounts
	var tracedPriced []priced
	probeRng := rand.New(rand.NewSource(b.opt.seed ^ 0x5eed))
	err = b.measure(func(r *rep) error {
		tracedPriced = tracedPriced[:0]
		coldS, coldT0 := 0.0, time.Now()
		var hits, misses int
		for _, s := range shapes {
			seg := aggregate.NewSegCache()
			t0 := time.Now()
			p, err := b.predict(r, s.name, s.src, target, seg)
			d := time.Since(t0)
			h, m := seg.Stats()
			hits, misses = hits+h, misses+m
			if !r.traced {
				b.addTimed(s.name+"_ms", "ms", float64(d)/1e6, t0)
			}
			coldS += d.Seconds()
			b.verify(err == nil && s.checkCost(p), "%s: eval %v err %v, reference %v", s.name, p.eval, err, s.ref)
			if r.traced {
				tracedPriced = append(tracedPriced, p)
			}
		}
		b.add("segcache.hits_per_rep", "count", float64(hits))
		b.add("segcache.misses_per_rep", "count", float64(misses))
		if !r.traced {
			b.addTimed("long_stmts_per_s", "1/s", float64(totalStmts)/coldS, coldT0)
		}
		b.checkpoint()
		warmS, warmT0 := 0.0, time.Now()
		h0, m0 := warm.Stats()
		for _, s := range shapes {
			t0 := time.Now()
			p, err := b.predict(r, s.name+"/warm", s.src, target, warm)
			warmS += time.Since(t0).Seconds()
			b.verify(err == nil && s.checkCost(p), "%s warm: eval %v err %v, reference %v", s.name, p.eval, err, s.ref)
		}
		h1, m1 := warm.Stats()
		b.add("segcache.cold_hit_share", "fraction", float64(hits)/float64(hits+misses))
		b.add("segcache.warm_hit_share", "fraction", float64(h1-h0)/float64(h1-h0+m1-m0))
		if !r.traced {
			b.addTimed("long_warm_stmts_per_s", "1/s", float64(totalStmts)/warmS, warmT0)
		}
		b.checkpoint()

		// Deadline probe: a fresh program each time, so neither the
		// result cache nor the server's segment cache can answer it.
		probe := genLoops(probeRng, 1000)
		body, err := json.Marshal(serve.PredictRequest{Source: probe, Machine: "POWER1"})
		if err != nil {
			return err
		}
		t0 := time.Now()
		status, out, err := srv.post("/v1/predict", body)
		arrival := time.Since(t0)
		if r.traced {
			b.tr.record(spanHTTP, "predict-deadline", r.root, t0, t0.Add(arrival), false)
		} else {
			b.addTimed("probe_ms", "ms", float64(arrival)/1e6, t0)
			b.add("deadline_overshoot_ms", "ms", float64(arrival-probeTimeout)/1e6)
		}
		b.verify(err == nil && probeOK(status, out, probe, target), "deadline probe: status %d err %v body %.200s", status, err, out)
		return nil
	}, func(r *rep) error {
		sr := newSegmentReplayer(b, false)
		for i, s := range shapes {
			if err := sr.program(s.name, tracedPriced[i], target); err != nil {
				return err
			}
		}
		counts = append(counts, sr.counts)
		terms := 0
		for _, p := range tracedPriced {
			terms += p.terms
		}
		b.add("symexpr.terms_per_rep", "count", float64(terms))
		return nil
	})
	if err != nil {
		return err
	}

	b.inputs["segcache_cold_hit_share"] = b.med("segcache.cold_hit_share")
	b.inputs["segcache_warm_hit_share"] = b.med("segcache.warm_hit_share")
	b.setE2E("ops_per_s", "long_stmts_per_s")
	b.setE2E("warm_per_s", "long_warm_stmts_per_s")
	b.setE2E("p50_ms", "loops1000_ms")
	b.setE2E("tail_ms", "probe_ms")
	if !b.opt.trace {
		exp := 0.0
		for _, pair := range [][2]*longShape{{shapes[0], shapes[1]}, {shapes[2], shapes[3]}} {
			small, big := b.med(pair[0].name+"_ms"), b.med(pair[1].name+"_ms")
			exp = math.Max(exp, math.Log(big/small)/math.Log(float64(pair[1].stmts)/float64(pair[0].stmts)))
		}
		b.extra["long_scaling_exp"] = metricValue{exp, "ratio"}
		b.extra["long_straight_ms"] = metricValue{b.norm("straight2000_ms"), "ms"}
		b.extra["long_loops_ms"] = metricValue{b.norm("loops1000_ms"), "ms"}
		b.extra["deadline_overshoot_ms"] = metricValue{b.med("deadline_overshoot_ms"), "ms"}
	}
	if b.opt.trace {
		b.setFrontLayers(2 * float64(totalBytes))
		b.setReplayLayers(counts)
		b.layer["symexpr.terms"] = b.med("symexpr.terms_per_rep")
		// The cold pricings' caches: every segment is unique, so this
		// stays near zero.
		hits, misses := b.med("segcache.hits_per_rep"), b.med("segcache.misses_per_rep")
		b.layer["segcache.hits"] = hits
		b.layer["segcache.misses"] = misses
		b.layer["segcache.hit_ratio"] = hits / (hits + misses)
	}
	return nil
}

// longState is long-input's set-up: the generated shapes, the target
// and the in-process server the deadline probe goes to.
type longState struct {
	shapes []*longShape
	target *machine.Machine
	srv    *inProcServer
}

// checkCost accepts a pricing whose value at the nominal point matches
// the shape's independent reference and whose cost string matches the
// first pricing's.
func (s *longShape) checkCost(p priced) bool {
	if s.golden == "" {
		s.golden = p.cost
	}
	return p.cost == s.golden && math.Abs(p.eval-s.ref) <= 1e-9*math.Abs(s.ref)
}

// longReference prices a long shape by composition rather than through
// the aggregator. A straight-line program costs its lowered block's
// one-time, per-iteration and per-entry Tetris estimates summed; a loop
// sequence costs the sum of each loop priced as a program of its own.
func longReference(s *longShape, m *machine.Machine) (float64, error) {
	prog, err := source.Parse(s.src)
	if err != nil {
		return 0, err
	}
	tbl, err := sem.Analyze(prog)
	if err != nil {
		return 0, err
	}
	if !strings.HasPrefix(s.name, "loops") {
		opt := aggregate.DefaultOptions()
		lw, err := lower.New(tbl, m, opt.Lower).Body(prog.Body, nil)
		if err != nil {
			return 0, err
		}
		total := 0.0
		for _, blk := range []*ir.Block{lw.Pre, lw.Body, lw.PerEntry, lw.Post} {
			if blk == nil || len(blk.Instrs) == 0 {
				continue
			}
			res, err := tetris.Estimate(m, blk, opt.Tetris)
			if err != nil {
				return 0, err
			}
			total += float64(res.Cost)
		}
		return total, nil
	}
	header, _, _ := strings.Cut(s.src, "  do i = 1, n\n")
	total := 0.0
	for _, loop := range strings.Split(s.src[len(header):], "  end do\n") {
		if strings.TrimSpace(loop) == "" || strings.TrimSpace(loop) == "end" {
			continue
		}
		p, err := perfpredict.Predict(header+loop+"  end do\nend\n", m)
		if err != nil {
			return 0, err
		}
		v, err := p.EvalAt(map[string]float64{"n": nominalUnknown})
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// probeOK accepts the deadline probe's answer: a 504 deadline error, or
// — should pricing beat the deadline — the library's own answer.
func probeOK(status int, body []byte, src string, m *machine.Machine) bool {
	switch status {
	case http.StatusGatewayTimeout:
		var e serve.ErrorResponse
		return json.Unmarshal(body, &e) == nil && e.Error.Code == serve.CodeDeadlineExceeded
	case http.StatusOK:
		p, err := perfpredict.PredictCtx(context.Background(), src, m, perfpredict.PredictOptions{})
		if err != nil {
			return false
		}
		var got serve.PredictResponse
		return json.Unmarshal(body, &got) == nil && got.Cost == p.Cost.String()
	}
	return false
}
