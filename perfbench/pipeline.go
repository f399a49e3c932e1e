package main

import (
	"context"
	"fmt"

	"perfpredict"
	"perfpredict/internal/aggregate"
	"perfpredict/internal/ir"
	"perfpredict/internal/lower"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/tetris"
)

// nominalUnknown is the value given to non-probability unknowns when a
// prediction is evaluated (probabilities get 0.5), the convention the
// search, explain and explore use.
const nominalUnknown = 100

// priced is one prediction's user-visible output.
type priced struct {
	cost  string
	eval  float64
	terms int
	// prog and tbl are kept from traced predictions for the replays.
	prog *source.Program
	tbl  *sem.Table
}

// predict prices src on m through the shared cache and renders and
// evaluates the cost, as a compile step using the predictor would.
// Untraced reps call the public API; traced reps make the same calls
// one layer at a time (parse, analyze, estimator, aggregate, render,
// evaluate), each in its own span.
func (b *bench) predict(r *rep, label, src string, m *machine.Machine, cache *aggregate.SegCache) (priced, error) {
	if !r.traced {
		p, err := perfpredict.PredictCtx(context.Background(), src, m, perfpredict.PredictOptions{Cache: cache})
		if err != nil {
			return priced{}, err
		}
		point := map[string]float64{}
		for _, u := range p.Unknowns {
			if u.Kind != "probability" {
				point[u.Name] = nominalUnknown
			}
		}
		v, err := p.EvalAt(point)
		if err != nil {
			return priced{}, err
		}
		return priced{cost: p.Cost.String(), eval: v, terms: p.Cost.NumTerms()}, nil
	}
	end := r.span(b, spanParse, label)
	prog, err := source.Parse(src)
	end()
	if err != nil {
		return priced{}, err
	}
	end = r.span(b, spanSem, label)
	tbl, err := sem.Analyze(prog)
	end()
	if err != nil {
		return priced{}, err
	}
	end = r.span(b, spanNew, label)
	est := aggregate.NewWithCache(tbl, m, aggregate.DefaultOptions(), cache)
	end()
	end = r.span(b, spanProgram, label)
	res, err := est.Program(prog)
	end()
	if err != nil {
		return priced{}, err
	}
	end = r.span(b, spanRender, label)
	cost := res.Cost.String()
	end()
	point := map[symexpr.Var]float64{}
	for _, u := range res.Unknowns {
		point[u.Var] = nominalUnknown
		if u.Kind == "probability" {
			point[u.Var] = 0.5
		}
	}
	end = r.span(b, spanEval, label)
	v, err := res.Cost.Eval(point)
	end()
	if err != nil {
		return priced{}, err
	}
	return priced{cost: cost, eval: v, terms: res.Cost.NumTerms(), prog: prog, tbl: tbl}, nil
}

// replayCounts are the work counts of one replay pass.
type replayCounts struct {
	stmts, instrs, blocks, ops int
}

// segmentReplayer re-runs lowering and Tetris over the straight-line
// segments a measured prediction priced, one span per public call.
// seen plays the part of the segment cache: a segment is replayed once
// per (machine, text, loop context), as the cache prices it once.
type segmentReplayer struct {
	b         *bench
	seen      map[string]bool
	explained bool // also replay tetris.EstimateExplained over each body
	counts    replayCounts
}

func newSegmentReplayer(b *bench, explained bool) *segmentReplayer {
	return &segmentReplayer{b: b, seen: map[string]bool{}, explained: explained}
}

// program replays every straight segment of p, walking the statement
// tree the way the aggregator does.
func (sr *segmentReplayer) program(label string, p priced, m *machine.Machine) error {
	tr := lower.New(p.tbl, m, aggregate.DefaultOptions().Lower)
	return sr.stmts(label, tr, m, m.Fingerprint().String(), p.prog.Body, nil)
}

func (sr *segmentReplayer) stmts(label string, tr *lower.Translator, m *machine.Machine, mkey string, list []source.Stmt, loopVars []string) error {
	for i := 0; i < len(list); {
		j := i
		for j < len(list) && isStraight(list[j]) {
			j++
		}
		if j > i {
			if err := sr.segment(label, tr, m, mkey, list[i:j], loopVars); err != nil {
				return err
			}
			i = j
			continue
		}
		switch x := list[i].(type) {
		case *source.DoLoop:
			inner := append(append([]string(nil), loopVars...), x.Var)
			if err := sr.stmts(label, tr, m, mkey, x.Body, inner); err != nil {
				return err
			}
		case *source.IfStmt:
			if err := sr.stmts(label, tr, m, mkey, x.Then, loopVars); err != nil {
				return err
			}
			if err := sr.stmts(label, tr, m, mkey, x.Else, loopVars); err != nil {
				return err
			}
		case *source.ReturnStmt:
			return nil
		}
		i++
	}
	return nil
}

func isStraight(s source.Stmt) bool {
	switch s.(type) {
	case *source.Assign, *source.CallStmt, *source.ContinueStmt:
		return true
	}
	return false
}

// segment mirrors the aggregator's pricing of one straight segment:
// lower the statements, then estimate the hoisted, per-iteration
// (steady state inside loops) and per-entry blocks.
func (sr *segmentReplayer) segment(label string, tr *lower.Translator, m *machine.Machine, mkey string, seg []source.Stmt, loopVars []string) error {
	key := fmt.Sprint(mkey, "|", source.StmtsString(seg), "|", loopVars)
	if sr.seen[key] {
		return nil
	}
	sr.seen[key] = true
	t := sr.b.tr
	opt := aggregate.DefaultOptions()

	id := t.open(spanLower, label, -1, true)
	lw, err := tr.Body(seg, loopVars)
	t.close(id)
	if err != nil {
		return err
	}
	sr.counts.stmts += len(seg)
	for _, blk := range []*ir.Block{lw.Pre, lw.Body, lw.PerEntry, lw.Post} {
		if blk != nil {
			sr.counts.instrs += len(blk.Instrs)
		}
	}
	estimate := func(blk *ir.Block, steady bool) error {
		if blk == nil || len(blk.Instrs) == 0 {
			return nil
		}
		sr.counts.blocks++
		sr.counts.ops += len(blk.Instrs)
		id := t.open(spanTetris, label, -1, true)
		var err error
		if steady {
			chain := map[ir.Reg]ir.Reg{}
			for _, pv := range lw.Promoted {
				if pv.InReg != ir.NoReg && pv.OutReg != ir.NoReg {
					chain[pv.InReg] = pv.OutReg
				}
			}
			_, _, err = tetris.SteadyStateChained(m, blk, opt.Tetris, opt.SteadyStateIters, chain)
		} else {
			_, err = tetris.Estimate(m, blk, opt.Tetris)
		}
		t.close(id)
		return err
	}
	if err := estimate(lw.Pre, false); err != nil {
		return err
	}
	if err := estimate(lw.Body, len(loopVars) > 0 && opt.SteadyStateIters > 1); err != nil {
		return err
	}
	if err := estimate(lw.PerEntry, false); err != nil {
		return err
	}
	if err := estimate(lw.Post, false); err != nil {
		return err
	}
	if sr.explained && len(lw.Body.Instrs) > 0 {
		id := t.open(spanExplained, label, -1, true)
		_, err := tetris.EstimateExplained(m, lw.Body, opt.Tetris)
		t.close(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// setReplayLayers reports the lowering/Tetris replay metrics and the
// aggregator's self time (Program minus the replayed lowering and
// Tetris it contains).
func (b *bench) setReplayLayers(counts []replayCounts) {
	lowerS := b.layerPerRep("lower.body_s", func(s *span) bool { return s.replay && s.name == spanLower })
	tetrisS := b.layerPerRep("tetris.estimate_s", func(s *span) bool { return s.replay && s.name == spanTetris })
	b.layerPerRep("tetris.explained_s", func(s *span) bool { return s.replay && s.name == spanExplained })
	progS := b.layerPerRep("aggregate.program_s", named(spanProgram))
	self := make([]float64, len(progS))
	for i := range progS {
		self[i] = progS[i] - lowerS[i] - tetrisS[i]
	}
	b.layer["aggregate.self_s"] = median(self)
	var stmts, instrs, blocks, ops []float64
	for _, c := range counts {
		stmts = append(stmts, float64(c.stmts))
		instrs = append(instrs, float64(c.instrs))
		blocks = append(blocks, float64(c.blocks))
		ops = append(ops, float64(c.ops))
	}
	b.layer["lower.stmts"] = median(stmts)
	b.layer["lower.instrs"] = median(instrs)
	b.layer["tetris.blocks"] = median(blocks)
	b.layer["tetris.ops"] = median(ops)
}

// setFrontLayers reports parse, analysis, estimator construction and
// symbolic rendering/evaluation from the traced predictions.
func (b *bench) setFrontLayers(parsedBytes float64) {
	parse := b.layerPerRep("source.parse_s", named(spanParse))
	if m := median(parse); m > 0 {
		b.layer["source.parse_mb_per_s"] = parsedBytes / (1 << 20) / m
	}
	b.layerPerRep("sem.analyze_s", named(spanSem))
	b.layerPerRep("aggregate.new_s", named(spanNew))
	b.layerPerRep("symexpr.render_s", named(spanRender))
	b.layerPerRep("symexpr.eval_s", named(spanEval))
	var est []float64
	for _, r := range b.tracedReps {
		n := 0
		for i := range b.tr.spans {
			if s := &b.tr.spans[i]; s.rep == r && s.name == spanNew {
				n++
			}
		}
		est = append(est, float64(n))
	}
	b.layer["aggregate.estimators"] = median(est)
}
