package aggregate

import (
	"fmt"
	"sort"
	"strings"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/tetris"
)

// Caches bundles the two memoization layers an estimator can share
// across program variants: the straight-line segment cache and the
// loop-nest cost cache. Either may be nil.
type Caches struct {
	Seg  *SegCache
	Nest *NestCache
}

// NewWithCaches creates an estimator sharing both cache layers. A nil
// Seg gets a private segment cache; a nil Nest disables nest-level
// caching (the estimator behaves exactly like NewWithCache).
//
// The concurrency contract of NewWithCache extends to the nest cache:
// both caches may be shared by estimators on different goroutines, and
// predictions remain byte-identical to serial, cache-less runs.
func NewWithCaches(tbl *sem.Table, m *machine.Machine, opt Options, caches Caches) *Estimator {
	e := NewWithCache(tbl, m, opt, caches.Seg)
	e.nc = caches.Nest
	return e
}

// PriceIncremental prices a program against shared caches, treating
// changedPaths as a hint naming the statement paths (in the xform.Path
// convention: indices descending through DO-loop bodies) that differ
// from previously priced variants. Loop nests on or above a changed
// path skip their cache probe — they are known dirty — while every
// other nest is looked up and, on a hit, spliced from its cached
// polynomials without re-lowering or re-estimating.
//
// The hint is advisory only: correctness comes from the structural
// fingerprints in the cache keys, so stale, empty, or wrong paths can
// cost hit-rate but can never change a result. The returned Result is
// byte-identical to a full re-pricing by New(tbl, m, opt).Program.
func PriceIncremental(p *source.Program, changedPaths [][]int, caches Caches, tbl *sem.Table, m *machine.Machine, opt Options) (Result, error) {
	e := NewWithCaches(tbl, m, opt, caches)
	e.changed = changedPaths
	return e.Program(p)
}

// optionsFingerprint hashes everything besides the program that a
// cached cost depends on: the machine *content* fingerprint (unit
// inventory, dispatch width, flags, and the whole cost table — never
// just the name, so same-named targets with different tables cannot
// alias) and the full option set (lowering flags, tetris options,
// steady-state and branch handling, and the external-library table).
func optionsFingerprint(machFP source.Fingerprint, opt Options) source.Fingerprint {
	fp := machFP
	fp = fp.MixString(fmt.Sprintf("%+v|%+v|%d|%t|%g|%g",
		opt.Lower, opt.Tetris, opt.SteadyStateIters,
		opt.SimplifyCloseBranches, opt.CloseTol, opt.AssumeBranchProb))
	if len(opt.Library) > 0 {
		names := make([]string, 0, len(opt.Library))
		for n := range opt.Library {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ent := opt.Library[n]
			fp = fp.MixString(n).
				MixString(strings.Join(ent.Params, ",")).
				MixString(ent.Cost.String())
		}
	}
	return fp
}

// regEvent is one unknown-variable registration performed while
// pricing a nest. Replaying the log against another estimator
// reproduces its effect exactly: named events re-attempt noteVar (so
// deduplication happens against the *current* seen-set, as a live
// traversal would), and fresh events allocate a new fresh variable
// whose name replaces the recorded one in the cached polynomials.
type regEvent struct {
	fresh bool
	v     symexpr.Var
	kind  string
	desc  string
}

// nestEntry is one relocatable cached nest cost: the compositional
// cost polynomials plus everything the pricing did to estimator state
// (hoisted one-time costs in order, unknown registrations in order).
type nestEntry struct {
	base    symexpr.Poly
	entry   symexpr.Poly
	mem     symexpr.Poly
	guarded []guardedTerm
	pres    []float64
	events  []regEvent
}

// recMark delimits the estimator-state suffix produced while pricing
// one nest.
type recMark struct {
	pre int
	ev  int
}

func (e *Estimator) mark() recMark {
	return recMark{pre: len(e.preVals), ev: len(e.events)}
}

// captureNest packages the pricing of one nest (its cost plus the
// estimator-state suffix since mark) into a relocatable entry.
func (e *Estimator) captureNest(m recMark, c cost) *nestEntry {
	ent := &nestEntry{
		base:   c.base,
		entry:  c.entry,
		mem:    c.mem,
		pres:   append([]float64(nil), e.preVals[m.pre:]...),
		events: append([]regEvent(nil), e.events[m.ev:]...),
	}
	if len(c.guarded) > 0 {
		ent.guarded = append([]guardedTerm(nil), c.guarded...)
	}
	return ent
}

// splice replays a cached nest entry against the current estimator
// state: one-time costs are re-applied in order, unknown registrations
// are replayed (named ones dedup against the current seen-set; fresh
// ones draw new names from the current counter), and the cached
// polynomials are renamed to the freshly drawn names. The result is
// exactly what pricing the nest live would have produced.
func (e *Estimator) splice(ent *nestEntry) cost {
	for _, v := range ent.pres {
		e.addPre(v)
	}
	var ren map[symexpr.Var]symexpr.Var
	for _, ev := range ent.events {
		if !ev.fresh {
			e.noteVar(ev.v, ev.kind, ev.desc)
			continue
		}
		nv := e.freshVar(ev.kind, ev.desc)
		if nv != ev.v {
			if ren == nil {
				ren = map[symexpr.Var]symexpr.Var{}
			}
			ren[ev.v] = nv
		}
	}
	c := cost{base: ent.base, entry: ent.entry, mem: ent.mem}
	if len(ent.guarded) > 0 {
		c.guarded = append([]guardedTerm(nil), ent.guarded...)
	}
	if ren != nil {
		c.base = symexpr.RenameVars(c.base, ren)
		c.entry = symexpr.RenameVars(c.entry, ren)
		c.mem = symexpr.RenameVars(c.mem, ren)
		for i := range c.guarded {
			c.guarded[i].bound = symexpr.RenameVars(c.guarded[i].bound, ren)
			c.guarded[i].poly = symexpr.RenameVars(c.guarded[i].poly, ren)
		}
	}
	return c
}

// loopUnit prices one loop nest through the nest cache: a hit splices
// the cached cost, a miss prices the nest live and stores the capture.
// path is this loop's statement path (nil when the nest sits in a
// region paths cannot address, e.g. inside an IF branch).
func (e *Estimator) loopUnit(l *source.DoLoop, loops []LoopCtx, path []int) (cost, error) {
	if e.nc == nil || e.prog == nil {
		return e.loop(l, loops, path)
	}
	if e.nc.disabled {
		e.nc.missDirect()
		return e.loop(l, loops, path)
	}
	key := e.nestKey(l, loops)
	if e.pathDirty(path) {
		e.nc.missDirect()
	} else if ent, ok := e.nc.lookup(key); ok {
		return e.splice(ent), nil
	}
	m := e.mark()
	c, err := e.loop(l, loops, path)
	if err != nil {
		return cost{}, err
	}
	e.nc.store(key, e.captureNest(m, c))
	return c, nil
}

// nestKey builds the cache key of a nest: its structural fingerprint
// mixed with the pricing context it can observe — the machine/options
// fingerprint, the enclosing loop variables the nest references (in
// order; unreferenced enclosing variables are provably invisible to
// lowering and aggregation), and the declarations, constants, and
// distribution directives of referenced names.
func (e *Estimator) nestKey(l *source.DoLoop, loops []LoopCtx) source.Fingerprint {
	names := map[string]bool{}
	source.StmtNames(l, names)
	fp := e.keyFP.Mix(source.FingerprintStmt(l))
	for _, lc := range loops {
		if names[lc.Var] {
			fp = fp.MixString(lc.Var)
		}
	}
	// A nest priced at the top level of a memory-active machine carries
	// the hierarchy charge; the identical subtree nested inside another
	// loop does not. Mark root pricings so the two can never alias.
	if len(loops) == 0 && e.m.Memory.Active() {
		fp = fp.MixString("memroot")
	}
	return fp.Mix(source.FingerprintEnvFor(e.prog, names))
}

// pathDirty reports whether path is on or above one of the changed
// paths — i.e. the subtree at path contains a change, so its cache
// probe would be a guaranteed miss. Siblings and descendants of a
// change are not dirty: they are looked up normally, which is how
// shifted-but-unchanged nests and untouched inner nests hit.
func (e *Estimator) pathDirty(path []int) bool {
	if path == nil || len(e.changed) == 0 {
		return false
	}
	for _, c := range e.changed {
		if len(path) > len(c) {
			continue
		}
		dirty := true
		for i := range path {
			if c[i] != path[i] {
				dirty = false
				break
			}
		}
		if dirty {
			return true
		}
	}
	return false
}

// childPath extends a statement path by one index; nil (unaddressable
// region) stays nil.
func childPath(path []int, i int) []int {
	if path == nil {
		return nil
	}
	np := make([]int, len(path)+1)
	copy(np, path)
	np[len(path)] = i
	return np
}

// addPre records one hoisted (one-time) cost contribution. The values
// are folded into a polynomial by prePoly at the end, reproducing the
// exact AddConst chain a live traversal performs.
func (e *Estimator) addPre(v float64) { e.preVals = append(e.preVals, v) }

// prePoly folds the recorded one-time costs, in order, into the
// OneTime polynomial.
func (e *Estimator) prePoly() symexpr.Poly {
	p := symexpr.Zero()
	for _, v := range e.preVals {
		p = p.AddConst(v)
	}
	return p
}

// Tetris invocation counters: every placement of a block into the
// functional bins goes through these wrappers so the nest cache can
// report how much estimation work a prediction actually performed.

func (e *Estimator) countTetris() {
	if e.nc != nil {
		e.nc.tetris.Add(1)
	}
}

func (e *Estimator) tetEstimate(b *ir.Block) (tetris.Result, error) {
	e.countTetris()
	return tetris.Estimate(e.m, b, e.opt.Tetris)
}

func (e *Estimator) tetSteadyState(b *ir.Block, iters int) (float64, error) {
	e.countTetris()
	per, _, err := tetris.SteadyState(e.m, b, e.opt.Tetris, iters)
	return per, err
}

func (e *Estimator) tetSteadyStateChained(b *ir.Block, iters int, chain map[ir.Reg]ir.Reg) (float64, error) {
	e.countTetris()
	per, _, err := tetris.SteadyStateChained(e.m, b, e.opt.Tetris, iters, chain)
	return per, err
}
