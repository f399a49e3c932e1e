package perfpredict

import (
	"context"
	"encoding/json"

	"perfpredict/internal/aggregate"
	"perfpredict/internal/resultcache"
	"perfpredict/internal/sem"
	"perfpredict/internal/source"
	"perfpredict/internal/symexpr"
	"perfpredict/internal/xform"
)

// PredictOptions tune PredictCtx. The zero value reproduces Predict.
type PredictOptions struct {
	// Aggregate overrides the aggregation options; nil uses the
	// defaults (the same ones Predict uses).
	Aggregate *aggregate.Options
	// Cache is a warm shared segment cache; nil prices privately.
	// Costs never depend on cache state, so results are
	// byte-identical either way.
	Cache *SegmentCache
}

// PredictCtx is Predict under a context with service-grade knobs: the
// single-program form of PredictBatchCtx. ctx is checked before
// parsing and then polled by the aggregator every few dozen statements
// and loop units, so pricing a long program stops with ctx.Err()
// shortly after ctx is done. Parsing, analysis and the lowering of one
// straight-line run are not interrupted.
func PredictCtx(ctx context.Context, src string, target *Target, opt PredictOptions) (*Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	aopt := aggregate.DefaultOptions()
	if opt.Aggregate != nil {
		aopt = *opt.Aggregate
	}
	return predictWithCache(ctx, src, target, aopt, opt.Cache)
}

// NestCache memoizes whole loop-nest pricings across transformation
// searches (the layer above SegmentCache). Safe for concurrent use;
// entries are keyed by structural fingerprint × machine content
// fingerprint, so one instance may serve every machine. See
// NewNestCache.
type NestCache = aggregate.NestCache

// NewNestCache creates an empty shared nest-level cost cache.
func NewNestCache() *NestCache { return aggregate.NewNestCache() }

// OptimizeOptions tune OptimizeCtx beyond the required arguments.
// The zero value reproduces Optimize exactly.
type OptimizeOptions struct {
	// Workers bounds the search's neighbor-expansion concurrency;
	// <= 0 uses runtime.GOMAXPROCS(0).
	Workers int
	// SegCache and NestCache are warm shared caches the search prices
	// through; nil members get fresh private instances. Costs never
	// depend on cache state — sharing only changes how much pricing
	// work is recomputed — so results are byte-identical either way.
	SegCache  *SegmentCache
	NestCache *NestCache
	// MaxNodes and MaxDepth bound the search (0 keeps the xform
	// defaults of 40 states / depth 3).
	MaxNodes int
	MaxDepth int
	// Results, when non-nil, caches finished OptimizeResults by
	// content address (program structure × machine content × nominal
	// point × bounds). A hit skips the search entirely and returns
	// the cached result with the four cache counters zeroed — the
	// counters describe pricing work performed, and a hit performs
	// none. Only complete searches are cached; cancelled or failed
	// ones never are.
	Results ResultBackend
	// Progress, when non-nil, is called after every search-node
	// expansion with the nodes expanded so far and the incumbent
	// cost. It runs on the search goroutine; keep it fast. Cache hits
	// (Results) report no progress — no search runs.
	Progress func(explored int, best float64)
}

// OptimizeCtx is Optimize under a context with service-grade knobs:
// cancellation is checked at every search-node expansion, so a
// dropped caller stops the burn within one expansion. On cancellation
// the best fully priced variant found so far is returned alongside
// ctx.Err(); OptimizeResult is the zero value only when ctx expired
// before the initial pricing finished.
func OptimizeCtx(ctx context.Context, src string, target *Target, nominal map[string]float64, opt OptimizeOptions) (OptimizeResult, error) {
	prog, err := source.Parse(src)
	if err != nil {
		return OptimizeResult{}, err
	}
	if _, err := sem.Analyze(prog); err != nil {
		return OptimizeResult{}, err
	}
	var rkey resultcache.Key
	if opt.Results != nil {
		rkey = resultcache.OptimizeKey(source.FingerprintProgram(prog), target.Fingerprint(),
			nominal, opt.MaxNodes, opt.MaxDepth)
		if b, ok := opt.Results.Get(rkey); ok {
			var out OptimizeResult
			if err := json.Unmarshal(b, &out); err == nil {
				return out, nil
			}
			// An undecodable entry (foreign writer, version skew) is
			// treated as a miss; the fresh result overwrites it below.
		}
	}
	nom := map[symexpr.Var]float64{}
	for k, v := range nominal {
		nom[symexpr.Var(k)] = v
	}
	res, serr := xform.SearchCtx(ctx, prog, xform.SearchOptions{
		Machine:  target,
		Nominal:  nom,
		Workers:  opt.Workers,
		MaxNodes: opt.MaxNodes,
		MaxDepth: opt.MaxDepth,
		Caches:   aggregate.Caches{Seg: opt.SegCache, Nest: opt.NestCache},
		Progress: opt.Progress,
	})
	if res.Best == nil {
		return OptimizeResult{}, serr
	}
	out := OptimizeResult{
		Source:          source.PrintProgram(res.Best),
		PredictedBefore: res.InitialCost,
		PredictedAfter:  res.BestCost,
		MemoryBefore:    res.InitialMemory,
		MemoryAfter:     res.BestMemory,
		Explored:        res.Explored,
		SegCacheHits:    res.CacheHits,
		SegCacheMisses:  res.CacheMisses,
		NestCacheHits:   res.NestHits,
		NestsRepriced:   res.NestMisses,
		Bottleneck:      res.Bottleneck,
		BottleneckUtil:  res.BottleneckUtil,
	}
	for _, mv := range res.Sequence {
		out.Transformations = append(out.Transformations, mv.String())
	}
	if opt.Results != nil && serr == nil {
		// Zero the counters before caching: they are a property of
		// this call's cache state, not of the (program, machine,
		// options) identity the key names.
		c := out
		c.SegCacheHits, c.SegCacheMisses = 0, 0
		c.NestCacheHits, c.NestsRepriced = 0, 0
		if b, err := json.Marshal(c); err == nil {
			opt.Results.Put(rkey, b)
		}
	}
	return out, serr
}
