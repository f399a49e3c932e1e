package aggregate

import (
	"sync"
	"sync/atomic"

	"perfpredict/internal/source"
)

// SegCache memoizes every Tetris pricing the aggregate walk performs —
// the mechanism behind the paper's incremental prediction update
// (§3.3.1): a transformation's *affected region* re-prices only what
// it changed; everything else is looked up. Share one SegCache across
// the program variants explored by a transformation search, or across
// the workers of a batch prediction; a warm cache answers a repeated
// prediction without lowering or placing a single block.
//
// Keys are 128-bit fingerprints of everything a cost depends on: the
// machine content and the aggregation options (optionsFingerprint),
// the program's parameters, declarations, constants and distribution
// directives (source.FingerprintEnv), a kind tag, the structural
// fingerprint of the segment or expression, and the enclosing loop
// variables in order. Entries hold scalars only, one compact type per
// kind:
//
//   - straight-line segments: iterative, hoisted and per-entry cost;
//   - loop bounds: the iterative and hoisted cost of one bound;
//   - loop control: the uncovered increment/compare/branch cost of a
//     body, keyed by its leading straight run, and the bare
//     loop-control block, keyed by machine and options only;
//   - conditionals: the condition's hoisted and per-evaluation cost,
//     the uncovered branch cost and each branch's overlap credit.
//
// Fragment pricing (Estimator.Stmts) has no program environment and
// bypasses the cache; under a counting-mode NestCache only the
// straight-segment entries are used.
//
// A SegCache is safe for concurrent use by multiple goroutines: each
// table is striped over segShards mutex-guarded shards selected by the
// key, and the hit/miss counters (over all kinds) are atomic. Two
// estimators missing on the same key concurrently may both price it,
// but the entries they store are identical, so results are
// deterministic regardless of interleaving. Collisions of 128-bit
// keys are treated as impossible.
type SegCache struct {
	segs   fpTable[segEntry]
	bounds fpTable[boundsEntry]
	ctls   fpTable[float64]
	conds  fpTable[condEntry]
	hits   atomic.Int64
	misses atomic.Int64
}

// segShards is the stripe count: enough to keep contention negligible
// for worker pools up to a few dozen goroutines, small enough that an
// idle cache stays cheap.
const segShards = 32

// Kind tags keep the entries of different kinds apart even where their
// structural fingerprints coincide.
const (
	kindSeg uint64 = iota + 1
	kindBound
	kindCtlBase
	kindCtl
	kindCond
)

// Entries store cycle counts Tetris produces as integers in int32 and
// only the fractional steady-state costs in float64, so every entry
// stays at most three words. A zero count stands for an absent part
// (an empty preheader, a branch without a leading run): adding it is
// the identity, so skipping it changes no result.

// segEntry is one priced straight-line segment: the per-iteration cost
// plus the hoisted and per-entry (register-promotion) cycles.
type segEntry struct {
	iter  float64
	pre   int32
	entry int32
}

// boundsEntry is the evaluation cost of one loop-bound expression: its
// iterative part and its hoisted (preheader) part.
type boundsEntry struct {
	iter int32
	pre  int32
}

// condEntry is the Tetris-derived part of one IF: the condition's
// per-evaluation and hoisted cost, the uncovered branch cost c_br, and
// per branch (then, else) the Figure 9 overlap the condition block
// saves against the branch's leading run.
type condEntry struct {
	cond  float64
	pre   int32
	cbr   int32
	saved [2]int32
}

// NewSegCache creates an empty cache, ready for concurrent use. Shard
// tables are created lazily on first store.
func NewSegCache() *SegCache { return &SegCache{} }

// Stats reports hits and misses so far, over every kind of entry. Safe
// to call concurrently with ongoing estimations.
func (c *SegCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// Len reports the number of cached entries of every kind.
func (c *SegCache) Len() int {
	return c.segs.len() + c.bounds.len() + c.ctls.len() + c.conds.len()
}

// memoize returns the entry for key in tab, counting a hit, or prices
// it, counting a miss, and stores the result. With on false it only
// prices.
func memoize[V any](c *SegCache, on bool, tab *fpTable[V], key source.Fingerprint, price func() (V, error)) (V, error) {
	if !on {
		return price()
	}
	if v, ok := tab.get(key); ok {
		c.hits.Add(1)
		return v, nil
	}
	c.misses.Add(1)
	v, err := price()
	if err == nil {
		tab.put(key, v)
	}
	return v, err
}

// fpTable is a fingerprint-keyed map striped over segShards
// mutex-guarded shards. Shard maps are created on first store.
type fpTable[V any] struct {
	shards [segShards]struct {
		mu sync.RWMutex
		m  map[source.Fingerprint]V
	}
}

func (t *fpTable[V]) get(k source.Fingerprint) (V, bool) {
	s := &t.shards[k.Lo%segShards]
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

func (t *fpTable[V]) put(k source.Fingerprint, v V) {
	s := &t.shards[k.Lo%segShards]
	s.mu.Lock()
	if s.m == nil {
		s.m = map[source.Fingerprint]V{}
	}
	s.m[k] = v
	s.mu.Unlock()
}

func (t *fpTable[V]) len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.RLock()
		n += len(t.shards[i].m)
		t.shards[i].mu.RUnlock()
	}
	return n
}
