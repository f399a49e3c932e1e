package aggregate

import (
	"sync/atomic"

	"perfpredict/internal/source"
)

// NestCache memoizes whole loop-nest costs across the program variants
// of a transformation search — the layer above SegCache that makes
// re-pricing incremental (§3.3.1: a transformation's affected region is
// one nest; everything else is looked up). Entries are keyed by a
// structural fingerprint of the nest combined with its pricing context:
// the machine, the aggregation options, the enclosing loop variables
// the nest references, and the declarations/constants visible to it
// (source.FingerprintEnvFor). A nest that a move did not touch —
// including nests of *other* statements shifted by an insertion, and
// inner nests below a transformed loop — therefore hits even though
// its printed position changed.
//
// Entries are relocatable: besides the nest's cost polynomials they
// record the one-time costs and unknown-variable registrations the
// pricing performed, so a hit replays them against the current
// estimator (renaming fresh unknowns to the current counter) and the
// spliced result is byte-identical to a full re-pricing.
//
// A NestCache is safe for concurrent use: the entry table is striped
// over mutex-guarded shards and all counters are atomic. Concurrent
// misses on one key may both price the nest; the entries they store
// splice to identical results, so predictions are deterministic
// regardless of interleaving. Keys are 128-bit structural hashes;
// collisions are treated as impossible, as in SegCache.
type NestCache struct {
	// disabled makes every lookup a counted miss and every store a
	// no-op: the estimator then performs exactly the work it would
	// without a nest cache while still reporting re-pricing and tetris
	// counters — the baseline side of a before/after measurement. It
	// also keeps the estimator off every SegCache memo except the
	// straight-segment entries.
	disabled bool

	entries fpTable[*nestEntry]
	hits    atomic.Int64
	misses  atomic.Int64
	tetris  atomic.Int64
}

// NewNestCache creates an empty nest-level cost cache, ready for
// concurrent use.
func NewNestCache() *NestCache { return &NestCache{} }

// NewNestCacheCounting creates a cache in counting mode: it never hits
// and never stores, but still counts every nest re-pricing and tetris
// invocation. Estimators using it do exactly the work of aggregation
// without sub-nest memoization — the baseline for measuring what an
// active cache saves.
func NewNestCacheCounting() *NestCache { return &NestCache{disabled: true} }

// Disabled reports whether the cache is in counting (never-hit) mode.
func (c *NestCache) Disabled() bool { return c.disabled }

func (c *NestCache) lookup(k source.Fingerprint) (*nestEntry, bool) {
	if c.disabled {
		c.misses.Add(1)
		return nil, false
	}
	ent, ok := c.entries.get(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ent, ok
}

// missDirect counts a re-pricing whose lookup was skipped (the caller
// knew the nest was dirty).
func (c *NestCache) missDirect() { c.misses.Add(1) }

func (c *NestCache) store(k source.Fingerprint, ent *nestEntry) {
	if !c.disabled {
		c.entries.put(k, ent)
	}
}

// Stats reports nest-level hits and misses so far; misses count nests
// actually re-priced (including dirty nests whose lookup was skipped).
// Safe to call concurrently with ongoing estimations.
func (c *NestCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// TetrisCalls reports how many tetris estimator invocations (Estimate,
// SteadyState, SteadyStateChained) estimators attached to this cache
// have performed — the work metric the nest cache exists to reduce.
func (c *NestCache) TetrisCalls() int { return int(c.tetris.Load()) }

// Len reports the number of cached nest entries.
func (c *NestCache) Len() int { return c.entries.len() }
