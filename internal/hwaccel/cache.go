// Package hwaccel models the BFGTS scheduling hardware accelerator of
// Section 4.1 and Figure 2: one predictor unit per CPU, each holding a CPU
// table (the dTxID running on every remote processor, maintained by snoop
// broadcasts), control registers (confidence-table base address, sTxID
// shift, confidence threshold, and a wait register holding the dTxID to
// serialize behind), and a small dedicated cache for confidence-table
// lines (Table 2: 2 kB, 16-way, 64-byte lines, 1-cycle hits).
//
// On TX_BEGIN the unit walks the CPU table, fetches the confidence between
// the beginning static transaction and each running one, and compares it
// against the threshold (Example 1) — a few cycles instead of the software
// scan's hundreds. The paper's cache refetches lines evicted by invalidate
// snoops, so remote confidence updates do not inflate the prediction
// latency; the model therefore charges misses only for cold and capacity
// effects.
package hwaccel

import "repro/internal/metrics"

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitCycles  int64
	MissCycles int64 // fill from L2
}

// DefaultCacheConfig is the Tx Confidence Cache of Table 2.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{
		SizeBytes:  2048,
		Ways:       16,
		LineBytes:  64,
		HitCycles:  1,
		MissCycles: 32,
	}
}

// Cache is a tiny set-associative cache model with LRU replacement. It
// tracks only tags; the simulator charges latencies from the access
// outcomes.
type Cache struct {
	cfg  CacheConfig
	sets [][]uint64 // per set, tags in LRU order (front = most recent)

	hits, misses int64

	// hitCtr/missCtr mirror the counters into a metrics registry when
	// attached; nil instruments are free no-ops.
	hitCtr, missCtr *metrics.Counter
}

// SetMetrics attaches registry counters that mirror the hit/miss totals.
// Banks share one counter pair across all per-CPU caches so the registry
// reports system-wide figures.
func (c *Cache) SetMetrics(hits, misses *metrics.Counter) {
	c.hitCtr, c.missCtr = hits, misses
}

// NewCache builds a cache model; the configuration must describe at least
// one set of at least one way.
func NewCache(cfg CacheConfig) *Cache {
	c := &Cache{}
	c.reset(cfg)
	return c
}

// reset empties the cache in place for cfg, as NewCache would build it:
// no lines, zero counters, no instruments. The set storage is kept when
// it fits.
func (c *Cache) reset(cfg CacheConfig) {
	nLines := cfg.SizeBytes / cfg.LineBytes
	if nLines <= 0 || cfg.Ways <= 0 {
		panic("hwaccel: degenerate cache configuration")
	}
	nSets := nLines / cfg.Ways
	if nSets == 0 {
		nSets = 1
	}
	sets := c.sets
	if len(sets) != nSets {
		sets = make([][]uint64, nSets)
	}
	for i := range sets {
		if cap(sets[i]) < cfg.Ways {
			sets[i] = make([]uint64, 0, cfg.Ways)
		}
		sets[i] = sets[i][:0]
	}
	*c = Cache{cfg: cfg, sets: sets}
}

// Access touches the byte address and returns the access latency in
// cycles, installing the line on a miss.
func (c *Cache) Access(addr uint64) int64 {
	tag := addr / uint64(c.cfg.LineBytes)
	set := c.sets[tag%uint64(len(c.sets))]
	for i, t := range set {
		if t == tag {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = tag
			c.hits++
			c.hitCtr.Inc()
			return c.cfg.HitCycles
		}
	}
	c.misses++
	c.missCtr.Inc()
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = tag
	c.sets[tag%uint64(len(c.sets))] = set
	return c.cfg.MissCycles
}

// Invalidate drops the line containing addr, then immediately refetches it
// — the paper's snoop-refetch behavior ("modified to fetch cache lines
// evicted by an invalidate snoop"). The refetch happens off the prediction
// critical path, so no latency is returned and subsequent accesses hit.
func (c *Cache) Invalidate(addr uint64) {
	// With refetch semantics the line stays resident; modeled as a no-op
	// on the tag store. Kept as an explicit method so a non-refetching
	// variant can be ablated.
	_ = addr
}

// InvalidateNoRefetch drops the line containing addr without refetching —
// the conventional cache behavior the paper argues against. Used by the
// ablation benchmarks.
func (c *Cache) InvalidateNoRefetch(addr uint64) {
	tag := addr / uint64(c.cfg.LineBytes)
	set := c.sets[tag%uint64(len(c.sets))]
	for i, t := range set {
		if t == tag {
			c.sets[tag%uint64(len(c.sets))] = append(set[:i], set[i+1:]...)
			return
		}
	}
}

// Stats returns lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }
