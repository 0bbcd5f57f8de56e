package visual

import (
	"bytes"
	"image"
	"image/png"
	"sync"
)

// SceneCache memoizes per-scene visual artifacts across evaluation runs:
// the rendered image, its downsampled variants, and the per-critical-
// element legibility losses at each downsample factor. A Table II-style
// sweep asks 12 models about the same 142 figures; without the cache
// every (model, question) pair re-derives the same scene properties.
// With it each property is computed once per (scene, factor).
//
// Keying is by scene pointer identity plus factor. Scenes are built once
// per benchmark and shared by reference everywhere (the challenge
// collection shallow-copies questions, keeping the same *Scene), so
// pointer identity is exactly scene identity. Scenes must not be mutated
// after first use with a cache — everything in this repository treats
// them as immutable once built.
//
// # Memory budget
//
// At 100k-question scale an unbounded cache would retain one 1.2MB
// render per scene. SetBudget caps retained bytes: entries are tracked
// in a single least-recently-used list and, whenever an insert pushes
// the total over the budget, evicted from the cold end until it fits.
// Eviction order is a pure function of the access sequence — one mutex
// orders all accesses, so a serial workload evicts identically on every
// run. A budget of 0 (the default, and the Default cache's setting)
// disables eviction.
//
// # Ownership
//
// All methods are safe for concurrent use. Returned images and slices
// are shared and read-only (use Clone for a private mutable copy). Any
// number of callers may still hold one when its entry is evicted;
// eviction only drops the cache's reference, and the garbage collector
// frees the value once the last holder lets go.
type SceneCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lru     cacheEntry // ring sentinel: lru.next is hottest, lru.prev coldest

	budget       int64 // retained-byte cap; 0 = unlimited
	bytes        int64 // currently retained
	peak         int64 // high-water mark of bytes, sampled after eviction
	evictedBytes int64
	hits         uint64
	misses       uint64
	evictions    uint64
}

// artifactKind distinguishes the three artifact tables that share the
// cache's single LRU list.
type artifactKind uint8

const (
	artRender    artifactKind = iota // *image.RGBA
	artLosses                        // []float64
	artCriticals                     // []Element
	artPNG                           // pngResult
)

type cacheKey struct {
	scene  *Scene
	factor int
	kind   artifactKind
}

// cacheEntry computes its value exactly once even when many goroutines
// miss on the same key concurrently, and carries the LRU bookkeeping.
// val is published by once.Do (safe to read after it returns); every
// other field is guarded by the cache mutex.
type cacheEntry struct {
	key  cacheKey
	once sync.Once
	val  any

	weight   int64
	computed bool // weight is known; entry participates in byte accounting
	tracked  bool // still in the map and LRU list

	prev, next *cacheEntry
}

// Byte-accounting estimates. Weights approximate retained heap, not
// measure it exactly: the pixel buffer or slice payload plus a flat
// per-entry overhead for the entry, map slot and headers.
const (
	entryOverhead = 128
	elementBytes  = 160 // rough footprint of one Element value
)

// CacheStats reports cache effectiveness and byte pressure.
type CacheStats struct {
	Hits   uint64
	Misses uint64

	Evictions    uint64 // entries dropped under byte pressure
	EvictedBytes int64  // cumulative weight of dropped entries
	Bytes        int64  // weight currently retained
	PeakBytes    int64  // high-water mark of Bytes (sampled after eviction)
	Budget       int64  // configured cap; 0 = unlimited
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewSceneCache returns an empty cache with no byte budget.
func NewSceneCache() *SceneCache { return &SceneCache{} }

// Default is the process-wide cache the evaluation engine uses.
var Default = NewSceneCache()

// SetBudget caps the cache's retained bytes, evicting immediately if
// the current contents exceed it. A budget of 0 removes the cap.
func (c *SceneCache) SetBudget(n int64) {
	c.mu.Lock()
	c.budget = n
	c.evictLocked()
	c.mu.Unlock()
}

// Render returns the scene rasterised at full resolution, rendering at
// most once per scene.
func (c *SceneCache) Render(s *Scene) *image.RGBA {
	return c.image(s, 1, func() *image.RGBA { return Render(s) })
}

// Downsampled returns the scene rendered then box-filtered by factor,
// computing each (scene, factor) at most once. factor <= 1 returns the
// full-resolution render.
func (c *SceneCache) Downsampled(s *Scene, factor int) *image.RGBA {
	if factor <= 1 {
		return c.Render(s)
	}
	return c.image(s, factor, func() *image.RGBA {
		return Downsample(c.Render(s), factor)
	})
}

func (c *SceneCache) image(s *Scene, factor int, compute func() *image.RGBA) *image.RGBA {
	e := c.get(cacheKey{s, factor, artRender}, func() (any, int64) {
		img := compute()
		return img, int64(len(img.Pix)) + entryOverhead
	})
	return e.val.(*image.RGBA)
}

// pngResult is the cached value of an artPNG entry: the encoded bytes
// or the (deterministic) encoding error.
type pngResult struct {
	data []byte
	err  error
}

// EncodedPNG returns the scene rendered at the given downsample factor
// and encoded as PNG, memoized per (scene, factor). The HTTP image
// endpoint of internal/serve hits this once per (scene, factor) and
// then serves warm requests from one shared byte slice; callers must
// treat the slice as read-only. The encoded pixels are the shared
// Downsampled frame, so under a byte budget the raw pixels can be
// evicted while the (much smaller) encoding stays hot.
func (c *SceneCache) EncodedPNG(s *Scene, factor int) ([]byte, error) {
	e := c.get(cacheKey{s, factor, artPNG}, func() (any, int64) {
		var buf bytes.Buffer
		if err := png.Encode(&buf, c.Downsampled(s, factor)); err != nil {
			return pngResult{err: err}, entryOverhead
		}
		return pngResult{data: buf.Bytes()}, int64(buf.Len()) + entryOverhead
	})
	pr := e.val.(pngResult)
	return pr.data, pr.err
}

// CriticalLosses returns LegibilityLoss(factor, e.Salience) for every
// critical element of the scene, in CriticalElements order, computed
// once per (scene, factor) instead of once per (model, question, element).
func (c *SceneCache) CriticalLosses(s *Scene, factor int) []float64 {
	e := c.get(cacheKey{s, factor, artLosses}, func() (any, int64) {
		crit := s.CriticalElements()
		out := make([]float64, len(crit))
		for i, el := range crit {
			out[i] = LegibilityLoss(factor, el.Salience)
		}
		return out, int64(8*len(out)) + entryOverhead
	})
	return e.val.([]float64)
}

// Criticals returns s.CriticalElements() memoized per scene, so the
// filtered slice is built once rather than on every perception call.
func (c *SceneCache) Criticals(s *Scene) []Element {
	e := c.get(cacheKey{s, 0, artCriticals}, func() (any, int64) {
		crit := s.CriticalElements()
		return crit, int64(len(crit))*elementBytes + entryOverhead
	})
	return e.val.([]Element)
}

// get is the single lookup path. It finds or inserts the entry for k,
// counts the hit or miss, computes the value outside the lock via the
// entry's Once, then folds the weight into the byte accounting and
// evicts down to budget.
func (c *SceneCache) get(k cacheKey, compute func() (any, int64)) *cacheEntry {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[cacheKey]*cacheEntry)
		c.lru.next, c.lru.prev = &c.lru, &c.lru
	}
	e, ok := c.entries[k]
	if ok {
		c.hits++
		c.listRemove(e)
		c.listPushFront(e)
	} else {
		e = &cacheEntry{key: k, tracked: true}
		c.entries[k] = e
		c.listPushFront(e)
		c.misses++
	}
	c.mu.Unlock()

	e.once.Do(func() {
		v, w := compute()
		e.val = v
		c.mu.Lock()
		e.weight = w
		e.computed = true
		if e.tracked { // Reset may have dropped the entry mid-compute
			c.bytes += w
			c.evictLocked()
			c.peak = max(c.peak, c.bytes)
		}
		c.mu.Unlock()
	})
	return e
}

// evictLocked drops cold entries until retained bytes fit the budget.
// Entries still computing are skipped (their weight is unknown and a
// waiter is about to read them).
func (c *SceneCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget {
		e := c.lru.prev
		for e != &c.lru && !e.computed {
			e = e.prev
		}
		if e == &c.lru {
			return
		}
		delete(c.entries, e.key)
		c.listRemove(e)
		e.tracked = false
		c.bytes -= e.weight
		c.evictions++
		c.evictedBytes += e.weight
	}
}

func (c *SceneCache) listPushFront(e *cacheEntry) {
	e.prev = &c.lru
	e.next = c.lru.next
	e.prev.next = e
	e.next.prev = e
}

func (c *SceneCache) listRemove(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Stats returns the cumulative counters and current byte pressure.
func (c *SceneCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		EvictedBytes: c.evictedBytes,
		Bytes:        c.bytes,
		PeakBytes:    c.peak,
		Budget:       c.budget,
	}
}

// Reset drops every cached artifact and zeroes the counters (the
// budget is configuration, not a counter, and survives). Values already
// handed out stay valid, exactly as under eviction.
func (c *SceneCache) Reset() {
	c.mu.Lock()
	for _, e := range c.entries {
		c.listRemove(e)
		e.tracked = false
	}
	clear(c.entries)
	c.bytes, c.peak, c.evictedBytes = 0, 0, 0
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.mu.Unlock()
}

// Clone returns a private mutable copy of a (possibly cached) image.
// It is copied row-by-row, so cloning a sub-image view (Stride != 4*Dx)
// is also safe. The caller owns the result.
func Clone(img *image.RGBA) *image.RGBA {
	b := img.Bounds()
	out := image.NewRGBA(b)
	w4 := 4 * b.Dx()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		si := img.PixOffset(b.Min.X, y)
		di := out.PixOffset(b.Min.X, y)
		copy(out.Pix[di:di+w4], img.Pix[si:si+w4])
	}
	return out
}
