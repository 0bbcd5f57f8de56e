package visual

import (
	"bytes"
	"image"
	"sync"
	"testing"
)

func TestSceneCacheRenderMemoized(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindSchematic)
	a := c.Render(s)
	b := c.Render(s)
	if a != b {
		t.Error("second render did not return the cached image")
	}
	if !bytes.Equal(a.Pix, Render(s).Pix) {
		t.Error("cached render differs from a direct render")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 miss + 1 hit", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate %v, want 0.5", got)
	}
}

func TestSceneCacheDownsampled(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindLayout)
	got := c.Downsampled(s, 8)
	want := Downsample(Render(s), 8)
	if got.Bounds() != want.Bounds() || !bytes.Equal(got.Pix, want.Pix) {
		t.Error("cached downsample differs from direct pipeline")
	}
	if c.Downsampled(s, 8) != got {
		t.Error("second downsample not cached")
	}
	// factor <= 1 is the full render entry, not a separate key.
	if c.Downsampled(s, 1) != c.Render(s) {
		t.Error("factor 1 should share the render entry")
	}
	// Distinct factors are distinct entries.
	if c.Downsampled(s, 16) == got {
		t.Error("16x shares the 8x entry")
	}
}

func TestSceneCacheCriticalLossesAndCriticals(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindSchematic)
	crit := c.Criticals(s)
	direct := s.CriticalElements()
	if len(crit) != len(direct) {
		t.Fatalf("criticals %d, want %d", len(crit), len(direct))
	}
	for _, factor := range []int{8, 16} {
		losses := c.CriticalLosses(s, factor)
		if len(losses) != len(direct) {
			t.Fatalf("factor %d: %d losses for %d criticals", factor, len(losses), len(direct))
		}
		for i, e := range direct {
			if want := LegibilityLoss(factor, e.Salience); losses[i] != want {
				t.Errorf("factor %d element %d: loss %v, want %v", factor, i, losses[i], want)
			}
		}
	}
	// Memoized: same backing slice on the second call.
	a := c.CriticalLosses(s, 16)
	b := c.CriticalLosses(s, 16)
	if len(a) > 0 && &a[0] != &b[0] {
		t.Error("losses recomputed on second call")
	}
}

// TestSceneCacheReset pins Stats() behaviour across Reset(): the hit,
// miss, eviction and byte counters all restart from zero, the budget
// (configuration, not a counter) survives, and previously cached
// artifacts recompute.
func TestSceneCacheReset(t *testing.T) {
	w := renderWeight(t)
	c := NewSceneCache()
	budget := w + 1024 // one render plus the small loss/critical entries
	c.SetBudget(budget)
	s := sampleScene(KindCurve)
	img := c.Render(s)
	_ = c.CriticalLosses(s, 8)
	_ = c.Criticals(s)
	_ = c.Render(sampleScene(KindTable)) // second render forces an eviction
	before := c.Stats()
	if before.Evictions == 0 || before.EvictedBytes == 0 || before.Bytes == 0 || before.PeakBytes == 0 {
		t.Fatalf("expected byte pressure before reset, stats %+v", before)
	}
	c.Reset()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.EvictedBytes != 0 ||
		st.Bytes != 0 || st.PeakBytes != 0 {
		t.Errorf("stats after reset %+v", st)
	}
	if st.Budget != budget {
		t.Errorf("reset dropped the budget: %d, want %d", st.Budget, budget)
	}
	if c.Render(s) == img {
		t.Error("reset kept the cached render")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("post-reset render should miss, stats %+v", st)
	}
}

// renderWeight learns the byte weight the cache charges for one cached
// render from a throwaway cache. All sampleScenes share canvas
// dimensions, so every render entry weighs the same.
func renderWeight(t *testing.T) int64 {
	t.Helper()
	c := NewSceneCache()
	c.Render(sampleScene(KindSchematic))
	w := c.Stats().Bytes
	if w <= 0 {
		t.Fatalf("render weight = %d", w)
	}
	return w
}

// TestSceneCacheBudgetEviction checks the LRU contract: under a budget
// sized for two renders the least-recently-used entry is the one
// evicted, retained and peak bytes never exceed the budget, and the
// same access sequence produces identical stats on every run.
func TestSceneCacheBudgetEviction(t *testing.T) {
	w := renderWeight(t)
	run := func() (CacheStats, bool) {
		c := NewSceneCache()
		c.SetBudget(2*w + w/2) // room for exactly two renders
		s1 := sampleScene(KindSchematic)
		s2 := sampleScene(KindDiagram)
		s3 := sampleScene(KindLayout)
		img1 := c.Render(s1)
		_ = c.Render(s2)
		_ = c.Render(s1) // touch: s2 becomes the coldest entry
		_ = c.Render(s3) // over budget: must evict s2, keep s1
		kept := c.Render(s1) == img1
		return c.Stats(), kept
	}
	st, kept := run()
	if !kept {
		t.Error("recently-used render was evicted instead of the LRU one")
	}
	if st.Evictions != 1 || st.EvictedBytes != w {
		t.Errorf("evictions %d (%d bytes), want 1 (%d bytes)", st.Evictions, st.EvictedBytes, w)
	}
	if st.Bytes > st.Budget || st.PeakBytes > st.Budget {
		t.Errorf("bytes %d / peak %d exceed budget %d", st.Bytes, st.PeakBytes, st.Budget)
	}
	if again, _ := run(); again != st {
		t.Errorf("same access sequence, different stats: %+v vs %+v", again, st)
	}
}

// TestSceneCacheConcurrentEviction churns a two-render budget from many
// goroutines mixing Render, Downsampled and EncodedPNG lookups; the
// mutex must keep the accounting consistent (run under -race) and peak
// bytes must never exceed the budget. Each goroutine keeps the first
// frame it was handed and, after the churn, that frame must still equal
// a fresh render: evicting a shared frame never overwrites its pixels.
func TestSceneCacheConcurrentEviction(t *testing.T) {
	w := renderWeight(t)
	c := NewSceneCache()
	c.SetBudget(2 * w)
	scenes := []*Scene{
		sampleScene(KindSchematic), sampleScene(KindDiagram), sampleScene(KindLayout),
		sampleScene(KindCurve), sampleScene(KindTable), sampleScene(KindFlow),
	}
	type kept struct {
		img           *image.RGBA
		scene, factor int
	}
	const goroutines = 8
	first := make([]kept, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for j := range scenes {
					si := (g + j) % len(scenes)
					s := scenes[si]
					var img *image.RGBA
					factor := 1
					switch (g + i + j) % 3 {
					case 0:
						img = c.Render(s)
					case 1:
						factor = 8
						img = c.Downsampled(s, factor)
					default:
						if _, err := c.EncodedPNG(s, 8); err != nil {
							t.Error(err)
						}
						continue
					}
					_ = img.Pix[0]
					if first[g].img == nil {
						first[g] = kept{img, si, factor}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.PeakBytes > st.Budget {
		t.Errorf("peak %d exceeds budget %d", st.PeakBytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Error("six scenes under a two-render budget should evict")
	}
	for g, k := range first {
		want := Downsample(Render(scenes[k.scene]), k.factor)
		if ok, off := PixEqual(k.img, want); !ok {
			t.Errorf("goroutine %d: kept %dx frame of scene %d changed at offset %d after eviction churn",
				g, k.factor, k.scene, off)
		}
	}
}

func TestSceneCacheConcurrent(t *testing.T) {
	c := NewSceneCache()
	scenes := []*Scene{
		sampleScene(KindSchematic),
		sampleScene(KindDiagram),
		sampleScene(KindLayout),
	}
	var wg sync.WaitGroup
	const goroutines = 16
	// Record pointer identities (image pointer, first loss element) so
	// we can check every goroutine saw the same cached artifacts.
	ptrs := make([][]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range scenes {
				losses := c.CriticalLosses(s, 8)
				ptrs[g] = append(ptrs[g], c.Downsampled(s, 8), &losses[0])
			}
		}(g)
	}
	wg.Wait()
	// Every goroutine must observe the same cached artifacts.
	for g := 1; g < goroutines; g++ {
		for i := range ptrs[0] {
			if ptrs[g][i] != ptrs[0][i] {
				t.Fatalf("goroutine %d artifact %d differs", g, i)
			}
		}
	}
	// Each (scene, factor) computed once: 3 scenes x (render + 8x + losses).
	if st := c.Stats(); st.Misses != 9 {
		t.Errorf("misses %d, want 9 (%+v)", st.Misses, st)
	}
}

func TestCloneIsPrivate(t *testing.T) {
	s := sampleScene(KindSchematic)
	orig := Default.Render(s)
	cp := Clone(orig)
	if !bytes.Equal(orig.Pix, cp.Pix) {
		t.Fatal("clone differs from original")
	}
	before := orig.Pix[0]
	cp.Pix[0] = before ^ 0xff
	if orig.Pix[0] != before {
		t.Error("mutating the clone changed the cached image")
	}
}
