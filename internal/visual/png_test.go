package visual

import (
	"bytes"
	"errors"
	"image/png"
	"sync"
	"testing"
)

var errCorrupt = errors.New("cached PNG bytes diverged from reference encoding")

func TestSceneCacheEncodedPNGRoundTrip(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindSchematic)
	data, err := c.EncodedPNG(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := Downsample(Render(s), 8)
	if img.Bounds() != want.Bounds() {
		t.Fatalf("decoded bounds %v, want %v", img.Bounds(), want.Bounds())
	}
	for y := want.Bounds().Min.Y; y < want.Bounds().Max.Y; y++ {
		for x := want.Bounds().Min.X; x < want.Bounds().Max.X; x++ {
			gr, gg, gb, ga := img.At(x, y).RGBA()
			wr, wg, wb, wa := want.At(x, y).RGBA()
			if gr != wr || gg != wg || gb != wb || ga != wa {
				t.Fatalf("pixel (%d,%d) decodes to %v, want %v", x, y, img.At(x, y), want.At(x, y))
			}
		}
	}
}

func TestSceneCacheEncodedPNGMemoizedAndDeterministic(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindLayout)
	first, err := c.EncodedPNG(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	second, err := c.EncodedPNG(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Error("second call re-encoded instead of returning the cached slice")
	}
	after := c.Stats()
	if after.Misses != before.Misses {
		t.Errorf("warm call counted a miss: %+v -> %+v", before, after)
	}

	// Distinct factors are distinct entries with distinct encodings.
	other, err := c.EncodedPNG(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, other) {
		t.Error("factor 4 and 8 produced identical PNG bytes")
	}

	// A fresh cache (and the Default-backed helper) must produce the
	// same bytes — the wire image is a deterministic function of
	// (scene, factor).
	again, err := NewSceneCache().EncodedPNG(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Error("EncodedPNG differs across caches for the same scene")
	}
	viaDefault, err := Default.EncodedPNG(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, viaDefault) {
		t.Error("Default.EncodedPNG differs from a private cache's encoding")
	}
}

// TestSceneCacheEncodedPNGUnderBudget hammers the PNG path on a small
// budget from many goroutines: the budget invariant must hold with
// encoded-bytes entries in the mix, and every returned slice must stay
// valid (evicting the raw pixels must not corrupt handed-out PNGs).
func TestSceneCacheEncodedPNGUnderBudget(t *testing.T) {
	c := NewSceneCache()
	c.SetBudget(64 << 10)
	scenes := []*Scene{
		sampleScene(KindSchematic),
		sampleScene(KindLayout),
		sampleScene(KindCurve),
	}
	reference := make(map[*Scene][]byte)
	for _, s := range scenes {
		data, err := NewSceneCache().EncodedPNG(s, 8)
		if err != nil {
			t.Fatal(err)
		}
		reference[s] = data
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := scenes[(g+i)%len(scenes)]
				data, err := c.EncodedPNG(s, 8)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(data, reference[s]) {
					errs <- errCorrupt
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.PeakBytes > st.Budget {
		t.Errorf("peak %d exceeded budget %d", st.PeakBytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Log("note: no evictions under budget — budget may be loose for this fixture")
	}
}
