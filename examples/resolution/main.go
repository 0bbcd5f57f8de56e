// Resolution: the §IV-B study — rasterise a question at 1x/8x/16x
// downsampling (writing real PNGs) and measure how GPT-4o's Pass@1 on
// the Digital category degrades with resolution.
package main

import (
	"context"
	"fmt"
	"image/png"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/dataset"
	"repro/internal/eval"
)

func main() {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		log.Fatal(err)
	}

	// Write the same figure at three resolutions, as the paper did.
	outDir := "resolution-out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	q := suite.Benchmark.Questions[0]
	for _, f := range []int{1, 8, 16} {
		img := chipvqa.RenderQuestion(q, f)
		path := filepath.Join(outDir, fmt.Sprintf("%s_%dx.png", q.ID, f))
		file, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := png.Encode(file, img); err != nil {
			log.Fatal(err)
		}
		if err := file.Close(); err != nil {
			log.Fatal(err)
		}
		b := img.Bounds()
		fmt.Printf("wrote %s (%dx%d)\n", path, b.Dx(), b.Dy())
	}

	// Measure the Digital-category degradation.
	m, err := suite.Model("GPT4o")
	if err != nil {
		log.Fatal(err)
	}
	digital := &dataset.Benchmark{Name: "digital", Questions: suite.Benchmark.Filter(
		func(q *chipvqa.Question) bool { return q.Category == chipvqa.Digital })}
	fmt.Println("\nGPT-4o on the Digital category:")
	for _, f := range []int{1, 8, 16} {
		r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: f}}
		rep, err := r.EvaluateContext(context.Background(), m, digital)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2dx downsampled: Pass@1 = %.2f\n", f, rep.Pass1())
	}
	fmt.Println("\n8x downsampling preserves the pass rate; 16x drops it —")
	fmt.Println("small annotations become unreadable below ~1 device pixel per stroke.")
}
