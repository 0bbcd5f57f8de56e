package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

func BenchmarkReadPack10k(b *testing.B) {
	var buf bytes.Buffer
	pw := dataset.NewPackWriter(&buf, "bench")
	if err := StreamExtended("bench", 2000, 512, pw.WriteShard); err != nil {
		b.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadPackBytes(raw); err != nil {
			b.Fatal(err)
		}
	}
}
