package dataset

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// This file is the adversarial counterpart to the happy-path corruption
// spot checks in codec_test.go: exhaustive truncation and bit-flip
// sweeps plus hand-crafted hostile frames, run through both decode
// paths (ReadPackBytes and StreamPack). The contract under test is
// uniform: hostile bytes produce an error — never a panic and never an
// allocation sized by attacker-controlled lengths.

// streamCollect drains StreamPack into a flat question list so stream
// results can be compared against the whole-buffer decoder. Question
// pointers survive yield (only the shard slice itself is recycled).
func streamCollect(data []byte, shardSize int) ([]*Question, error) {
	var qs []*Question
	err := StreamPack(bytes.NewReader(data), shardSize, func(s Shard) error {
		qs = append(qs, s.Questions...)
		return nil
	})
	return qs, err
}

// TestPackEveryPrefixTruncation cuts the fixture pack at every byte
// boundary — header, intern records, question payloads, trailer count,
// and each checksum byte — and requires both decoders to reject every
// prefix. This subsumes the sampled truncation points in
// TestPackRejectsTruncation.
func TestPackEveryPrefixTruncation(t *testing.T) {
	good := fixturePack(t, fixtureBenchmark())
	for n := 0; n < len(good); n++ {
		if _, err := ReadPackBytes(good[:n]); err == nil {
			t.Errorf("ReadPackBytes accepted %d-byte prefix of a %d-byte pack", n, len(good))
		}
		if _, err := streamCollect(good[:n], 2); err == nil {
			t.Errorf("StreamPack accepted %d-byte prefix of a %d-byte pack", n, len(good))
		}
	}
}

// TestPackChecksumTrailerFlips corrupts each byte of the CRC-32C
// trailer individually; both decoders must call out the mismatch
// rather than fail with a vaguer frame error.
func TestPackChecksumTrailerFlips(t *testing.T) {
	good := fixturePack(t, fixtureBenchmark())
	for i := len(good) - 4; i < len(good); i++ {
		bad := bytes.Clone(good)
		bad[i] ^= 0xff
		if _, err := ReadPackBytes(bad); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("ReadPackBytes with flipped trailer byte %d: err = %v, want checksum mismatch", i, err)
		}
		if _, err := streamCollect(bad, 2); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("StreamPack with flipped trailer byte %d: err = %v, want checksum mismatch", i, err)
		}
	}
}

// TestPackOversizedLengths hand-crafts frames whose declared lengths
// vastly exceed the stream: the packMaxPayload and remaining-bytes
// guards must reject them before any length-sized allocation happens.
// (A decoder that allocated first would turn a 20-byte input into a
// multi-gigabyte make — the test completing at all is the assertion.)
func TestPackOversizedLengths(t *testing.T) {
	header := func(nameLen uint64) []byte {
		h := []byte(packMagic)
		h = binary.AppendUvarint(h, packVersion)
		h = binary.AppendUvarint(h, nameLen)
		return h
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"huge name length", header(1 << 62)},
		{"name length just past cap", header(packMaxPayload + 1)},
		{"huge record length", binary.AppendUvarint(header(0), 1<<62)},
		{"record length just past cap", binary.AppendUvarint(header(0), packMaxPayload+1)},
		{"varint overflow", append(header(0), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		{"plausible length, no payload", binary.AppendUvarint(header(0), 1<<20)},
	}
	for _, tc := range cases {
		if _, err := ReadPackBytes(tc.data); err == nil {
			t.Errorf("ReadPackBytes(%s) accepted hostile frame", tc.name)
		}
		if _, err := streamCollect(tc.data, 2); err == nil {
			t.Errorf("StreamPack(%s) accepted hostile frame", tc.name)
		}
	}
}

// TestPackEveryByteFlip inverts each byte of the pack in turn. Flips
// inside CRC-covered records must be detected; flips in the header are
// either rejected (magic, version, lengths) or — for the benchmark
// name, which the record checksum deliberately does not cover —
// decoded into an observably different pack. What is never acceptable
// is a panic or a silent byte-identical decode.
func TestPackEveryByteFlip(t *testing.T) {
	good := fixturePack(t, fixtureBenchmark())
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0xff
		b, err := ReadPackBytes(bad)
		if err != nil {
			continue
		}
		var reenc bytes.Buffer
		if err := writePack(&reenc, b); err != nil {
			t.Fatalf("re-encoding decode of flip at byte %d: %v", i, err)
		}
		if bytes.Equal(reenc.Bytes(), good) {
			t.Errorf("flip at byte %d decoded byte-identical to the original", i)
		}
	}
}

// FuzzPackCorruption drives arbitrary bytes through both decoders. The
// properties: neither path panics; whenever the strict whole-buffer
// decoder accepts an input, the streaming decoder accepts it too and
// yields the same questions (the reverse is not required — StreamPack
// reads from an unbounded io.Reader and cannot see trailing garbage
// after the checksum, which ReadPackBytes rejects).
func FuzzPackCorruption(f *testing.F) {
	var buf bytes.Buffer
	if err := writePack(&buf, fixtureBenchmark()); err != nil {
		f.Fatalf("writePack: %v", err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(packMagic))
	f.Add(good[:len(good)/2])
	mutant := bytes.Clone(good)
	mutant[len(mutant)/3] ^= 0x40
	f.Add(mutant)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadPackBytes(data)
		qs, serr := streamCollect(data, 3)
		if err != nil {
			return
		}
		if serr != nil {
			t.Fatalf("ReadPackBytes accepted input StreamPack rejected: %v", serr)
		}
		if len(qs) != len(b.Questions) {
			t.Fatalf("stream decoded %d questions, whole-buffer decoded %d", len(qs), len(b.Questions))
		}
		var bj, sj bytes.Buffer
		if err := b.WriteJSON(&bj); err != nil {
			t.Fatal(err)
		}
		if err := (&Benchmark{Name: b.Name, Questions: qs}).WriteJSON(&sj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bj.Bytes(), sj.Bytes()) {
			t.Fatal("stream and whole-buffer decodes of an accepted input differ")
		}
	})
}
