package walkindex

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"oipsr/graph"
)

// fuzzSeedFiles returns a small valid index — the shard owning [1, 5) when
// shard is set — serialized in both formats, the structured seeds every
// mutation starts from.
func fuzzSeedFiles(f *testing.F, shard bool) (v1, v2 []byte) {
	f.Helper()
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}})
	opt := Options{C: 0.6, K: 4, Walks: 3, Seed: 1}
	lo, hi := 0, g.NumVertices()
	if shard {
		lo, hi = 1, 5
	}
	ix, err := build(g, opt, lo, hi, shard)
	if err != nil {
		f.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := ix.Save(&b1); err != nil {
		f.Fatal(err)
	}
	if err := ix.SaveFormat(&b2, FormatV2); err != nil {
		f.Fatal(err)
	}
	return b1.Bytes(), b2.Bytes()
}

// FuzzLoad: Load and LoadShard — one reader under two magics — must
// return an error — never panic, never allocate proportionally to a forged
// header — on arbitrary bytes. Anything either accepts must have been
// consumed completely (no trailing bytes) and must survive a
// re-save/re-load round trip: byte-identical for format v1,
// index-identical for format v2 (whose block size is a writer choice, so
// byte equality only holds for our own writer's layout).
func FuzzLoad(f *testing.F) {
	valid, valid2 := fuzzSeedFiles(f, false)
	f.Add(valid)
	f.Add(valid2)
	f.Add(valid[:len(valid)-5])                     // truncated v1 payload
	f.Add(valid[:headerSize])                       // header only
	f.Add([]byte{})                                 // empty
	f.Add([]byte("SRWKIDX\x00junk"))                // magic, garbage after
	f.Add(bytes.Repeat([]byte{0}, 64))              // zeros
	f.Add(append(append([]byte{}, valid...), 0x00)) // trailing byte after v1 trailer
	f.Add(append(append([]byte{}, valid2...), 'x')) // trailing byte after v2 trailer
	corrupt := append([]byte(nil), valid...)
	corrupt[headerSize+3] ^= 0x20 // v1 payload bit flip -> checksum mismatch
	f.Add(corrupt)
	corrupt2 := append([]byte(nil), valid2...)
	corrupt2[len(corrupt2)-8] ^= 0x40 // v2 posting-block bit flip
	f.Add(corrupt2)
	truncBlock := append([]byte(nil), valid2[:len(valid2)-9]...) // truncated v2 block
	f.Add(truncBlock)
	forgedDir := append([]byte(nil), valid2...)
	forgedDir[headerSize+8+3] ^= 0x01 // block directory offset flip
	reseal(forgedDir)                 // CRC-valid forged directory
	f.Add(forgedDir)
	// Shard files of both formats: valid, truncated, corrupted, and with
	// a trailing byte.
	shard1, shard2 := fuzzSeedFiles(f, true)
	for _, valid := range [][]byte{shard1, shard2} {
		f.Add(valid)
		f.Add(valid[:len(valid)-5])
		corrupt := append([]byte(nil), valid...)
		corrupt[shardHeaderSize+11] ^= 0x20
		f.Add(corrupt)
		f.Add(append(append([]byte{}, valid...), 0x00))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, load := range []func(io.Reader) (*Index, error){Load, LoadShard} {
			ix, err := load(bytes.NewReader(data))
			if err != nil {
				continue
			}
			version := binary.LittleEndian.Uint32(data[8:])
			var buf bytes.Buffer
			if err := ix.SaveFormat(&buf, int(version)); err != nil {
				t.Fatalf("re-saving accepted index: %v", err)
			}
			if version == FormatV1 {
				// The readers reject trailing bytes, so an accepted v1
				// stream is exactly one index: the round trip is
				// full-byte equality.
				if !bytes.Equal(buf.Bytes(), data) {
					t.Fatal("accepted v1 index did not round-trip bit-identically")
				}
				continue
			}
			again, err := load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-loading re-saved v2 index: %v", err)
			}
			if !ix.Equal(again) {
				t.Fatal("accepted v2 index did not round-trip identically")
			}
		}
	})
}

// TestFuzzSeedsRejected pins what the adversarial fuzz seeds must produce:
// the corpus entries built from structured corruption are all rejected
// with the right sentinel (or any error for structural damage).
func TestFuzzSeedsRejected(t *testing.T) {
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}})
	ix, err := Build(g, Options{C: 0.6, K: 4, Walks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := ix.SaveFormat(&b2, FormatV2); err != nil {
		t.Fatal(err)
	}
	valid2 := b2.Bytes()

	t.Run("bit-flipped block", func(t *testing.T) {
		corrupt := append([]byte(nil), valid2...)
		corrupt[len(corrupt)-8] ^= 0x40
		if _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatal("bit-flipped v2 block accepted")
		}
	})
	t.Run("truncated block", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(valid2[:len(valid2)-9])); err == nil {
			t.Fatal("truncated v2 file accepted")
		}
	})
	t.Run("forged directory", func(t *testing.T) {
		forged := append([]byte(nil), valid2...)
		forged[headerSize+8+3] ^= 0x01 // first directory offset
		reseal(forged)
		if _, err := Load(bytes.NewReader(forged)); err == nil {
			t.Fatal("CRC-valid forged directory accepted")
		}
	})
}
