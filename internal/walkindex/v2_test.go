package walkindex

import (
	"bytes"
	"errors"
	"testing"

	"oipsr/graph/gen"
)

// TestV2ReencodeByteIdentical is the re-encode equality property: a v1
// file decoded and re-saved through format v2 and back must reproduce the
// original v1 bytes exactly — the v2 codec is lossless and canonical.
func TestV2ReencodeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, d int
		seed int64
	}{
		{"web", 300, 5, 3},
		{"citation", 257, 4, 8}, // rows not a multiple of the block size
		{"tiny", 3, 2, 1},       // single partial block
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.WebGraph(tc.n, tc.d, tc.seed)
			ix, err := Build(g, Options{Walks: 20, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			var v1, v2 bytes.Buffer
			if err := ix.Save(&v1); err != nil {
				t.Fatal(err)
			}
			if err := ix.SaveFormat(&v2, FormatV2); err != nil {
				t.Fatal(err)
			}
			mid, err := Load(bytes.NewReader(v2.Bytes()))
			if err != nil {
				t.Fatalf("loading v2: %v", err)
			}
			if !ix.Equal(mid) {
				t.Fatal("v2 round trip changed the index")
			}
			var back bytes.Buffer
			if err := mid.Save(&back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), v1.Bytes()) {
				t.Fatal("v1 -> v2 -> v1 re-encode is not byte-identical")
			}
			// Canonical encoding: re-saving the v2 load as v2 again must
			// also reproduce the v2 bytes.
			var again bytes.Buffer
			if err := mid.SaveFormat(&again, FormatV2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), v2.Bytes()) {
				t.Fatal("v2 re-encode is not byte-identical")
			}
		})
	}
}

// TestV2Compresses: on the bench-style graphs the compressed format must
// be at most half the dense payload (the PR's acceptance bar).
func TestV2Compresses(t *testing.T) {
	g := gen.WebGraph(1000, 8, 21)
	ix, err := Build(g, Options{Walks: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := ix.Save(&v1); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFormat(&v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(v2.Len()) / float64(v1.Len()); ratio > 0.5 {
		t.Errorf("v2/v1 size ratio %.3f, want <= 0.5 (%d vs %d bytes)", ratio, v2.Len(), v1.Len())
	}
}

// TestSaveFormatUnknown: formats this build does not write are ErrVersion.
func TestSaveFormatUnknown(t *testing.T) {
	ix := buildSmall(t)
	for _, format := range []int{0, 3, -1} {
		if err := ix.SaveFormat(&bytes.Buffer{}, format); !errors.Is(err, ErrVersion) {
			t.Errorf("SaveFormat(%d) = %v, want ErrVersion", format, err)
		}
	}
}

// TestSaveValidatesLoadGuards is the round-trip asymmetry fix: Save used
// to happily write an index whose dimensions Load would then reject. Now
// every guard the readers enforce is checked at save time, with the
// ErrFormatLimits sentinel, before a byte is written.
func TestSaveValidatesLoadGuards(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ix     *Index
		format int
	}{
		{"horizon over v1 guard", &Index{n: 1, hi: 1, k: int(maxHorizon) + 1, r: 1, c: 0.5}, FormatV1},
		{"horizon over v2 guard", &Index{n: 1, hi: 1, k: int(maxV2Horizon) + 1, r: 1, c: 0.5}, FormatV2},
		{"element overflow", &Index{n: 1 << 30, hi: 1 << 30, k: 1 << 10, r: 1 << 10, c: 0.5}, FormatV1},
		{"bad damping", &Index{n: 1, hi: 1, k: 2, r: 1, c: 1.5}, FormatV1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := tc.ix.SaveFormat(&buf, tc.format)
			if !errors.Is(err, ErrFormatLimits) {
				t.Fatalf("SaveFormat = %v, want ErrFormatLimits", err)
			}
			if buf.Len() != 0 {
				t.Fatalf("Save wrote %d bytes before failing validation", buf.Len())
			}
		})
	}
	// The v2-only horizon guard must not reject a v1 save of the same index.
	ix := &Index{n: 0, k: int(maxV2Horizon) + 1, r: 1, c: 0.5, store: newDenseStore(nil, (int(maxV2Horizon) + 1))}
	if err := ix.SaveFormat(&bytes.Buffer{}, FormatV1); err != nil {
		t.Errorf("v1 save rejected a horizon only format v2 forbids: %v", err)
	}
}

// TestLoadRejectsTrailingData: bytes after the CRC trailer are a
// concatenated or overlong file, not slack — for both formats, full
// indexes and shards alike.
func TestLoadRejectsTrailingData(t *testing.T) {
	ix := buildSmall(t)
	for _, format := range []int{FormatV1, FormatV2} {
		var buf bytes.Buffer
		if err := ix.SaveFormat(&buf, format); err != nil {
			t.Fatal(err)
		}
		data := append(append([]byte(nil), buf.Bytes()...), 0xEE)
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrTrailingData) {
			t.Errorf("format %d: Load with a trailing byte = %v, want ErrTrailingData", format, err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("format %d: exact file rejected: %v", format, err)
		}
	}

	// Shards: same probe through LoadShard.
	g := gen.WebGraph(50, 4, 2)
	sx, err := BuildShard(g, Options{Walks: 8, Seed: 3}, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []int{FormatV1, FormatV2} {
		var buf bytes.Buffer
		if err := sx.SaveFormat(&buf, format); err != nil {
			t.Fatal(err)
		}
		data := append(append([]byte(nil), buf.Bytes()...), 0x00)
		if _, err := LoadShard(bytes.NewReader(data)); !errors.Is(err, ErrTrailingData) {
			t.Errorf("shard format %d: trailing byte = %v, want ErrTrailingData", format, err)
		}
		got, err := LoadShard(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shard format %d: exact file rejected: %v", format, err)
		}
		if !sx.Equal(got) {
			t.Errorf("shard format %d: round trip changed the shard", format)
		}
	}
}
