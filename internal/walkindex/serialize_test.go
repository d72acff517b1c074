package walkindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"oipsr/graph/gen"
)

func buildSmall(t *testing.T) *Index {
	t.Helper()
	g := gen.WebGraph(50, 5, 7)
	ix, err := Build(g, Options{C: 0.7, K: 9, Walks: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func saveBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes and patches the trailing CRC after a test mutated the
// payload, so the mutation — not the checksum — is what Load must reject.
func reseal(data []byte) {
	sum := crc32.ChecksumIEEE(data[:len(data)-4])
	binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
}

// TestSaveLoadRoundTrip: both formats reproduce the index exactly, for a
// full index and for shards (including a one-shard plan owning [0, n)),
// dense and mapped. Corruption and truncation are rejected, and Load and
// LoadShard refuse each other's files with ErrBadMagic.
func TestSaveLoadRoundTrip(t *testing.T) {
	g := gen.WebGraph(50, 5, 7)
	opt := Options{C: 0.7, K: 9, Walks: 30, Seed: 42}
	for _, rg := range indexRanges(g.NumVertices()) {
		t.Run(rg.name, func(t *testing.T) {
			ix := rg.mustBuild(t, g, opt)
			hdrSize, other := headerSize, LoadShard
			if rg.shard {
				hdrSize, other = shardHeaderSize, Load
			}
			for _, format := range []int{FormatV1, FormatV2} {
				var buf bytes.Buffer
				if err := ix.SaveFormat(&buf, format); err != nil {
					t.Fatal(err)
				}
				data := buf.Bytes()
				got, err := rg.load(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				if !ix.Equal(got) {
					t.Fatalf("format %d: loaded index differs from saved index", format)
				}
				if got.Lo() != rg.lo || got.Hi() != rg.hi || got.N() != g.NumVertices() {
					t.Fatalf("format %d: round-tripped range/size wrong: n=%d [%d,%d)", format, got.N(), got.Lo(), got.Hi())
				}
				if !rg.shard {
					// Bit-identical query results, not just equal storage.
					a := ssRow(t, ix, 3)
					b := ssRow(t, got, 3)
					for v := range a {
						if a[v] != b[v] {
							t.Fatalf("SingleSource(3)[%d]: %g != %g after round-trip", v, a[v], b[v])
						}
					}
				}
				if format == FormatV2 {
					path := filepath.Join(t.TempDir(), "index.srwk")
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					load := LoadMapped
					if rg.shard {
						load = LoadShardMapped
					}
					mx, err := load(path, MappedOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !ix.Equal(mx) {
						t.Fatal("mapped index differs from saved index")
					}
					mx.Close()
				}
				// A file of the other kind is not a silent misread.
				if _, err := other(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
					t.Fatalf("format %d: loading as the other file kind: got %v, want ErrBadMagic", format, err)
				}
				if format == FormatV2 {
					continue
				}
				// Bit corruption in the payload trips the checksum.
				corrupt := append([]byte(nil), data...)
				corrupt[hdrSize+5] ^= 0x40
				if _, err := rg.load(bytes.NewReader(corrupt)); !errors.Is(err, ErrChecksum) {
					t.Fatalf("corrupted payload: got %v, want ErrChecksum", err)
				}
				// Truncation is a clean error, not a panic.
				if _, err := rg.load(bytes.NewReader(data[:len(data)/2])); err == nil {
					t.Fatal("truncated file: expected error")
				}
			}
		})
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	data := saveBytes(t, buildSmall(t))
	data[0] = 'X'
	reseal(data)
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	data := saveBytes(t, buildSmall(t))
	binary.LittleEndian.PutUint32(data[8:], FormatVersion+7)
	reseal(data)
	_, err := Load(bytes.NewReader(data))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestLoadRejectsCorruptedPayload(t *testing.T) {
	data := saveBytes(t, buildSmall(t))
	data[headerSize+5] ^= 0x40 // flip one bit inside the path payload
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestLoadRejectsShortFile(t *testing.T) {
	data := saveBytes(t, buildSmall(t))
	for _, cut := range []int{0, 5, headerSize - 1, headerSize, headerSize + 17, len(data) - 3} {
		_, err := Load(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("Load of %d/%d bytes succeeded, want error", cut, len(data))
		}
		if cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("Load of %d bytes: err = %v, want wrapped io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestLoadRejectsImplausibleHeader(t *testing.T) {
	data := saveBytes(t, buildSmall(t))
	// Claim an astronomically large fingerprint count: Load must refuse the
	// allocation before reading (or trusting) any payload.
	binary.LittleEndian.PutUint64(data[28:], 1<<40)
	reseal(data)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load with n*r*k overflow succeeded, want error")
	}
}

func TestLoadRejectsOutOfRangePath(t *testing.T) {
	data := saveBytes(t, buildSmall(t))
	// A path entry >= n is structurally invalid even with a valid checksum.
	binary.LittleEndian.PutUint32(data[headerSize:], 1_000_000)
	reseal(data)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load with out-of-range path entry succeeded, want error")
	}
}
