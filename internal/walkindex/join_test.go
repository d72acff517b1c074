package walkindex

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/par"
)

// bruteJoin computes the join result the slow way: every pair's estimate
// from the full SingleSource matrix, filtered and ordered exactly as Join
// promises. Join must reproduce it bit for bit — this is the completeness
// proof of the contribution-weight prune.
func bruteJoin(t *testing.T, ix *Index, k int, threshold float64) []JoinPair {
	t.Helper()
	n := ix.N()
	var pairs []JoinPair
	for a := 0; a < n; a++ {
		row := ssRow(t, ix, a)
		for b := a + 1; b < n; b++ {
			if row[b] >= threshold && row[b] > 0 {
				pairs = append(pairs, JoinPair{A: a, B: b, Score: row[b]})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Score != pairs[j].Score {
			return pairs[i].Score > pairs[j].Score
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	return pairs[:k]
}

// shardedJoin runs a join the way a shard fleet does: shard i enumerates
// range i of a partition of the fingerprints, the candidate sets are
// unioned, each pair is scored by the shard owning its a side, and
// FinishJoin ranks the merged scores.
func shardedJoin(t *testing.T, g *graph.Graph, shards []*Index, k int, threshold float64, maxCand int) []JoinPair {
	t.Helper()
	ctx := context.Background()
	merged := make(map[uint64]struct{})
	for i, sx := range shards {
		fpLo, fpHi := par.Range(sx.Walks(), len(shards), i)
		keys, err := sx.JoinCandidates(ctx, g, threshold, fpLo, fpHi, maxCand, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			merged[key] = struct{}{}
		}
	}
	perShard := make([][]uint64, len(shards))
	for key := range merged {
		for i, sx := range shards {
			if sx.Owns(int(key >> 32)) {
				perShard[i] = append(perShard[i], key)
				break
			}
		}
	}
	var pairs []JoinPair
	for i, sx := range shards {
		scored, err := sx.ScorePairs(ctx, g, perShard[i], 2)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, scored...)
	}
	return FinishJoin(pairs, k, threshold)
}

// TestJoinMatchesBruteForce: top-k joins across thresholds and k sizes
// equal the brute-force oracle exactly, scores included — from the full
// index's Join and from a fleet's scatter over a one-shard and a
// three-shard plan.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(70, 0)
	b.EnsureVertices(70)
	for i := 0; i < 260; i++ {
		b.AddEdge(rng.Intn(70), rng.Intn(70))
	}
	g := b.MustBuild()
	opt := Options{Walks: 120, Seed: 9}
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var oneShard, threeShards []*Index
	for _, rg := range indexRanges(g.NumVertices()) {
		switch {
		case rg.threeShards(g.NumVertices()):
			threeShards = append(threeShards, rg.mustBuild(t, g, opt))
		case rg.shard:
			oneShard = append(oneShard, rg.mustBuild(t, g, opt))
		}
	}
	for _, plan := range []struct {
		name   string
		shards []*Index // nil: the full index's Join
	}{{"full", nil}, {"one-shard", oneShard}, {"three-shard", threeShards}} {
		t.Run(plan.name, func(t *testing.T) {
			for _, threshold := range []float64{0, 0.03, 0.1, 0.3, 0.7} {
				for _, k := range []int{1, 5, 40, 100000} {
					want := bruteJoin(t, ix, k, threshold)
					var got []JoinPair
					if plan.shards == nil {
						if got, err = ix.Join(context.Background(), k, threshold, 1<<20, 3); err != nil {
							t.Fatalf("Join(k=%d, theta=%g): %v", k, threshold, err)
						}
					} else {
						got = shardedJoin(t, g, plan.shards, k, threshold, 1<<20)
					}
					if len(got) != len(want) {
						t.Fatalf("Join(k=%d, theta=%g): %d pairs, want %d", k, threshold, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("Join(k=%d, theta=%g) pair %d: %+v, want %+v", k, threshold, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestJoinDeterministicAcrossWorkers: the join result is bit-identical for
// every worker count.
func TestJoinDeterministicAcrossWorkers(t *testing.T) {
	g := gen.CoauthorGraph(120, 4, 7)
	ix, err := Build(g, Options{Walks: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ix.Join(context.Background(), 25, 0.05, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := ix.Join(context.Background(), 25, 0.05, 1<<20, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d pairs vs %d serial", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d pair %d: %+v vs serial %+v", workers, i, par[i], serial[i])
			}
		}
	}
}

// TestJoinThresholdAboveC: no pair can score above C, so a threshold past
// it returns empty without scanning.
func TestJoinThresholdAboveC(t *testing.T) {
	g := gen.WebGraph(50, 5, 3)
	ix, err := Build(g, Options{C: 0.6, Walks: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Join(context.Background(), 10, 0.9, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Join above C returned %d pairs, want 0", len(got))
	}
}

// TestJoinTooDense: a tiny candidate cap trips ErrTooDense instead of
// unbounded memory growth — for the full join and for every shard's
// candidate enumeration alike.
func TestJoinTooDense(t *testing.T) {
	g := gen.WebGraph(200, 8, 5)
	opt := Options{Walks: 50, Seed: 4}
	for _, rg := range indexRanges(g.NumVertices()) {
		t.Run(rg.name, func(t *testing.T) {
			ix := rg.mustBuild(t, g, opt)
			if !rg.shard {
				if _, err := ix.Join(context.Background(), 10, 0, 5, 2); !errors.Is(err, ErrTooDense) {
					t.Fatalf("Join with cap 5 returned %v, want ErrTooDense", err)
				}
				return
			}
			if _, err := ix.JoinCandidates(context.Background(), g, 0, 0, opt.Walks, 5, 2); !errors.Is(err, ErrTooDense) {
				t.Fatalf("JoinCandidates with cap 5 returned %v, want ErrTooDense", err)
			}
		})
	}
}

// TestJoinValidation: bad arguments are rejected up front, bad
// fingerprint ranges by every shard, and a shard that does not own every
// vertex refuses the full join.
func TestJoinValidation(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	opt := Options{Walks: 10, Seed: 1}
	for _, rg := range indexRanges(g.NumVertices()) {
		t.Run(rg.name, func(t *testing.T) {
			ix := rg.mustBuild(t, g, opt)
			if !rg.shard {
				for _, bad := range []struct {
					k    int
					th   float64
					cap_ int
				}{
					{0, 0.1, 100},
					{5, -0.1, 100},
					{5, 1.5, 100},
					{5, 0.1, 0},
				} {
					if _, err := ix.Join(context.Background(), bad.k, bad.th, bad.cap_, 1); err == nil {
						t.Errorf("Join(%d, %g, cap %d) succeeded, want error", bad.k, bad.th, bad.cap_)
					}
				}
				return
			}
			for _, r := range [][2]int{{-1, 4}, {5, 4}, {0, opt.Walks + 1}} {
				if _, err := ix.JoinCandidates(context.Background(), g, 0.1, r[0], r[1], 100, 1); err == nil {
					t.Errorf("fp range [%d,%d): expected error", r[0], r[1])
				}
			}
			if rg.threeShards(g.NumVertices()) {
				if _, err := ix.Join(context.Background(), 5, 0.1, 100, 1); err == nil {
					t.Error("Join on a shard of a sub-range succeeded, want error")
				}
			}
		})
	}
}

// BenchmarkJoin times one top-100 similarity join at threshold 0.1 on the
// hot-edits web shape (n=2000, d=11, R=200), over the dense store and over
// the same index mapped from a format-v2 file.
func BenchmarkJoin(b *testing.B) {
	si := planShapeIndexes()["hot-edits-web"]
	var buf bytes.Buffer
	if err := si.ix.SaveFormat(&buf, FormatV2); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "index.srwk")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	mapped, err := LoadMapped(path, MappedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer mapped.Close()
	for _, store := range []struct {
		name string
		ix   *Index
	}{{"dense", si.ix}, {"mapped", mapped}} {
		b.Run(store.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := store.ix.Join(context.Background(), 100, 0.1, 1<<22, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
