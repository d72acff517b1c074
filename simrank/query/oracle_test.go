package query

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/graph/gio"
	"oipsr/internal/walkindex"
)

// The differential oracle for every single-source query path. The
// reference is the walk-index sweep over the stored walks; every public
// entry point that computes score rows — SingleSourceInto, TopK,
// MultiSource and TopKBatch — must reproduce it bit for bit, whether the
// planner picks the reverse probe or the sweep, and with either forced.

// oraclePlans are the paths each query runs through: the planner's pick,
// then the probe and the sweep forced.
var oraclePlans = []struct {
	name string
	plan walkindex.Plan
}{
	{"planned", walkindex.PlanAuto},
	{"probe", walkindex.PlanProbe},
	{"sweep", walkindex.PlanSweep},
}

// loadGolden reads one graph of the conformance corpus. Its first line
// may carry an "# n=N" directive for trailing isolated vertices.
func loadGolden(t *testing.T, name string) *graph.Graph {
	t.Helper()
	path := filepath.Join("..", "testdata", "conformance", name+".edges")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, _ := br.Peek(64)
	n := 0
	if line, _, ok := strings.Cut(string(head), "\n"); ok {
		fmt.Sscanf(line, "# n=%d", &n)
	}
	g, err := gio.ReadEdgeListN(br, n)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

// oracleGraphs is the table: the golden corpus, every seeded generator,
// hub-heavy R-MAT (where the planner sweeps) and a forest whose walks die
// early. Citation graphs are DAGs, so their walks die too, and most
// generators leave vertices with no in-edges.
func oracleGraphs(t *testing.T) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"web":         gen.WebGraph(160, 6, 3),
		"citation":    gen.CitationGraph(160, 5, 3),
		"coauthor":    gen.CoauthorGraph(120, 4, 3),
		"erdos-renyi": gen.ErdosRenyi(120, 360, 3),
		"rmat":        gen.RMAT(128, 512, gen.DefaultRMAT, 3),
		"skewed-rmat": gen.RMAT(128, 8*128, gen.RMATParams{A: 0.65, B: 0.15, C: 0.15, D: 0.05}, 3),
		"dead-walks":  graph.MustFromEdges(8, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {5, 6}}),
	}
	for _, name := range []string{"selfloop", "disconnected", "star", "dag", "cycle", "overlap"} {
		gs["golden/"+name] = loadGolden(t, name)
	}
	return gs
}

// graphSnapshot copies both adjacency directions, to prove a query left
// the graph untouched.
func graphSnapshot(g *graph.Graph) [][]int {
	out := make([][]int, 0, 2*g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		out = append(out, slices.Clone(g.In(v)), slices.Clone(g.Out(v)))
	}
	return out
}

// randomEdits mixes removals of existing edges, which can strip a vertex
// of its last in-edge and kill the walks through it, with random adds.
func randomEdits(rng *rand.Rand, g *graph.Graph, count int) []graph.Edit {
	n := g.NumVertices()
	var edits []graph.Edit
	for len(edits) < count {
		v := rng.Intn(n)
		if in := g.In(v); len(in) > 0 && rng.Intn(2) == 0 {
			edits = append(edits, graph.Edit{Op: graph.EditRemove, U: in[rng.Intn(len(in))], V: v})
			continue
		}
		edits = append(edits, graph.Edit{Op: graph.EditAdd, U: rng.Intn(n), V: v})
	}
	return edits
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d, want %d", len(a), len(b))
	}
	for v := range b {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return fmt.Errorf("vertex %d scores %v, the sweep %v", v, a[v], b[v])
		}
	}
	return nil
}

func sameRanking(a, b []Ranked) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results, want %d", len(a), len(b))
	}
	for i := range b {
		if a[i].Vertex != b[i].Vertex || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return fmt.Errorf("rank %d is %+v, want %+v", i, a[i], b[i])
		}
	}
	return nil
}

// oracleReaders is how many goroutines query the index at once, so the
// race detector sees the probe's per-query scratch under concurrency.
const oracleReaders = 3

// checkAgainstSweep queries every source of ix through every public row
// path and plan, from concurrent readers, and compares with the sweep.
func checkAgainstSweep(t *testing.T, ix *Index) {
	t.Helper()
	ctx := context.Background()
	g, n := ix.Graph(), ix.N()
	k := min(5, n-1)
	snap := graphSnapshot(g)
	want := make([][]float64, n)
	wantTop := make([][]Ranked, n)
	for q := range want {
		row, err := ix.wi.SingleSource(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = row
		if wantTop[q], err = RankScores(ctx, g, ix.C(), ix.Horizon(), row, q, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Batches in shuffled order with a duplicate, as clients send them.
	batch := append(rand.New(rand.NewSource(int64(n))).Perm(n), 0)
	batchCopy := slices.Clone(batch)

	for _, p := range oraclePlans {
		ix.plan = p.plan
		var wg sync.WaitGroup
		errs := make(chan error, oracleReaders+2)
		for r := 0; r < oracleReaders; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				// A pooled buffer is dirty: it holds the previous query's
				// row, here poisoned further with NaNs.
				buf := make([]float64, n)
				for q := r; q < n; q += oracleReaders {
					for v := range buf {
						buf[v] = math.NaN()
					}
					got, err := ix.SingleSourceInto(ctx, q, buf)
					if err == nil {
						err = sameBits(got, want[q])
					}
					if err != nil {
						errs <- fmt.Errorf("%s SingleSourceInto(%d): %v", p.name, q, err)
						return
					}
					top, err := ix.TopK(ctx, q, k, nil)
					if err == nil {
						err = sameRanking(top, wantTop[q])
					}
					if err != nil {
						errs <- fmt.Errorf("%s TopK(%d): %v", p.name, q, err)
						return
					}
				}
			}(r)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := ix.MultiSource(ctx, batch, 2)
			if err != nil {
				errs <- fmt.Errorf("%s MultiSource: %v", p.name, err)
				return
			}
			for i, q := range batch {
				if err := sameBits(rows[i], want[q]); err != nil {
					errs <- fmt.Errorf("%s MultiSource row %d (source %d): %v", p.name, i, q, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			tops, err := ix.TopKBatch(ctx, batch, k, nil, 2)
			if err != nil {
				errs <- fmt.Errorf("%s TopKBatch: %v", p.name, err)
				return
			}
			for i, q := range batch {
				if err := sameRanking(tops[i], wantTop[q]); err != nil {
					errs <- fmt.Errorf("%s TopKBatch item %d (source %d): %v", p.name, i, q, err)
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	ix.plan = walkindex.PlanAuto
	if !slices.Equal(batch, batchCopy) {
		t.Errorf("a batch query reordered or rewrote its sources")
	}
	if after := graphSnapshot(ix.Graph()); !slices.EqualFunc(after, snap, slices.Equal) {
		t.Errorf("a query mutated the graph")
	}
}

// TestProbeOracle: on fresh builds and after each of a chain of random
// edit batches (the index repaired with ApplyEdits, the probe reading the
// edited graph), every row every query path serves equals the sweep's.
func TestProbeOracle(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		t.Run(name, func(t *testing.T) {
			ix, err := BuildIndex(g, Options{Walks: 32, Seed: 7, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstSweep(t, ix)
			rng := rand.New(rand.NewSource(11))
			for step := 1; step <= 2; step++ {
				edits := randomEdits(rng, ix.Graph(), max(2, ix.N()/20))
				if _, err := ix.ApplyEdits(edits, 1); err != nil {
					t.Fatal(err)
				}
				checkAgainstSweep(t, ix)
				if t.Failed() {
					t.Fatalf("after edit batch %d", step)
				}
			}
		})
	}
}
