package walkindex

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// The two shapes the planner is judged on, at the serving benchmark's
// R = 200: the hot-edits web graph, where reverse trees are tiny, and a
// hub-heavy R-MAT graph, where walks converge on a few hubs with long
// out-lists and the sweep is cheaper than the probe.
func hotEditsGraph() *graph.Graph { return gen.WebGraph(2000, 11, 1) }

func skewedRMATGraph() *graph.Graph {
	return gen.RMAT(4096, 16*4096, gen.RMATParams{A: 0.65, B: 0.15, C: 0.15, D: 0.05}, 1)
}

var planShapes = []struct {
	name  string
	graph func() *graph.Graph
	probe bool // the planner's expected decision
}{
	{"hot-edits-web", hotEditsGraph, true},
	{"skewed-rmat", skewedRMATGraph, false},
}

// planShapeIndexes builds each shape's graph and index once per test
// binary; benchmarks share them.
var planShapeIndexes = sync.OnceValue(func() map[string]shapeIndex {
	out := map[string]shapeIndex{}
	for _, s := range planShapes {
		g := s.graph()
		ix, err := Build(g, Options{Walks: 200, Seed: 1})
		if err != nil {
			panic(err)
		}
		out[s.name] = shapeIndex{g, ix}
	}
	return out
})

type shapeIndex struct {
	g  *graph.Graph
	ix *Index
}

// plannedProbe reports the planner's decision for q: true for the probe.
func plannedProbe(ix *Index, g *graph.Graph, q int) bool {
	ok, err := ix.newProber(g).run(context.Background(), q, make([]float64, ix.N()), true)
	if err != nil {
		panic(err)
	}
	return ok
}

// TestPlannerDecision: the planner's choice is a count of edges examined,
// not a timing, so it is deterministic. On the hot-edits web shape it
// probes every source. On the skewed R-MAT shape it sweeps every source
// with an in-edge; a source without one has a walk that dies at once, so
// its probe examines nothing and the planner keeps it.
func TestPlannerDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two R=200 indexes")
	}
	for _, s := range planShapes {
		si := planShapeIndexes()[s.name]
		probed, swept := 0, 0
		for q := 0; q < si.g.NumVertices(); q += 7 {
			got := plannedProbe(si.ix, si.g, q)
			if want := s.probe || si.g.InDegree(q) == 0; got != want {
				t.Errorf("%s: q=%d (in-degree %d): planned probe=%v, want %v", s.name, q, si.g.InDegree(q), got, want)
			}
			if got != plannedProbe(si.ix, si.g, q) {
				t.Fatalf("%s: q=%d: the planner's decision is not repeatable", s.name, q)
			}
			if got {
				probed++
			} else {
				swept++
			}
		}
		t.Logf("%s: %d sources probed, %d swept", s.name, probed, swept)
	}
}

// countingCtx counts Err polls and reports cancellation once it has been
// polled more than cancelAfter times (never, when cancelAfter < 0).
type countingCtx struct {
	context.Context
	mu          sync.Mutex
	polls       int
	cancelAfter int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.cancelAfter >= 0 && c.polls > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

// TestProbePollsCancellation: the probe polls its context before every
// fingerprint, so an abandoned query stops within one fingerprint's
// reverse trees, and a cancelled probe returns the context's error.
func TestProbePollsCancellation(t *testing.T) {
	g := gen.WebGraph(300, 6, 17)
	ix, err := Build(g, Options{Walks: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countingCtx{Context: context.Background(), cancelAfter: -1}
	if _, err := ix.SingleSourceFrom(ctx, g, 5, nil, PlanProbe); err != nil {
		t.Fatal(err)
	}
	if ctx.polls < ix.Walks() {
		t.Errorf("the probe polled its context %d times over %d fingerprints, want at least one per fingerprint", ctx.polls, ix.Walks())
	}

	for _, plan := range []Plan{PlanProbe, PlanAuto} {
		// Cancelled up front, and cancelled between two fingerprints.
		for _, after := range []int{0, ix.Walks() / 2} {
			ctx := &countingCtx{Context: context.Background(), cancelAfter: after}
			if _, err := ix.SingleSourceFrom(ctx, g, 5, nil, plan); !errors.Is(err, context.Canceled) {
				t.Errorf("plan %d, cancelled after %d polls: err = %v, want context.Canceled", plan, after, err)
			}
			ctx = &countingCtx{Context: context.Background(), cancelAfter: after}
			if _, err := ix.MultiSourceFrom(ctx, g, []int{1, 2, 3}, 2, plan); !errors.Is(err, context.Canceled) {
				t.Errorf("plan %d, batch cancelled after %d polls: err = %v, want context.Canceled", plan, after, err)
			}
		}
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := ix.SingleSourceFrom(expired, g, 0, nil, PlanProbe); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("probe on an expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// benchSources picks every 7th vertex that has an in-edge: a source
// without one has a walk that dies at once and costs either path nothing.
func benchSources(g *graph.Graph) []int {
	var out []int
	for q := 0; q < g.NumVertices(); q += 7 {
		if g.InDegree(q) > 0 {
			out = append(out, q)
		}
	}
	return out
}

func benchSingleSource(b *testing.B, plan Plan) {
	for _, s := range planShapes {
		b.Run(s.name, func(b *testing.B) {
			si := planShapeIndexes()[s.name]
			sources := benchSources(si.g)
			dst := make([]float64, si.ix.N())
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := si.ix.SingleSourceFrom(context.Background(), si.g, sources[i%len(sources)], dst, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleSourceSweep, -Probe and -Planned time one single-source
// row per path on the hot-edits web shape and on skewed R-MAT, where the
// probe is respectively far cheaper and dearer than the sweep; Planned
// should track the cheaper of the two on each.
func BenchmarkSingleSourceSweep(b *testing.B)   { benchSingleSource(b, PlanSweep) }
func BenchmarkSingleSourceProbe(b *testing.B)   { benchSingleSource(b, PlanProbe) }
func BenchmarkSingleSourcePlanned(b *testing.B) { benchSingleSource(b, PlanAuto) }

// BenchmarkMultiSource times a batch of 8 sources, the serving
// benchmark's batch size: one shared sweep against one planned probe per
// source.
func BenchmarkMultiSource(b *testing.B) {
	for _, s := range planShapes {
		for _, plan := range []struct {
			name string
			plan Plan
		}{{"sweep", PlanSweep}, {"planned", PlanAuto}} {
			b.Run(s.name+"/"+plan.name, func(b *testing.B) {
				si := planShapeIndexes()[s.name]
				sources := benchSources(si.g)
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					lo := (i * 8) % (len(sources) - 8)
					if _, err := si.ix.MultiSourceFrom(context.Background(), si.g, sources[lo:lo+8], 1, plan.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
