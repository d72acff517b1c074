package walkindex

import (
	"context"
	"slices"

	"oipsr/graph"
	"oipsr/internal/par"
)

// Reverse-probe single-source (ProbeSim's idea applied to the stored
// coupling).
//
// The stored walks are a pure function of the graph: edgeChoice fixes the
// in-edge every walker standing on x takes at step t of fingerprint fp. So
// the start vertices whose fingerprint-fp walk stands on x after step t+1
// form a reverse tree under x, and the tree can be grown from the graph
// alone: a vertex z is a child of y at step s exactly when z is an
// out-neighbor of y and In(z)[edgeChoice(fp, s, z)] == y. Coupled walkers
// never separate once they meet, so the vertices whose walk first meets
// q's at step t are the tree of q's position qp[t], minus the branch
// through q's previous position (qp[t-1], or q itself at t = 0). Those
// sets are disjoint across t, so every start vertex receives at most one
// weight per fingerprint.
//
// The probe adds pow[t] to each such vertex in ascending fingerprint order
// and scales by the same 1/R, which is exactly the sequence of float
// operations SingleSource's sweep performs for that vertex: the two paths
// agree bit for bit whenever the index was built (or repaired) on g. The
// probe reads no stored walk at all; its cost is the out-edges of the
// reverse trees, where the sweep's is the n·R·K stored entries.
//
// That cost depends on the graph. Where walks converge on hubs the reverse
// trees are large and every hub level scans a long out-list, and the
// sweep wins. The planner (Plan == PlanAuto) therefore probes the first
// few fingerprints under a budget of their pro-rata share of a sweep, and
// answers from the sweep instead if the sample overruns it. The decision
// is a pure function of the graph, the index and q, and either path gives
// the same bits.

// Plan selects how SingleSourceFrom and MultiSourceFrom answer.
type Plan uint8

const (
	// PlanAuto lets the planner choose per source.
	PlanAuto Plan = iota
	// PlanProbe always probes the graph.
	PlanProbe
	// PlanSweep always sweeps the stored walks.
	PlanSweep
)

// probeEdgeCost is how many stored entries the sweep scans in the time
// the probe examines one out-edge (a hash, an in-list lookup and a random
// read). On hub-heavy RMAT graphs, where the choice is close, an edge
// costs 14-17 ns and an entry 1.3-2.0 ns on a 2-CPU x86-64 host. It
// converts the sweep's n·R·K entries into the planner's edge budget.
const probeEdgeCost = 10

// planSampleDiv sets the planner's sample to the first R/planSampleDiv
// fingerprints (at least one). Each sample fingerprint may spend its share
// of a sweep, so a rejected sample wastes at most 1/planSampleDiv of one.
const planSampleDiv = 16

// graphCheckSamples is how many evenly spaced start vertices
// MatchesGraph regenerates.
const graphCheckSamples = 16

// MatchesGraph reports whether g regenerates the stored walks of a sample
// of owned start vertices bit for bit: a cheap guard against attaching a
// graph the index was not built on, which the probe (or, on a shard, the
// regeneration of foreign sources' walks) would otherwise answer from
// without notice. It costs graphCheckSamples·R·K steps.
func (ix *Index) MatchesGraph(g *graph.Graph) bool {
	if g.NumVertices() != ix.n {
		return false
	}
	hseed := splitmix64(uint64(ix.seed))
	walk := make([]int32, ix.k)
	width := ix.hi - ix.lo
	for v := ix.lo; v < ix.hi; v += max(1, width/graphCheckSamples) {
		row := ix.store.Row(v - ix.lo)
		for fp := 0; fp < ix.r; fp++ {
			walkFrom(g, hseed, fp, 0, v, walk)
			if !slices.Equal(walk, row[fp*ix.k:(fp+1)*ix.k]) {
				return false
			}
		}
	}
	return true
}

// prober is the per-query scratch of a reverse probe. It is not safe for
// concurrent use; MultiSourceFrom gives every worker its own.
type prober struct {
	ix    *Index
	g     *graph.Graph
	hseed uint64
	walk  []int32 // q's walk in the current fingerprint
	cur   []int32 // reverse-tree frontier at the current step
	next  []int32
	hits  []probeHit // the current fingerprint's first meetings
	edges int64      // out-edges examined so far
}

// probeHit records that start vertex v first meets q at path index t.
type probeHit struct {
	v int32
	t int32
}

func (ix *Index) newProber(g *graph.Graph) *prober {
	return &prober{
		ix:    ix,
		g:     g,
		hseed: splitmix64(uint64(ix.seed)),
		walk:  make([]int32, ix.k),
	}
}

// fingerprint collects the start vertices whose fingerprint-fp walk first
// meets q's into p.hits. It gives up, returning false, as soon as the
// edges examined exceed limit (limit < 0 means no limit); p.hits is then
// incomplete.
func (p *prober) fingerprint(q, fp int, limit int64) bool {
	g := p.g
	walkFrom(g, p.hseed, fp, 0, q, p.walk)
	p.hits = p.hits[:0]
	prev := int32(q)
	for t, x := range p.walk {
		if x < 0 {
			break // q's walker died; it meets no one from here on
		}
		// The tree under x at step t, minus the branch through prev:
		// walkers there met q's at an earlier step.
		p.cur = append(p.cur[:0], x)
		for s := t; s >= 0 && len(p.cur) > 0; s-- {
			p.next = p.next[:0]
			for _, y := range p.cur {
				out := g.Out(int(y))
				p.edges += int64(len(out))
				for _, z := range out {
					if s == t && int32(z) == prev {
						continue
					}
					in := g.In(z) // non-empty: it holds y
					if in[edgeChoice(p.hseed, fp, s, z, len(in))] == int(y) {
						p.next = append(p.next, int32(z))
					}
				}
			}
			p.cur, p.next = p.next, p.cur
			if limit >= 0 && p.edges > limit {
				return false
			}
		}
		for _, v := range p.cur {
			p.hits = append(p.hits, probeHit{v: v, t: int32(t)})
		}
		prev = x
	}
	return true
}

// run answers SingleSource(q) into dst by probing. With planned set, the
// sample fingerprints run under the planner's budget and run returns
// false as soon as it is exceeded; dst's contents are then unspecified.
// Cancellation is polled before every fingerprint.
func (p *prober) run(ctx context.Context, q int, dst []float64, planned bool) (bool, error) {
	ix := p.ix
	clear(dst)
	check := par.NewCancelChecker(ctx, 1)
	sample, limit := 0, int64(-1)
	if planned {
		// The sample's pro-rata share of a sweep (n·K entries per
		// fingerprint), in edges.
		sample = max(1, ix.r/planSampleDiv)
		limit = p.edges + int64(sample)*int64(ix.n)*int64(ix.k)/probeEdgeCost
	}
	for fp := 0; fp < ix.r; fp++ {
		if err := check.Stop(); err != nil {
			return false, err
		}
		if fp == sample {
			limit = -1
		}
		if !p.fingerprint(q, fp, limit) {
			return false, nil
		}
		for _, h := range p.hits {
			dst[h.v] += ix.pow[h.t]
		}
	}
	inv := 1 / float64(ix.r)
	for v := range dst {
		dst[v] *= inv
	}
	dst[q] = 1
	return true, nil
}

// SingleSourceFrom is SingleSource answered from g, the graph the index
// was built on or last repaired to: by a reverse probe, by the sweep, or
// (PlanAuto) by whichever the planner picks. Every choice returns the
// sweep's scores bit for bit. A nil g means the sweep. dst, ctx and the
// result follow SingleSource.
func (ix *Index) SingleSourceFrom(ctx context.Context, g *graph.Graph, q int, dst []float64, plan Plan) ([]float64, error) {
	if !ix.full() {
		return nil, errPartial
	}
	if g == nil || plan == PlanSweep {
		return ix.SingleSource(ctx, q, dst)
	}
	if dst == nil {
		dst = make([]float64, ix.n)
	}
	ok, err := ix.newProber(g).run(ctx, q, dst, plan == PlanAuto)
	if err != nil {
		return nil, err
	}
	if !ok {
		return ix.SingleSource(ctx, q, dst)
	}
	return dst, nil
}

// MultiSourceFrom is MultiSource answered from g: one planned probe per
// source, in parallel over sources (1 worker = serial, <1 = all CPUs),
// with the sources the planner declines answered together by one shared
// MultiSource sweep. A nil g or PlanSweep means the shared sweep for all.
// Rows are bit-identical to MultiSource's, and so to independent
// SingleSource calls. Cancelling ctx returns the context's error and nil
// rows.
func (ix *Index) MultiSourceFrom(ctx context.Context, g *graph.Graph, sources []int, workers int, plan Plan) ([][]float64, error) {
	if !ix.full() {
		return nil, errPartial
	}
	if g == nil || plan == PlanSweep {
		return ix.MultiSource(ctx, nil, sources, workers)
	}
	out := make([][]float64, len(sources))
	probed := make([]bool, len(sources))
	parts := par.ResolveMax(workers, len(sources))
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(sources), parts, w)
		p := ix.newProber(g)
		for i := lo; i < hi; i++ {
			out[i] = make([]float64, ix.n)
			ok, err := p.run(ctx, sources[i], out[i], plan == PlanAuto)
			if err != nil {
				return // the ctx check below reports it
			}
			probed[i] = ok
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rest []int // batch ordinals the planner sent to the sweep
	for i, ok := range probed {
		if !ok {
			rest = append(rest, i)
		}
	}
	if len(rest) == 0 {
		return out, nil
	}
	restSources := make([]int, len(rest))
	for j, i := range rest {
		restSources[j] = sources[i]
	}
	rows, err := ix.MultiSource(ctx, nil, restSources, workers)
	if err != nil {
		return nil, err
	}
	for j, i := range rest {
		out[i] = rows[j]
	}
	return out, nil
}
