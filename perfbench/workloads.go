package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oipsr/graph/gen"
	"oipsr/internal/simrankd"
	"oipsr/internal/walkindex"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// The berkstan*-shaped web graph of the all-pairs experiments: n=2000,
// average degree 11, boilerplate link overlap.
const (
	webN   = 2000
	webDeg = 11
)

// datasetSeed generates the graphs, the hot-edits walk index and the
// popularity order of the vertices. They are the dataset, fixed like a
// real one would be; --seed drives the traffic over it: arrivals,
// sources, the mix and the edits.
const datasetSeed = 1

// hotWalks is the walk count R per vertex of the hot-edits index.
const hotWalks = 200

// Replays of the traced hot-edits pass that reach layers it does not
// serve through: the streaming builder's byte budget, well below the
// dense payload so the build really streams in slices, and the number of
// vertex-range shards.
const (
	streamBudget = 4 << 20
	replayShards = 2
)

// readMix is the hot-edits read mix.
var readMix = []share{{famSS, 4}, {famTopK, 2}, {famRerank, 1}, {famBatch, 1}}

// zipfS is the exponent of read-source popularity. It is an assumption,
// not a measurement of SimRank traffic, which has no public trace: web
// request traces fit Zipf-like laws with exponents a little below 1
// (Breslau et al., "Web Caching and Zipf-like Distributions: Evidence and
// Implications", INFOCOM 1999), and 0.8 lies in their range. README.md
// gives the cache hit ratio at other exponents (--zipf-s).
const zipfS = 0.8

var hotEdits = &servingWorkload{
	Name:    "hot-edits",
	Spec:    scheduleSpec{N: webN, Mix: readMix, ZipfS: zipfS, BatchSize: 8, EditRate: 1, EditBatch: 10},
	Nominal: 100, Ladder: geometricLadder(6, 1.1, 12),
	Limit:  1000 * time.Millisecond,
	Setups: 60,
	Setup:  setupHotEdits,
	Verify: verifyHotEdits,
}

// setupHotEdits builds the dense index, prepares it for edits, and serves
// it from one node with the default response cache.
func setupHotEdits(w *servingWorkload) (*fleet, error) {
	f := &fleet{Parts: make(map[string]float64)}
	f.G0 = gen.WebGraph(w.Spec.N, webDeg, datasetSeed)
	f.Opt = query.Options{Walks: hotWalks, Seed: datasetSeed}
	err := f.timed("query.build_s", func() (err error) {
		f.Idx, err = query.BuildIndex(f.G0, f.Opt)
		return err
	})
	if err != nil {
		return f, err
	}
	if err := f.timed("query.prepare_updates_s", func() error { return f.Idx.PrepareUpdates(0) }); err != nil {
		return f, err
	}
	f.IndexBytes = f.Idx.Bytes()
	srv := simrankd.NewServer(f.Idx, simrankd.Config{RequestTimeout: w.Limit})
	f.Front = srv
	f.Base, err = f.listen(srv)
	return f, err
}

// verifyHotEdits replays the acknowledged edit batches, in order, on a
// twin index built from the starting graph. Before each batch it checks
// the sampled reads served at that generation against the twin; after
// the last it requires the served index to equal a fresh build on the
// final graph. Reads that overlapped an edit have no known generation
// and are not checked.
func verifyHotEdits(ps *pass) error {
	ctx := context.Background()
	edits, err := appliedEdits(ps.outs)
	if err != nil {
		return err
	}
	overlapsEdit := func(o *outcome) bool {
		for _, e := range edits {
			if o.Sent < e.Done && e.Sent < o.Done {
				return true
			}
		}
		return false
	}
	genOf := func(o *outcome) int {
		if overlapsEdit(o) {
			return -1
		}
		return sort.Search(len(edits), func(i int) bool { return edits[i].Done > o.Sent })
	}
	miss := knownMisses(ps.outs, genOf)
	checks := ps.checkSet(miss, genOf)
	sort.SliceStable(checks, func(i, j int) bool { return genOf(checks[i]) < genOf(checks[j]) })

	twin, err := query.BuildIndex(ps.f.G0, ps.f.Opt)
	if err != nil {
		return err
	}
	next := 0
	for gi := 0; ; gi++ {
		for ; next < len(checks) && genOf(checks[next]) == gi; next++ {
			o := checks[next]
			lt, err := checkRead(ctx, twin, o.P, o.Body, o.Degraded)
			if err != nil {
				ps.wrong(o, err)
				continue
			}
			ps.recordReplay(o, lt, miss[o.P.ID])
		}
		if gi == len(edits) {
			break
		}
		e := edits[gi]
		t := time.Now()
		if _, _, err := twin.Graph().ApplyEdits(e.P.Edits); err != nil {
			return fmt.Errorf("edit batch %d: %w", e.P.ID, err)
		}
		graphD := time.Since(t)
		t = time.Now()
		st, err := twin.ApplyEdits(e.P.Edits, 0)
		queryD := time.Since(t)
		if err != nil {
			return fmt.Errorf("edit batch %d: %w", e.P.ID, err)
		}
		var ack edgesBody
		if err := json.Unmarshal(e.Body, &ack); err != nil {
			ps.wrong(e, err)
		} else if ack.DirtyVertices != st.DirtyVertices || ack.WalksRepaired != st.WalksRepaired ||
			ack.Added != st.EdgesAdded || ack.Removed != st.EdgesRemoved || ack.Generation != st.Generation {
			ps.wrong(e, fmt.Errorf("acknowledged %+v, twin repair %+v", ack, st))
		}
		if ps.tr != nil {
			qs := ps.tr.replay(e.Span, "query.apply_edits", queryD)
			ps.tr.replay(qs, "graph.apply_edits", graphD)
			ps.lay.add("query.apply_edits_ms", ms(queryD))
			ps.lay.add("graph.apply_edits_ms", ms(graphD))
			ps.lay.add("walkindex.repair_ms", ms(queryD-graphD))
			ps.lay.count("walkindex.walks_repaired", float64(st.WalksRepaired))
			ps.lay.count("walkindex.dirty_vertices", float64(st.DirtyVertices))
		}
	}

	fresh, err := query.BuildIndex(ps.f.Idx.Graph(), ps.f.Opt)
	if err != nil {
		return err
	}
	if !ps.f.Idx.Equal(fresh) {
		return fmt.Errorf("after %d edit batches the served index differs from a fresh build on the edited graph", len(edits))
	}
	if !twin.Equal(ps.f.Idx) {
		return fmt.Errorf("after %d edit batches the served index differs from the twin that replayed them", len(edits))
	}

	if ps.tr != nil {
		var stalled, clear []float64
		for _, o := range reads(ps.outs, 0) {
			if !o.ok() {
				continue
			}
			if overlapsEdit(o) {
				stalled = append(stalled, o.latencyMs())
			} else {
				clear = append(clear, o.latencyMs())
			}
		}
		if len(stalled) > 0 {
			ps.lay.set("simrankd.read_stall_ms", median(stalled)-median(clear))
		}

		if err := replayShardLegs(ctx, ps, checks); err != nil {
			return err
		}
		if err := replayMappedStore(ctx, ps, checks); err != nil {
			return err
		}
	}
	return nil
}

// replayShardLegs times the shard layer, which the benchmark serves
// through nowhere: vertex-range shards of the starting graph answer the
// checked reads' sources with Shard.PartialScores, as a router's scatter
// legs would ask.
func replayShardLegs(ctx context.Context, ps *pass, checks []*outcome) error {
	ranges, err := shard.Plan(ps.f.G0.NumVertices(), replayShards)
	if err != nil {
		return fmt.Errorf("planning shards: %w", err)
	}
	for _, rg := range ranges {
		sh, err := shard.Build(ps.f.G0, ps.f.Opt, rg.Lo, rg.Hi)
		if err != nil {
			return fmt.Errorf("building shard [%d,%d): %w", rg.Lo, rg.Hi, err)
		}
		for _, o := range checks {
			t := time.Now()
			if _, err := sh.PartialScores(ctx, o.P.Sources, 0); err != nil {
				return fmt.Errorf("replaying a shard leg: %w", err)
			}
			ps.lay.add("shard.partial_scores_ms", ms(time.Since(t)))
		}
	}
	return nil
}

// replayMappedStore times the format-v2 walk-index path, which the
// benchmark serves through nowhere. The starting graph's index is
// stream-built to a file and opened twice: decoded into memory
// (query.LoadFile) and demand-paged (query.LoadFileMapped, with the
// default block cache and prefetch). Both sweep the checked reads' first
// sources. Gates: the decoded load equals a fresh BuildIndex of the
// starting graph, and the mapped sweeps equal the decoded ones bit for
// bit.
func replayMappedStore(ctx context.Context, ps *pass, checks []*outcome) error {
	path := filepath.Join(ps.dir, "hot-edits-v2.idx")
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating the v2 file: %w", err)
	}
	defer os.Remove(path)
	t := time.Now()
	_, err = walkindex.BuildStreaming(ps.f.G0, walkindex.Options{Walks: ps.f.Opt.Walks, Seed: ps.f.Opt.Seed}, out, streamBudget)
	ps.lay.set("walkindex.stream_build_s", time.Since(t).Seconds())
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("stream-building the v2 file: %w", err)
	}
	dense, err := query.LoadFile(path)
	if err != nil {
		return fmt.Errorf("loading the v2 file decoded: %w", err)
	}
	fresh, err := query.BuildIndex(ps.f.G0, ps.f.Opt)
	if err != nil {
		return fmt.Errorf("building the reference index: %w", err)
	}
	if !dense.Equal(fresh) {
		return fmt.Errorf("the stream-built v2 file differs from a fresh build of the starting graph")
	}
	t = time.Now()
	mapped, err := query.LoadFileMapped(path, query.MappedOptions{})
	ps.lay.set("query.open_s", time.Since(t).Seconds())
	if err != nil {
		return fmt.Errorf("opening the v2 file mapped: %w", err)
	}
	defer mapped.Close() // read-only mapping
	n := ps.f.G0.NumVertices()
	want, got := make([]float64, n), make([]float64, n)
	for _, o := range checks {
		q := o.P.Sources[0]
		t := time.Now()
		if _, err := dense.SingleSourceInto(ctx, q, want); err != nil {
			return fmt.Errorf("decoded single source %d: %w", q, err)
		}
		denseD := time.Since(t)
		t = time.Now()
		if _, err := mapped.SingleSourceInto(ctx, q, got); err != nil {
			return fmt.Errorf("mapped single source %d: %w", q, err)
		}
		mappedD := time.Since(t)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				return fmt.Errorf("mapped single source %d: vertex %d scores %v, the decoded load %v", q, v, got[v], want[v])
			}
		}
		ps.lay.add("walkindex.sweep_dense_ms", ms(denseD))
		ps.lay.add("walkindex.sweep_mapped_ms", ms(mappedD))
	}
	ps.lay.set("walkindex.decode_overhead_ms", ps.lay.get("walkindex.sweep_mapped_ms")-ps.lay.get("walkindex.sweep_dense_ms"))
	return nil
}

// appliedEdits returns the acknowledged edit batches in the order the
// server applied them. runLoad sends edits one at a time but not in
// schedule order — two connections may take two edits due close together
// from the queue and lock in either order — so the order is that of their
// send times, each taken once the previous edit was answered.
func appliedEdits(outs []outcome) ([]*outcome, error) {
	var edits []*outcome
	for i := range outs {
		o := &outs[i]
		if o.P.Fam != famEdit {
			continue
		}
		switch {
		case o.Status == http.StatusOK:
			edits = append(edits, o)
		case o.Status == 0 && !o.Unsent:
			// Sent without an answer: the server may or may not have
			// applied it.
			return nil, fmt.Errorf("edit batch %d got no answer (%s): the served graph is unknown", o.P.ID, o.Err)
		}
		// An edit never sent, or refused with an error status, left the
		// served graph as it was; it already counts as failed.
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].Sent < edits[j].Sent })
	return edits, nil
}
