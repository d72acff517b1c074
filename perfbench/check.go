package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"oipsr/simrank/query"
)

// Response shapes of the /v1 endpoints, decoded for the correctness
// gates.
type ssBody struct {
	Query    int            `json:"query"`
	N        int            `json:"n"`
	Results  []query.Ranked `json:"results"`
	Degraded bool           `json:"degraded"`
}

type topKBody struct {
	Query    int            `json:"query"`
	K        int            `json:"k"`
	Reranked bool           `json:"reranked"`
	Degraded bool           `json:"degraded"`
	Results  []query.Ranked `json:"results"`
}

type edgesBody struct {
	Added         int    `json:"added"`
	Removed       int    `json:"removed"`
	DirtyVertices int    `json:"dirty_vertices"`
	WalksRepaired int    `json:"walks_repaired"`
	Generation    uint64 `json:"generation"`
}

// layerTimes are the durations of the query-layer calls a read makes,
// timed by calling them again with the read's inputs.
type layerTimes struct {
	SingleSource time.Duration // SingleSourceInto
	Rank         time.Duration // TopKFromScores without rerank
	Rerank       time.Duration // TopKFromScores with rerank (the whole call)
	MultiSource  time.Duration // TopKBatch
}

// checkRead answers the read p directly on ref — the index the server
// answered from, at the same generation — and compares the result with
// the served body, bit for bit after decoding. A degraded rerank must
// equal the raw ranking. It returns the durations of the direct calls;
// the raw ranking is always computed, so a rerank read reports both.
func checkRead(ctx context.Context, ref *query.Index, p *planned, body []byte, degraded bool) (layerTimes, error) {
	var lt layerTimes
	q := p.Sources[0]
	if p.Fam == famBatch {
		t := time.Now()
		want, err := ref.TopKBatch(ctx, p.Sources, topK, nil, 0)
		lt.MultiSource = time.Since(t)
		if err != nil {
			return lt, err
		}
		lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
		if len(lines) != len(p.Sources) {
			return lt, fmt.Errorf("batch: %d lines for %d sources", len(lines), len(p.Sources))
		}
		for i, line := range lines {
			var got topKBody
			if err := json.Unmarshal(line, &got); err != nil {
				return lt, fmt.Errorf("batch line %d: %v", i, err)
			}
			if got.Query != p.Sources[i] || got.Reranked || got.Degraded {
				return lt, fmt.Errorf("batch line %d: query %d reranked=%v degraded=%v", i, got.Query, got.Reranked, got.Degraded)
			}
			if err := sameRanked(got.Results, want[i]); err != nil {
				return lt, fmt.Errorf("batch line %d (source %d): %v", i, p.Sources[i], err)
			}
		}
		return lt, nil
	}

	t := time.Now()
	scores, err := ref.SingleSourceInto(ctx, q, make([]float64, ref.N()))
	lt.SingleSource = time.Since(t)
	if err != nil {
		return lt, err
	}
	if p.Fam == famSS {
		var got ssBody
		if err := json.Unmarshal(body, &got); err != nil {
			return lt, fmt.Errorf("single_source: %v", err)
		}
		if got.Query != q || got.N != ref.N() || got.Degraded {
			return lt, fmt.Errorf("single_source: query %d n %d degraded=%v", got.Query, got.N, got.Degraded)
		}
		return lt, sameRanked(got.Results, sparseAbove(scores, q, minScore))
	}

	t = time.Now()
	want, err := ref.TopKFromScores(ctx, scores, q, topK, nil)
	lt.Rank = time.Since(t)
	if err != nil {
		return lt, err
	}
	reranked := p.Fam == famRerank && !degraded
	if p.Fam == famRerank {
		t = time.Now()
		rr, err := ref.TopKFromScores(ctx, scores, q, topK, &query.TopKOptions{Rerank: true})
		lt.Rerank = time.Since(t)
		if err != nil {
			return lt, err
		}
		if reranked {
			want = rr
		}
	}
	var got topKBody
	if err := json.Unmarshal(body, &got); err != nil {
		return lt, fmt.Errorf("topk: %v", err)
	}
	if got.Query != q || got.K != topK || got.Reranked != reranked || got.Degraded != degraded {
		return lt, fmt.Errorf("topk: query %d k %d reranked=%v degraded=%v", got.Query, got.K, got.Reranked, got.Degraded)
	}
	return lt, sameRanked(got.Results, want)
}

// sparseAbove is the documented /v1/single_source&min= result: every
// vertex but q scoring at least min, by decreasing score, ties by id.
func sparseAbove(scores []float64, q int, min float64) []query.Ranked {
	out := []query.Ranked{}
	for v, sc := range scores {
		if v != q && sc >= min {
			out = append(out, query.Ranked{Vertex: v, Score: sc})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Vertex < out[j].Vertex
	})
	return out
}

// sameRanked requires equal lists with bit-identical scores.
func sameRanked(got, want []query.Ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Vertex != want[i].Vertex || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("result %d: (%d, %v), want (%d, %v)", i, got[i].Vertex, got[i].Score, want[i].Vertex, want[i].Score)
		}
	}
	return nil
}

// cacheKeys are the response-cache entries a read looks up: one per
// source, shared between /v1/topk and /v1/batch items.
func cacheKeys(p *planned) []string {
	var out []string
	for _, q := range p.Sources {
		switch p.Fam {
		case famSS:
			out = append(out, fmt.Sprintf("ss:%d", q))
		case famRerank:
			out = append(out, fmt.Sprintf("topk:%d:rerank", q))
		default:
			out = append(out, fmt.Sprintf("topk:%d", q))
		}
	}
	return out
}

// knownMisses returns the reads that certainly missed the response
// cache: every key they look up was first requested by them within their
// generation, and no other read of that key in the generation was in
// flight before they finished. genOf gives a read's generation, or -1
// when it is unknown (the read overlapped an edit); such reads are never
// known misses. The cache is cleared on every generation bump, so a key's
// first read after one must compute.
func knownMisses(outs []outcome, genOf func(*outcome) int) map[int]bool {
	type gk struct {
		gen int
		key string
	}
	byKey := make(map[gk][]*outcome)
	for _, o := range reads(outs, -1) {
		if o.Status == 0 {
			continue // never reached the server
		}
		g := genOf(o)
		for _, k := range cacheKeys(o.P) {
			byKey[gk{g, k}] = append(byKey[gk{g, k}], o)
		}
	}
	miss := make(map[int]bool)
	spoiled := make(map[int]bool)
	for k, os := range byKey {
		sort.Slice(os, func(i, j int) bool { return os[i].Sent < os[j].Sent })
		first := os[0]
		if k.gen < 0 || (len(os) > 1 && os[1].Sent < first.Done) {
			spoiled[first.P.ID] = true
		} else {
			miss[first.P.ID] = true
		}
		for _, o := range os[1:] {
			spoiled[o.P.ID] = true
		}
	}
	for id := range spoiled {
		delete(miss, id)
	}
	return miss
}
