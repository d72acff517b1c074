package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"oipsr/graph"
)

// family is one request class of a serving mix.
type family int

const (
	famSS     family = iota // GET /v1/single_source?q=&min=
	famTopK                 // GET /v1/topk?q=&k=10
	famRerank               // GET /v1/topk?q=&k=10&rerank=1
	famBatch                // POST /v1/batch: topk k=10 over several sources
	famEdit                 // POST /v1/edges: a batch of edge edits
	numFamilies
)

var familyNames = [numFamilies]string{"ss", "topk", "rerank", "batch", "edit"}

func (f family) String() string { return familyNames[f] }

// share is one family's weight in a read mix.
type share struct {
	Fam    family
	Weight float64
}

// rung is one offered rate of the ladder, held for Dur.
type rung struct {
	Rate float64 // reads per second
	Dur  time.Duration
}

// scheduleSpec describes a serving workload's traffic; buildSchedule
// turns it and a seed into the exact requests of a run.
type scheduleSpec struct {
	N         int     // vertex count: sources are drawn from [0, N)
	Rungs     []rung  // the ladder, lowest (nominal) rate first
	Mix       []share // read families and their weights
	ZipfS     float64 // Zipf exponent of source popularity; 0 = uniform
	BatchSize int     // sources per /v1/batch
	EditRate  float64 // /v1/edges batches per second over the whole run; 0 = read-only
	EditBatch int     // edits per /v1/edges batch
}

// planned is one scheduled request.
type planned struct {
	ID      int
	Rung    int           // ladder rung it belongs to (edits: the rung they fall in)
	Due     time.Duration // offset from the run's start
	Fam     family
	Sources []int        // one source, or BatchSize for famBatch
	Edits   []graph.Edit // famEdit only
}

// Seeded streams: each property of the schedule draws from its own
// generator, so changing one (say, the mix) leaves the others intact.
const (
	streamArrivals = iota + 1
	streamSources
	streamMix
	streamEdits
	streamPopularity
)

func seededRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// buildSchedule returns every request of a run in due order. Each rung
// gets exactly round(Rate·Dur) reads whose times are sorted uniform
// draws over the rung — a Poisson process conditioned on its count, so
// every seed offers the same load and only the arrival pattern varies.
// Edits arrive the same way at EditRate over the whole run. Sources
// follow a Zipf law over a fixed permutation of the vertices — part of
// the dataset, so every seed has the same popular vertices, and they
// are not simply the low ids, which the generators make hubs — or are
// uniform when ZipfS is 0. Edits mix adds of random
// non-loop pairs with removes of edges drawn from g, which is the graph
// the run starts from.
func buildSchedule(spec scheduleSpec, g *graph.Graph, seed uint64) []planned {
	arr := seededRand(seed, streamArrivals)
	src := seededRand(seed, streamSources)
	mix := seededRand(seed, streamMix)
	ed := seededRand(seed, streamEdits)

	perm := seededRand(datasetSeed, streamPopularity).Perm(spec.N)
	var zipf []float64
	if spec.ZipfS > 0 {
		zipf = zipfCDF(spec.N, spec.ZipfS)
	}
	source := func() int {
		if zipf != nil {
			return perm[zipfRank(zipf, src)]
		}
		return src.IntN(spec.N)
	}
	var total float64
	for _, s := range spec.Mix {
		total += s.Weight
	}
	pick := func() family {
		x := mix.Float64() * total
		for _, s := range spec.Mix {
			if x < s.Weight {
				return s.Fam
			}
			x -= s.Weight
		}
		return spec.Mix[len(spec.Mix)-1].Fam
	}

	var out []planned
	var start time.Duration
	starts := make([]time.Duration, len(spec.Rungs))
	for ri, r := range spec.Rungs {
		starts[ri] = start
		count := int(math.Round(r.Rate * r.Dur.Seconds()))
		for _, due := range uniformTimes(arr, count, start, r.Dur) {
			p := planned{Rung: ri, Due: due, Fam: pick()}
			if p.Fam == famBatch {
				p.Sources = make([]int, spec.BatchSize)
				for i := range p.Sources {
					p.Sources[i] = source()
				}
			} else {
				p.Sources = []int{source()}
			}
			out = append(out, p)
		}
		start += r.Dur
	}

	if spec.EditRate > 0 {
		var edges [][2]int
		g.Edges(func(u, v int) bool {
			edges = append(edges, [2]int{u, v})
			return true
		})
		count := int(math.Round(spec.EditRate * start.Seconds()))
		for _, due := range uniformTimes(ed, count, 0, start) {
			p := planned{Due: due, Fam: famEdit, Edits: make([]graph.Edit, spec.EditBatch)}
			for ri := range starts {
				if due >= starts[ri] {
					p.Rung = ri
				}
			}
			for i := range p.Edits {
				if ed.IntN(2) == 0 && len(edges) > 0 {
					e := edges[ed.IntN(len(edges))]
					p.Edits[i] = graph.Edit{Op: graph.EditRemove, U: e[0], V: e[1]}
					continue
				}
				u := ed.IntN(spec.N)
				v := ed.IntN(spec.N - 1)
				if v >= u {
					v++
				}
				p.Edits[i] = graph.Edit{Op: graph.EditAdd, U: u, V: v}
			}
			out = append(out, p)
		}
	}

	slices.SortStableFunc(out, func(a, b planned) int {
		switch {
		case a.Due < b.Due:
			return -1
		case a.Due > b.Due:
			return 1
		}
		return 0
	})
	for i := range out {
		out[i].ID = i
	}
	return out
}

// zipfCDF returns the cumulative distribution of a Zipf law over n
// ranks, P(rank k) proportional to 1/(k+1)^s. Unlike rand.Zipf it takes
// any s > 0, including the s < 1 of measured request traces.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// zipfRank draws a rank from cdf.
func zipfRank(cdf []float64, r *rand.Rand) int {
	return min(sort.SearchFloat64s(cdf, r.Float64()), len(cdf)-1)
}

// uniformTimes returns count sorted times drawn uniformly from
// [start, start+dur).
func uniformTimes(r *rand.Rand, count int, start, dur time.Duration) []time.Duration {
	ts := make([]time.Duration, count)
	for i := range ts {
		ts[i] = start + time.Duration(r.Float64()*float64(dur))
	}
	slices.Sort(ts)
	return ts
}
