package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
)

func testSpec() scheduleSpec {
	return scheduleSpec{
		N:         500,
		Rungs:     []rung{{Rate: 100, Dur: 2 * time.Second}, {Rate: 200, Dur: time.Second}},
		Mix:       readMix,
		ZipfS:     1.1,
		BatchSize: 8,
		EditRate:  2,
		EditBatch: 10,
	}
}

func TestScheduleRepeatsForASeed(t *testing.T) {
	g := gen.WebGraph(500, 8, 1)
	a := buildSchedule(testSpec(), g, 7)
	b := buildSchedule(testSpec(), g, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built two different schedules")
	}
	if c := buildSchedule(testSpec(), g, 8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds built the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	spec := testSpec()
	g := gen.WebGraph(spec.N, 8, 1)
	plan := buildSchedule(spec, g, 3)
	perRung := make([]int, len(spec.Rungs))
	fams := make(map[family]int)
	var edits int
	for i, p := range plan {
		if p.ID != i {
			t.Fatalf("request %d has id %d", i, p.ID)
		}
		if i > 0 && p.Due < plan[i-1].Due {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		if p.Fam == famEdit {
			edits++
			if len(p.Edits) != spec.EditBatch || len(p.Sources) != 0 {
				t.Fatalf("edit %d: %d edits, %d sources", i, len(p.Edits), len(p.Sources))
			}
			for _, e := range p.Edits {
				if e.U < 0 || e.U >= spec.N || e.V < 0 || e.V >= spec.N {
					t.Fatalf("edit %+v outside the graph", e)
				}
				if e.Op == graph.EditAdd && e.U == e.V {
					t.Fatalf("self-loop add %+v", e)
				}
				if e.Op == graph.EditRemove && !g.HasEdge(e.U, e.V) {
					t.Fatalf("remove of %+v, not an edge of the starting graph", e)
				}
			}
			continue
		}
		perRung[p.Rung]++
		fams[p.Fam]++
		want := 1
		if p.Fam == famBatch {
			want = spec.BatchSize
		}
		if len(p.Sources) != want {
			t.Fatalf("%s request with %d sources", p.Fam, len(p.Sources))
		}
		var start time.Duration
		for _, r := range spec.Rungs[:p.Rung] {
			start += r.Dur
		}
		if p.Due < start || p.Due >= start+spec.Rungs[p.Rung].Dur {
			t.Fatalf("request due at %v outside rung %d", p.Due, p.Rung)
		}
	}
	// Exactly rate × duration reads per rung, and edits at their rate.
	for ri, r := range spec.Rungs {
		if want := int(r.Rate * r.Dur.Seconds()); perRung[ri] != want {
			t.Errorf("rung %d: %d reads, want %d", ri, perRung[ri], want)
		}
	}
	if edits != 6 {
		t.Errorf("%d edits, want 6 (2/s over 3 s)", edits)
	}
	// The mix is 4:2:1:1 — loosely, over 400 draws.
	reads := float64(perRung[0] + perRung[1])
	for f, w := range map[family]float64{famSS: 0.5, famTopK: 0.25, famRerank: 0.125, famBatch: 0.125} {
		if got := float64(fams[f]) / reads; math.Abs(got-w) > 0.08 {
			t.Errorf("%s share %.3f, want about %.3f", f, got, w)
		}
	}
}

func TestZipfSourcesAreSkewed(t *testing.T) {
	spec := testSpec()
	spec.EditRate = 0
	count := func(zipf float64) int {
		spec.ZipfS = zipf
		freq := make(map[int]int)
		top := 0
		for _, p := range buildSchedule(spec, nil, 5) {
			for _, q := range p.Sources {
				freq[q]++
				top = max(top, freq[q])
			}
		}
		return top
	}
	// 400 reads (some batches of 8) over 500 vertices: uniform draws
	// rarely repeat a source more than a handful of times, a Zipf law
	// sends a large share to its most popular one.
	u := count(0)
	for _, s := range []float64{zipfS, 1.1} {
		if z := count(s); z < 5*u {
			t.Errorf("most popular source drawn %d times under Zipf(%g), %d uniform", z, s, u)
		}
	}
}

func TestZipfCDF(t *testing.T) {
	const n = 4
	for _, s := range []float64{0.5, 0.8, 1.1} {
		cdf := zipfCDF(n, s)
		var h float64
		for k := 1; k <= n; k++ {
			h += math.Pow(float64(k), -s)
		}
		prev := 0.0
		for k, c := range cdf {
			if want := math.Pow(float64(k+1), -s) / h; math.Abs(c-prev-want) > 1e-12 {
				t.Errorf("s=%g: P(rank %d) = %v, want %v", s, k, c-prev, want)
			}
			prev = c
		}
		if math.Abs(cdf[n-1]-1) > 1e-12 {
			t.Errorf("s=%g: cdf ends at %v", s, cdf[n-1])
		}
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Changing the mix must not move arrival times or edits.
	g := gen.WebGraph(500, 8, 1)
	a := buildSchedule(testSpec(), g, 9)
	spec := testSpec()
	spec.Mix = []share{{famSS, 1}}
	b := buildSchedule(spec, g, 9)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].Due != b[i].Due || a[i].Fam == famEdit != (b[i].Fam == famEdit) {
			t.Fatalf("request %d moved when only the mix changed", i)
		}
		if a[i].Fam == famEdit && !reflect.DeepEqual(a[i].Edits, b[i].Edits) {
			t.Fatalf("edit %d changed when only the mix changed", i)
		}
	}
}
