package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tailOf must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{n: 1000, value: 990, pct: 99, beyond: 10},
		{n: 200, value: 190, pct: 95, beyond: 10},
		{n: 21, value: 11, pct: 100 * 11.0 / 21, beyond: 10},
		{n: 40, value: 30, pct: 75, beyond: 10},
		// Too small for a tail above the median: the maximum, nothing beyond.
		{n: 20, value: 20, pct: 100, beyond: 0},
		{n: 12, value: 12, pct: 100, beyond: 0},
		{n: 1, value: 1, pct: 100, beyond: 0},
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Pct-tc.pct) > 1e-9 || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v pct %v beyond %d", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		// The definition itself: exactly Beyond samples lie above Value.
		above := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				above++
			}
		}
		if above != got.Beyond {
			t.Errorf("n=%d: %d samples above the tail, reported %d", tc.n, above, got.Beyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty sample: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestGoodputLadder(t *testing.T) {
	pass := func(rate float64) rungOutcome {
		return rungOutcome{Rate: rate, Achieved: rate * 0.99, Tail: tail{Value: 50}}
	}
	const limit = 100.0
	for _, tc := range []struct {
		name  string
		rungs []rungOutcome
		want  float64
		idx   int
	}{
		{"all pass", []rungOutcome{pass(10), pass(15), pass(20)}, 19.8, 2},
		{"tail over limit", []rungOutcome{pass(10), pass(15), {Rate: 20, Achieved: 19, Tail: tail{Value: 101}}}, 14.85, 1},
		{"tail at limit passes", []rungOutcome{pass(10), {Rate: 15, Achieved: 14, Tail: tail{Value: 100}}}, 14, 1},
		{"too many failures", []rungOutcome{pass(10), {Rate: 15, Achieved: 14, Tail: tail{Value: 50}, FailFrac: 0.011}}, 9.9, 0},
		{"1% failures pass", []rungOutcome{pass(10), {Rate: 15, Achieved: 14, Tail: tail{Value: 50}, FailFrac: 0.01}}, 14, 1},
		{"backlog grew", []rungOutcome{pass(10), {Rate: 15, Achieved: 14, Tail: tail{Value: 50}, BacklogGrew: true}}, 9.9, 0},
		{"a failed rung does not end the walk", []rungOutcome{pass(10), {Rate: 15, Tail: tail{Value: 500}}, pass(20)}, 19.8, 2},
		{"highest achieved, not highest offered", []rungOutcome{pass(10), {Rate: 15, Achieved: 16, Tail: tail{Value: 50}}, {Rate: 20, Achieved: 12, Tail: tail{Value: 50}}}, 16, 1},
		{"stopped rung ends the ladder", []rungOutcome{pass(10), {Rate: 15, Tail: tail{Value: 50}, Stopped: true}, pass(20)}, 9.9, 0},
		{"invalid rung ends the ladder", []rungOutcome{pass(10), {Rate: 15, Achieved: 14, Tail: tail{Value: 1}, GenLate: true}, pass(20)}, 9.9, 0},
		{"no rung passes", []rungOutcome{{Rate: 10, Tail: tail{Value: 500}}, {Rate: 15, Tail: tail{Value: 500}}}, 0, -1},
	} {
		got, idx := goodput(tc.rungs, limit)
		if math.Abs(got-tc.want) > 1e-9 || idx != tc.idx {
			t.Errorf("%s: goodput %v at rung %d, want %v at %d", tc.name, got, idx, tc.want, tc.idx)
		}
	}
}

func TestBacklogGrows(t *testing.T) {
	steady := []int{0, 1, 2, 1, 0, 3, 1, 0, 2, 1, 0, 1}
	if backlogGrows(steady, 2) {
		t.Error("a fluctuating queue counted as growing")
	}
	var rising []int
	for i := 0; i < 30; i++ {
		rising = append(rising, i/2)
	}
	if !backlogGrows(rising, 2) {
		t.Error("a linearly growing queue not detected")
	}
	// A late burst that ends small is not growth.
	burst := []int{0, 0, 0, 0, 0, 0, 9, 8, 7, 3}
	if backlogGrows(burst, 2) {
		t.Error("a drained burst counted as growing")
	}
}

func TestWindowed(t *testing.T) {
	// Four windows of minWindow samples, each 0..minWindow-1. The first
	// holds a burst of slow samples; the medians over windows ignore it.
	w := minWindow
	xs := make([]float64, 4*w)
	for i := range xs {
		xs[i] = float64(i % w)
	}
	for i := 0; i < w/4; i++ {
		xs[i] = 1000
	}
	p50, tl := windowed(xs)
	if want := float64(w-1) / 2; p50 != want {
		t.Errorf("p50 %v, want %v", p50, want)
	}
	if want := float64(w - 1 - tailMinBeyond); tl.Value != want || tl.N != w || tl.Beyond != tailMinBeyond {
		t.Errorf("tail %+v, want %v over %d samples", tl, want, w)
	}
	// More samples than maxWindows full windows: still maxWindows windows.
	if _, tl := windowed(seq(10 * maxWindows * w)); tl.N != 10*w {
		t.Errorf("window of %d samples, want %d", tl.N, 10*w)
	}
	// Too few samples for two windows: one window, the plain figures.
	small := seq(w + w/2)
	if p50, tl := windowed(small); p50 != median(small) || tl != tailOf(small) {
		t.Errorf("small sample: %v %+v", p50, tl)
	}
}

func TestWindowPeaks(t *testing.T) {
	// Windows [0,3) [3,6) [6,10): the short remainder joins the last one.
	xs := []float64{1, 9, 1, 2, 3, 2, 5, 1, 1, 7}
	if got := windowPeaks(xs, 3); got != 7 {
		t.Errorf("median of peaks 9, 3, 7 = %v, want 7", got)
	}
	if got := windowPeaks(xs[:2], 3); got != 9 {
		t.Errorf("one short window: %v, want its max 9", got)
	}
}

func TestGenLate(t *testing.T) {
	onTime := make([]float64, 100)
	for i := range onTime {
		onTime[i] = 0.1
	}
	if genLate(onTime, 100) {
		t.Error("an on-time generator flagged late")
	}
	late := append([]float64(nil), onTime...)
	for i := 0; i < 2; i++ {
		late[i] = 50
	}
	if !genLate(late, 100) {
		t.Error("2% of dispatches 50 ms late under a 100 ms limit not flagged")
	}
	one := append([]float64(nil), onTime...)
	one[0] = 50
	if genLate(one, 100) {
		t.Error("a single late dispatch out of 100 flagged at the 99th percentile")
	}
}
