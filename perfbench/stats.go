package main

import "sort"

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile, so the tail is never a single outlier.
const tailMinBeyond = 10

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of a sample that still has at least
// tailMinBeyond samples strictly beyond it.
type tail struct {
	Value  float64 // the sample at that rank
	Pct    float64 // the percentile it sits at, in (0, 100]
	Beyond int     // samples strictly above it in rank order
	N      int     // sample count
}

// tailOf picks the tail of xs: with n samples sorted ascending it is the
// sample at 0-based rank n-1-tailMinBeyond, which sits at the
// 100·(n-tailMinBeyond)/n percentile. A sample too small for that rank
// to lie above the median has no tail: it reports its maximum, with
// Beyond 0.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	r := n - 1 - tailMinBeyond
	if r < n/2 {
		return tail{Value: s[n-1], Pct: 100, Beyond: 0, N: n}
	}
	return tail{Value: s[r], Pct: 100 * float64(n-tailMinBeyond) / float64(n), Beyond: n - 1 - r, N: n}
}

// Windows: a sample in arrival order is cut into consecutive windows of
// about minWindow samples (at least that many, at most maxWindows of
// them). A window of 100 puts its tail at about the 90th percentile on
// every workload; deeper tails of a few reranks of hub vertices moved by
// a third from run to run.
const (
	maxWindows = 16
	minWindow  = 100
)

// windowed summarizes a sample in arrival order by the median, over its
// windows, of each window's median and of each window's tail, so a burst
// of interference that spoils one window does not move the figures. The
// returned tail's Pct, Beyond and N are those of the window whose tail
// is the median one (the lower middle for an even count).
func windowed(xs []float64) (float64, tail) {
	w := min(maxWindows, max(1, len(xs)/minWindow))
	var p50s []float64
	var tails []tail
	for i := 0; i < w; i++ {
		win := xs[i*len(xs)/w : (i+1)*len(xs)/w]
		p50s = append(p50s, median(win))
		tails = append(tails, tailOf(win))
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].Value < tails[j].Value })
	t := tails[(len(tails)-1)/2]
	if len(tails)%2 == 0 {
		t.Value = (t.Value + tails[len(tails)/2].Value) / 2
	}
	return median(p50s), t
}

// rungOutcome is one ladder rate's verdict inputs.
type rungOutcome struct {
	Rate        float64 // offered rate, requests per second
	Achieved    float64 // requests answered 200 within the limit, per second of the rung's span
	Tail        tail    // read latency tail, ms from due time
	FailFrac    float64 // failures / attempted within the rung
	BacklogGrew bool    // the generator's queue grew through the rung
	GenLate     bool    // the generator itself fell behind: the rung is invalid
	Stopped     bool    // the generator stopped offering load before the rung ended
}

// maxFailFrac is the failure share a ladder rung may have and still pass.
const maxFailFrac = 0.01

// goodput walks the ladder from its lowest rate and returns the highest
// achieved rate among the rungs that pass: the tail within limitMs, at
// most 1% of requests failed, the backlog not growing, and the generator
// neither stopped (the queue passed a latency limit's worth of requests)
// nor late. A rung that fails only its own verdict, say by a stall of the
// host, does not end the walk; a stopped rung does, since nothing above
// it was offered, and so does an invalid one, since the generator that
// fell behind there is not trusted above it. It returns the index of the
// rung the rate comes from, or -1 and 0 when no rung passes.
func goodput(rungs []rungOutcome, limitMs float64) (float64, int) {
	best := -1
	for i, r := range rungs {
		if r.GenLate || r.Stopped {
			break
		}
		if r.BacklogGrew || r.FailFrac > maxFailFrac || r.Tail.Value > limitMs {
			continue
		}
		if best < 0 || r.Achieved > rungs[best].Achieved {
			best = i
		}
	}
	if best < 0 {
		return 0, -1
	}
	return rungs[best].Achieved, best
}

// backlogGrows reports whether a rung's backlog samples — the number of
// requests due but not yet sent, sampled at each dispatch in due order —
// show a queue that keeps growing rather than one that fluctuates. The
// queue counts as growing when the mean of the last third of the samples
// exceeds twice the mean of the first third plus slack requests, and it
// ends above twice slack. A stable queue under Poisson arrivals
// fluctuates by a few requests, and a short stall queues what arrives
// meanwhile; an overloaded queue grows roughly linearly with time.
func backlogGrows(samples []int, slack int) bool {
	n := len(samples)
	if n < 3 {
		return false
	}
	third := n / 3
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	first, last := mean(samples[:third]), mean(samples[n-third:])
	return last > 2*first+float64(slack) && samples[n-1] > 2*slack
}
