package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"oipsr/graph"
	"oipsr/simrank/query"
)

// fleet is one stood-up serving stack: the front server behind a
// loopback listener, plus what the gates and replays need to reach.
type fleet struct {
	Base  string       // front server URL
	Front http.Handler // the Server, scraped for /metrics
	G0    *graph.Graph // the graph the run starts from
	Opt   query.Options
	Idx   *query.Index // the served index
	// Parts are the timed set-up steps, seconds, by per-layer metric name.
	Parts      map[string]float64
	IndexBytes int64
	closers    []func()
}

// listen serves h on a fresh loopback port and returns its URL. close
// shuts the server down and waits for its accept loop to return.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always http.ErrServerClosed once close runs
	}()
	f.closers = append(f.closers, func() {
		_ = srv.Close() // drops idle loopback connections; nothing to flush
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// close stops every server in reverse start order and releases the rest.
func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}

// timed runs fn, records its duration in seconds under name, and returns
// its error.
func (f *fleet) timed(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	f.Parts[name] = time.Since(t).Seconds()
	return err
}

// servingWorkload is one open-loop serving workload.
type servingWorkload struct {
	Name    string
	Spec    scheduleSpec  // Rungs are filled in from the run length
	Nominal float64       // the nominal offered rate, reads per second
	Ladder  []float64     // rung rates as multiples of Nominal, 1 first
	Limit   time.Duration // latency limit on the tail; also the server's request timeout
	Setups  int           // set-ups per run; setup_s is their median
	// Setup stands up a fleet from scratch for the seed.
	Setup func(w *servingWorkload) (*fleet, error)
	// Verify runs the workload's correctness gates over a finished pass,
	// marking wrong answers through ps.wrong, and when ps.tr is set replays
	// the layer calls into ps.lay.
	Verify func(ps *pass) error
}

// ladderRung is how long each rung above the nominal one lasts; the
// nominal rung, which all latency figures come from, gets the rest of
// the run, and at least half of it.
const ladderRung = 1750 * time.Millisecond

// rungs lays the ladder over a run of the given length.
func (w *servingWorkload) rungs(seconds int) []rung {
	total := time.Duration(seconds) * time.Second
	step := ladderRung
	if up := len(w.Ladder) - 1; up > 0 {
		step = min(step, total/2/time.Duration(up))
	}
	out := []rung{{Rate: w.Nominal, Dur: total - time.Duration(len(w.Ladder)-1)*step}}
	for _, m := range w.Ladder[1:] {
		out = append(out, rung{Rate: w.Nominal * m, Dur: step})
	}
	return out
}

// stopAbove is each rung's backlog limit for the generator: the requests
// due within one latency limit. A queue longer than that holds requests
// that will miss the limit, so the rung has failed and offering more load
// would only pile up requests to abandon. The nominal rung never stops.
func (w *servingWorkload) stopAbove(rungs []rung) []int {
	out := make([]int, len(rungs))
	for i, r := range rungs[1:] {
		out[i+1] = max(1, int(r.Rate*w.Limit.Seconds()))
	}
	return out
}

// geometricLadder returns the rung multipliers 1, first, first·ratio, …,
// n rungs above the nominal one.
func geometricLadder(first, ratio float64, n int) []float64 {
	out := []float64{1}
	for m := first; len(out) <= n; m *= ratio {
		out = append(out, m)
	}
	return out
}

// pass is one load run over one fleet, with what its gates found.
type pass struct {
	w     *servingWorkload
	f     *fleet
	dir   string // where the pass may write files
	plan  []planned
	outs  []outcome
	epoch time.Time
	tr    *tracer // nil on untraced passes
	lay   *layers // nil on untraced passes
	// rssMB is the peak resident set while the nominal rung ran, and
	// stealFrac the host's steal share while the whole schedule ran (see
	// hostSampler).
	rssMB     float64
	stealFrac float64

	// wrongs counts reads and edits whose answers failed a gate.
	wrongs int
}

// wrong marks o as a wrong answer: it counts as a failed request.
func (ps *pass) wrong(o *outcome, err error) {
	if o.Err == "" {
		o.Err = "wrong answer: " + err.Error()
		ps.wrongs++
	}
}

// Gate sampling: untraced passes check a stride sample of the reads;
// traced passes also replay up to maxReplays known cache misses of the
// nominal rung.
const (
	maxChecks  = 60
	maxReplays = 60
)

// checkSet picks the reads a pass checks: about maxChecks answered reads
// spread evenly over the run, plus on traced passes up to maxReplays
// known misses spread evenly over the nominal rung's misses. Reads whose
// generation is unknown (genOf < 0) cannot be checked and are skipped.
func (ps *pass) checkSet(miss map[int]bool, genOf func(*outcome) int) []*outcome {
	var answered, misses []*outcome
	for _, o := range reads(ps.outs, -1) {
		if !o.ok() || genOf(o) < 0 {
			continue
		}
		answered = append(answered, o)
		if miss[o.P.ID] && o.P.Rung == 0 {
			misses = append(misses, o)
		}
	}
	pick := make(map[int]*outcome)
	for _, o := range spread(answered, maxChecks) {
		pick[o.P.ID] = o
	}
	if ps.tr != nil {
		for _, o := range spread(misses, maxReplays) {
			pick[o.P.ID] = o
		}
	}
	out := make([]*outcome, 0, len(pick))
	for _, o := range pick {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.ID < out[j].P.ID })
	return out
}

// spread returns at most k elements of xs, evenly spaced.
func spread(xs []*outcome, k int) []*outcome {
	if len(xs) <= k {
		return xs
	}
	out := make([]*outcome, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k]
	}
	return out
}

// recordReplay files the durations of the query-layer calls replayed
// for read o. When the read is a known cache miss — the server made the
// same calls — of the nominal rung, they also become children of its
// HTTP span, whose self time is then the server's own time for that
// read. Misses on the overloaded rungs above are left out: a server kept
// busy answers faster than one woken for each request, and its self time
// would not be the one the nominal p50_ms holds.
func (ps *pass) recordReplay(o *outcome, lt layerTimes, miss bool) {
	if ps.tr == nil {
		return
	}
	miss = miss && o.P.Rung == 0
	type call struct {
		span, metric string
		d, metricD   time.Duration
	}
	var calls []call
	switch o.P.Fam {
	case famBatch:
		calls = append(calls, call{"query.multi_source", "query.multi_source_ms", lt.MultiSource, lt.MultiSource})
	case famSS:
		calls = append(calls, call{"query.single_source", "query.single_source_ms", lt.SingleSource, lt.SingleSource})
	case famTopK:
		calls = append(calls, call{"query.single_source", "query.single_source_ms", lt.SingleSource, lt.SingleSource},
			call{"query.rank", "query.rank_ms", lt.Rank, lt.Rank})
	case famRerank:
		calls = append(calls, call{"query.single_source", "query.single_source_ms", lt.SingleSource, lt.SingleSource},
			call{"query.rerank", "query.rerank_ms", lt.Rerank, lt.Rerank - lt.Rank})
	}
	for _, c := range calls {
		ps.lay.add(c.metric, ms(c.metricD))
		if miss {
			ps.tr.replay(o.Span, c.span, c.d)
		}
	}
	if miss {
		ps.lay.add("simrankd.self_ms", ms(ps.tr.selfTime(o.Span)))
	}
}

// layers accumulates per-layer metrics: samples reported as their median,
// and values reported as they are.
type layers struct {
	samples map[string][]float64
	values  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: make(map[string][]float64), values: make(map[string]float64)}
}

func (l *layers) add(name string, v float64)   { l.samples[name] = append(l.samples[name], v) }
func (l *layers) set(name string, v float64)   { l.values[name] = v }
func (l *layers) count(name string, v float64) { l.values[name] += v }

// get returns a metric's value: the set value, else the median of its
// samples, else 0 — a layer the workload does not exercise.
func (l *layers) get(name string) float64 {
	if v, ok := l.values[name]; ok {
		return v
	}
	return median(l.samples[name])
}

// setUp stands the fleet up n times (n >= 1), each time from scratch and
// timed, closes all but the last and returns it with the times.
func setUp(w *servingWorkload, n int) (*fleet, []float64, error) {
	var setups []float64
	var f *fleet
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		var err error
		f, err = w.Setup(w)
		if err != nil {
			if f != nil {
				f.close()
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return f, setups, nil
}

// runPass stands the fleet up (the last of n timed set-ups) and runs the
// schedule. The caller verifies the pass, then closes ps.f.
func runPass(w *servingWorkload, n int, seed uint64, seconds int, workDir string, traced bool) (*pass, []float64, error) {
	f, setups, err := setUp(w, n)
	if err != nil {
		return nil, nil, err
	}

	spec := w.Spec
	spec.Rungs = w.rungs(seconds)
	ps := &pass{w: w, f: f, dir: workDir, plan: buildSchedule(spec, f.G0, seed)}
	if traced {
		ps.lay = newLayers()
		for name, v := range f.Parts {
			ps.lay.set(name, v)
		}
	}
	before := scrape(f.Front)
	host, err := startHost()
	if err != nil {
		f.close()
		return nil, nil, err
	}
	epoch := time.Now()
	// The cache hit ratio is the nominal rung's, like the latencies it
	// explains: the counters are read again when that rung ends.
	nominalEnd := make(chan map[string]float64, 1)
	if traced {
		ps.tr = newTracer(epoch)
		time.AfterFunc(spec.Rungs[0].Dur, func() { nominalEnd <- scrape(f.Front) })
	}
	ps.outs, ps.epoch = runLoad(loadConfig{
		Base:      f.Base,
		Conns:     conns(),
		Timeout:   4 * w.Limit,
		Drain:     2 * w.Limit,
		StopAbove: w.stopAbove(spec.Rungs),
		Tracer:    ps.tr,
	}, ps.plan)
	rec, err := host.finish()
	if err != nil {
		f.close()
		return nil, nil, err
	}
	// The rungs above the nominal one overload the server on purpose;
	// the memory figure, like the latency ones, is the nominal rung's.
	ps.rssMB, ps.stealFrac = rec.peakRSSUntil(spec.Rungs[0].Dur), rec.steal()
	after := scrape(f.Front)
	if traced {
		mid := <-nominalEnd
		hits := mid["simrankd_cache_hits_total"] - before["simrankd_cache_hits_total"]
		misses := mid["simrankd_cache_misses_total"] - before["simrankd_cache_misses_total"]
		if hits+misses > 0 {
			ps.lay.set("simrankd.cache_hit_ratio", hits/(hits+misses))
		}
		ps.lay.set("simrankd.shed", after["simrankd_requests_shed_total"]-before["simrankd_requests_shed_total"])
		ps.lay.set("simrankd.degraded", after["simrankd_requests_degraded_total"]-before["simrankd_requests_degraded_total"])
	}
	return ps, setups, nil
}

// conns is the open loop's connection count: one per CPU.
func conns() int { return runtime.NumCPU() }

// scrape reads the front server's /metrics counters without labels.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// servingResult is everything a serving workload reports.
type servingResult struct {
	e2e          map[string]float64
	familyP50    map[string]float64 // per-family medians and edit latencies
	layer        *layers            // nil on untraced runs
	tail         tail
	rungs        []rungOutcome
	goodRung     int
	wrongs       int // answers that failed a correctness gate
	attempted    int
	failed       int
	degradedFrac float64
	genLateMs    float64   // 99th percentile of the generator's dispatch lateness on the nominal rung
	stealFrac    float64   // host CPU time taken by the hypervisor while measuring
	maxBacklog   int       // the nominal rung's longest queue
	setups       []float64 // every timed set-up, seconds
	valid        bool      // false when the generator fell behind on the nominal rung
	notes        []string
}

// summarize computes a pass's end-to-end figures. Latency figures cover
// the nominal rung's reads; a failed read counts at the client timeout,
// since it missed every limit. goodput_rps walks the whole ladder.
func summarize(ps *pass, seconds int) *servingResult {
	w := ps.w
	limitMs := ms(w.Limit)
	failedMs := ms(4 * w.Limit)
	res := &servingResult{e2e: make(map[string]float64), familyP50: make(map[string]float64), valid: true}

	nominal := reads(ps.outs, 0)
	lat := latencies(nominal, failedMs)
	res.e2e["p50_ms"], res.tail = windowed(lat)
	res.e2e["tail_ms"] = res.tail.Value
	for f := famSS; f < famEdit; f++ {
		var xs []float64
		for i, o := range nominal {
			if o.P.Fam == f {
				xs = append(xs, lat[i])
			}
		}
		res.familyP50[f.String()+"_p50_ms"] = median(xs)
	}
	var edits []*outcome
	for i := range ps.outs {
		if ps.outs[i].P.Fam == famEdit {
			edits = append(edits, &ps.outs[i])
		}
	}
	editLat := latencies(edits, failedMs)
	res.familyP50["edit_p50_ms"] = median(editLat)
	res.familyP50["edit_tail_ms"] = tailOf(editLat).Value

	var start time.Duration
	for ri, rg := range w.rungs(seconds) {
		v := rungVerdict(ps.outs, ri, rg, start, limitMs, failedMs, conns())
		// The generator stopped offering load in this rung or before it.
		v.Stopped = len(ps.outs) < len(ps.plan) && ps.plan[len(ps.outs)].Rung <= ri
		res.rungs = append(res.rungs, v)
		start += rg.Dur
	}
	res.e2e["goodput_rps"], res.goodRung = goodput(res.rungs, limitMs)
	res.valid = !res.rungs[0].GenLate
	for ri, v := range res.rungs {
		if v.Stopped || v.GenLate || v.BacklogGrew || v.FailFrac > maxFailFrac || v.Tail.Value > limitMs {
			res.notes = append(res.notes, fmt.Sprintf("rung %d (%.4g rps) did not pass: tail %.4g ms (limit %.4g), fail %.4g, backlog grew %v, generator late %v, load stopped %v",
				ri, v.Rate, v.Tail.Value, limitMs, v.FailFrac, v.BacklogGrew, v.GenLate, v.Stopped))
		}
		if v.Stopped || v.GenLate {
			break
		}
	}

	var ok, degraded int
	var late []float64
	for i := range ps.outs {
		o := &ps.outs[i]
		res.attempted++
		if !o.ok() {
			res.failed++
			if res.failed <= 5 {
				res.notes = append(res.notes, fmt.Sprintf("request %d (%s) failed: %s", o.P.ID, o.P.Fam, o.Err))
			}
		} else {
			ok++
			if o.Degraded {
				degraded++
			}
		}
		if o.P.Rung == 0 {
			late = append(late, ms(o.Dispatched-o.P.Due))
			res.maxBacklog = max(res.maxBacklog, o.Backlog)
		}
	}
	res.degradedFrac = float64(degraded) / float64(max(ok, 1))
	res.stealFrac = ps.stealFrac
	if len(late) > 0 {
		s := sortedCopy(late)
		res.genLateMs = s[int(0.99*float64(len(s)-1))]
	}
	return res
}

// runServing runs a serving workload: one pass when untraced; when traced,
// an untraced pass and then a traced pass over the same schedule, each on
// a fresh fleet, so the difference of their p50s is the tracing overhead.
// Half of the untraced pass's timed set-ups run before its load and half
// after it, so that setup_s, their median, samples the host at both ends
// of the run rather than in one burst.
func runServing(w *servingWorkload, seed uint64, seconds int, workDir string, traced bool) (*servingResult, error) {
	ps, setups, err := runPass(w, w.Setups/2, seed, seconds, workDir, false)
	if err != nil {
		return nil, err
	}
	err = w.Verify(ps)
	ps.f.close()
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	f, after, err := setUp(w, w.Setups-w.Setups/2)
	if err != nil {
		return nil, err
	}
	f.close()
	setups = append(setups, after...)
	res := summarize(ps, seconds)
	res.wrongs = ps.wrongs
	res.e2e["setup_s"] = median(setups)
	res.setups = setups
	res.e2e["peak_rss_mb"] = ps.rssMB
	if !traced {
		return res, nil
	}

	tp, _, err := runPass(w, 1, seed, seconds, workDir, true)
	if err != nil {
		return nil, err
	}
	err = w.Verify(tp)
	tp.f.close()
	if err != nil {
		return nil, fmt.Errorf("correctness gate (traced pass): %w", err)
	}
	tres := summarize(tp, seconds)
	lay := tp.lay
	for name, v := range tres.familyP50 {
		lay.set(name, v)
	}
	lay.set("tail_ms", tres.tail.Value)
	lay.set("tail_pct", tres.tail.Pct)
	lay.set("tail_samples", float64(tres.tail.N))
	lay.set("fail_frac", float64(tres.failed)/float64(max(tres.attempted, 1)))
	lay.set("degraded_frac", tres.degradedFrac)
	lay.set("index_mb", float64(tp.f.IndexBytes)/(1<<20))
	lay.set("walkindex.index_bytes", float64(tp.f.IndexBytes))
	lay.set("goodput_rps", res.e2e["goodput_rps"]) // the untraced pass's ladder
	lay.set("trace.overhead_ms", tres.e2e["p50_ms"]-res.e2e["p50_ms"])
	lay.set("trace.spans", float64(len(tp.tr.spans)))
	lay.set("gen.late_ms", tres.genLateMs)
	lay.set("gen.backlog", float64(tres.maxBacklog))
	lay.set("host.steal_frac", tres.stealFrac)
	if err := tp.tr.write(spanPath(workDir, w.Name, seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.layer = lay
	res.notes = append(res.notes, tres.notes...)
	res.wrongs += tp.wrongs
	res.attempted += tres.attempted
	res.failed += tres.failed
	res.valid = res.valid && tres.valid
	return res, nil
}
