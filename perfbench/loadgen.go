package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minScore is the threshold of every single_source request: the sparse,
// cacheable response form.
const minScore = 0.01

// topK is the k of every topk and batch request.
const topK = 10

// outcome is what happened to one planned request. Times are offsets
// from the run's start, like the schedule's due times.
type outcome struct {
	P          *planned
	Dispatched time.Duration // when the generator queued it
	Sent       time.Duration // when a connection started sending it
	Done       time.Duration // when its response was read in full
	Backlog    int           // requests queued but not yet sent, right after it was queued
	Status     int           // HTTP status; 0 when no response arrived
	Unsent     bool          // abandoned in the queue at the drain deadline
	Err        string        // transport error, timeout, abandonment or wrong answer
	Degraded   bool          // a 200 marked X-Simrank-Degraded
	Body       []byte
	Span       int // the request's HTTP span when traced
}

// ok reports a 200 answer that the correctness gates did not reject.
func (o *outcome) ok() bool { return o.Status == http.StatusOK && o.Err == "" }

// latencyMs is the request's latency from its due time, so time spent
// waiting for a free connection counts: a stall delays every request due
// behind it, and timing from the send would hide that (coordinated
// omission).
func (o *outcome) latencyMs() float64 { return ms(o.Done - o.P.Due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadConfig drives one open-loop run against a front server.
type loadConfig struct {
	Base    string        // front server URL
	Conns   int           // connections, and so requests in flight, at most
	Timeout time.Duration // client timeout of one request
	// Drain bounds how long after the last due time queued requests are
	// still sent; the rest are abandoned and count as failures.
	Drain time.Duration
	// StopAbove gives, per rung, the backlog beyond which the generator
	// stops offering load: the rung is overloaded, and the requests still
	// due would only be abandoned. 0 means never stop.
	StopAbove []int
	Tracer    *tracer
}

// runLoad sends plan open loop: a generator queues each request at its due
// time whatever the state of earlier ones, and Conns connections take
// them from the queue in due order, each with one request in flight.
// Edits are sent one at a time, so each is applied before the next is
// sent; two edits due close together may still be sent in either order,
// and appliedEdits recovers the order the server applied them in. When
// the backlog passes its rung's StopAbove the generator offers nothing
// more. It returns one outcome per request offered, a prefix of plan,
// and the run's start time.
func runLoad(cfg loadConfig, plan []planned) ([]outcome, time.Time) {
	outs := make([]outcome, len(plan))
	for i := range plan {
		outs[i].P = &plan[i]
	}
	transport := &http.Transport{
		MaxConnsPerHost:     cfg.Conns,
		MaxIdleConnsPerHost: cfg.Conns,
		DisableCompression:  true,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: cfg.Timeout}
	warmConnections(client, cfg.Base, cfg.Conns)

	var stopAt time.Duration
	if len(plan) > 0 {
		stopAt = plan[len(plan)-1].Due + cfg.Drain
	}
	// Every scheduled request fits in the queue, so the generator never
	// blocks on busy connections: the backlog is the queue's length.
	queue := make(chan int, len(plan))
	var editMu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &outs[i]
				if time.Since(t0) > stopAt {
					o.Err = "abandoned: not sent before the drain deadline"
					o.Unsent = true
					o.Done = time.Since(t0)
					continue
				}
				if o.P.Fam == famEdit {
					editMu.Lock()
				}
				sent := time.Now()
				o.Sent = sent.Sub(t0)
				o.Status, o.Degraded, o.Body, o.Err = send(client, cfg.Base, o.P)
				done := time.Now()
				o.Done = done.Sub(t0)
				if o.P.Fam == famEdit {
					editMu.Unlock()
				}
				o.Span = cfg.Tracer.add(0, o.P.ID, "simrankd.http."+o.P.Fam.String(), sent, done)
			}
		}()
	}
	offered := len(plan)
	for i := range plan {
		if d := time.Until(t0.Add(plan[i].Due)); d > 0 {
			time.Sleep(d)
		}
		if r := plan[i].Rung; r < len(cfg.StopAbove) && cfg.StopAbove[r] > 0 && len(queue) > cfg.StopAbove[r] {
			offered = i
			break
		}
		outs[i].Dispatched = time.Since(t0)
		queue <- i
		outs[i].Backlog = len(queue)
	}
	close(queue)
	wg.Wait()
	return outs[:offered], t0
}

// warmConnections opens the run's connections before the clock starts,
// so the first requests do not pay for TCP set-up.
func warmConnections(client *http.Client, base string, conns int) {
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
}

// requestFor returns the method, path and body of a planned request.
func requestFor(p *planned) (method, path string, body []byte) {
	var q int
	if len(p.Sources) > 0 {
		q = p.Sources[0]
	}
	switch p.Fam {
	case famSS:
		return http.MethodGet, fmt.Sprintf("/v1/single_source?q=%d&min=%s", q, strconv.FormatFloat(minScore, 'g', -1, 64)), nil
	case famTopK:
		return http.MethodGet, fmt.Sprintf("/v1/topk?q=%d&k=%d", q, topK), nil
	case famRerank:
		return http.MethodGet, fmt.Sprintf("/v1/topk?q=%d&k=%d&rerank=1", q, topK), nil
	case famBatch:
		b, _ := json.Marshal(map[string]any{"mode": "topk", "sources": p.Sources, "k": topK}) // plain ints and strings always marshal
		return http.MethodPost, "/v1/batch", b
	case famEdit:
		edits := make([]map[string]any, len(p.Edits))
		for i, e := range p.Edits {
			edits[i] = map[string]any{"op": e.Op.String(), "u": e.U, "v": e.V}
		}
		b, _ := json.Marshal(map[string]any{"edits": edits})
		return http.MethodPost, "/v1/edges", b
	}
	panic("perfbench: unknown request family")
}

// send performs one request and reads its whole response.
func send(client *http.Client, base string, p *planned) (status int, degraded bool, body []byte, errMsg string) {
	method, path, reqBody := requestFor(p)
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, false, nil, err.Error()
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, nil, err.Error()
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, false, nil, "reading body: " + err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, false, body, fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp.StatusCode, resp.Header.Get("X-Simrank-Degraded") == "true", body, ""
}

// reads returns the outcomes of the reads (every family but edits) due in
// rung r, or in every rung when r < 0.
func reads(outs []outcome, r int) []*outcome {
	var out []*outcome
	for i := range outs {
		o := &outs[i]
		if o.P.Fam != famEdit && (r < 0 || o.P.Rung == r) {
			out = append(out, o)
		}
	}
	return out
}

// latencies returns the latencies of os in ms from due time. A failed
// request missed every limit, so it counts as failedMs.
func latencies(os []*outcome, failedMs float64) []float64 {
	xs := make([]float64, len(os))
	for i, o := range os {
		if o.ok() {
			xs[i] = o.latencyMs()
		} else {
			xs[i] = failedMs
		}
	}
	return xs
}

// rungVerdict evaluates rung r of a finished run for the goodput ladder.
// A failed read counts at failedMs, beyond the limit.
func rungVerdict(outs []outcome, r int, rg rung, start time.Duration, limitMs, failedMs float64, conns int) rungOutcome {
	rs := reads(outs, r)
	v := rungOutcome{Rate: rg.Rate}
	if len(rs) == 0 {
		return v
	}
	v.Tail = tailOf(latencies(rs, failedMs))
	var failed, good int
	var lastDone time.Duration
	var backlog []int
	var late []float64
	for _, o := range rs {
		if !o.ok() {
			failed++
		} else if o.latencyMs() <= limitMs {
			good++
		}
		lastDone = max(lastDone, o.Done)
		backlog = append(backlog, o.Backlog)
		late = append(late, ms(o.Dispatched-o.P.Due))
	}
	v.FailFrac = float64(failed) / float64(len(rs))
	// The rung's span runs from its start to its last answer, which is
	// measured: a span fixed at the rung's length would make a rung that
	// kept up read exactly its offered rate, a number no run measured.
	v.Achieved = float64(good) / (lastDone - start).Seconds()
	// A queue shorter than the arrivals of a tenth of the limit waits
	// less than that: fluctuation, not growth.
	v.BacklogGrew = backlogGrows(backlog, max(conns, int(rg.Rate*limitMs/1000/10)))
	v.GenLate = genLate(late, limitMs)
	return v
}

// genLate reports whether the generator itself fell behind: its dispatch
// lateness, at the 99th percentile, exceeded a tenth of the latency
// limit. Such a rung offered less load than scheduled and is invalid,
// not slow.
func genLate(lateMs []float64, limitMs float64) bool {
	if len(lateMs) == 0 {
		return false
	}
	s := sortedCopy(lateMs)
	return s[int(math.Ceil(0.99*float64(len(s))))-1] > limitMs/10
}
