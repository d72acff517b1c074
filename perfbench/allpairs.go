package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/partition"
	"oipsr/simrank"
)

// allPairsTol is the conformance suite's tolerance between engines.
const allPairsTol = 1e-12

// runAllPairs is the allpairs workload: one offline caller runs
// simrank.Compute with the paper's OIP-SR engine on the berkstan*-shaped
// graph back to back for the run's length, after one untimed warm-up
// call. A traced run makes an untraced pass and then a traced one.
// Outside the timed calls, the scores must agree with psum-SR within
// allPairsTol, and every call must return the first call's scores bit
// for bit. The graph is the dataset graph; an offline caller has no
// traffic for a seed to vary, and OIP-SR's work depends on the graph's
// structure (its additions vary by about 15% between generator seeds),
// so a seeded graph would measure the seed rather than the code.
func runAllPairs(seed uint64, seconds int, workDir string, traced bool) (*servingResult, error) {
	g := gen.WebGraph(webN, webDeg, datasetSeed)
	res, err := allPairsPass(g, seconds, nil)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = median(res.setups)
	if !traced {
		return res, nil
	}
	tr := newTracer(time.Now())
	tres, err := allPairsPass(g, seconds, tr)
	if err != nil {
		return nil, err
	}
	res.layer = tres.layer
	res.layer.set("goodput_rps", res.e2e["goodput_rps"])
	res.layer.set("trace.overhead_ms", tres.e2e["p50_ms"]-res.e2e["p50_ms"])
	res.layer.set("trace.spans", float64(len(tr.spans)))
	res.layer.set("tail_ms", tres.tail.Value)
	res.layer.set("tail_pct", tres.tail.Pct)
	res.layer.set("tail_samples", float64(tres.tail.N))
	res.layer.set("host.steal_frac", tres.stealFrac)
	res.attempted += tres.attempted
	if err := tr.write(spanPath(workDir, allPairsName, seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// allPairsSetup is the caller's set-up, timed once before each Compute
// call so that its samples span the run, as the calls' do, rather than a
// burst at its start: it generates the graph and builds the DMST-Reduce
// sharing plan every Compute call starts with (partition.BuildPlan with
// the options Compute passes by default). It returns the plan's share of
// additions saved, which must match the calls' own.
func allPairsSetup() (float64, time.Duration, error) {
	t := time.Now()
	g := gen.WebGraph(webN, webDeg, datasetSeed)
	plan, err := partition.BuildPlan(g, partition.Options{})
	d := time.Since(t)
	if err != nil {
		return 0, d, fmt.Errorf("building the sharing plan: %w", err)
	}
	return plan.ShareRatio(), d, nil
}

// allPairsPass times Compute calls for the given seconds, each after a
// timed set-up; with a tracer it records each call and its plan and
// iteration phases as spans.
func allPairsPass(g *graph.Graph, seconds int, tr *tracer) (*servingResult, error) {
	opt := simrank.Options{Algorithm: simrank.OIPSR}
	runtime.GC()
	debug.FreeOSMemory()
	first, _, err := simrank.Compute(g, opt)
	if err != nil {
		return nil, err
	}
	defer first.Close()
	res := &servingResult{e2e: make(map[string]float64), valid: true}
	type call struct {
		start, end time.Time
		st         *simrank.Stats
	}
	var calls []call
	host, err := startHost()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	err = func() error {
		deadline := begin.Add(time.Duration(seconds) * time.Second)
		for time.Now().Before(deadline) {
			share, d, err := allPairsSetup()
			if err != nil {
				return err
			}
			res.setups = append(res.setups, d.Seconds())
			t := time.Now()
			s, st, err := simrank.Compute(g, opt)
			end := time.Now()
			res.attempted++
			if err != nil {
				return err
			}
			if share != st.ShareRatio {
				return fmt.Errorf("the set-up built a plan saving %v of the additions, Compute's plan %v", share, st.ShareRatio)
			}
			if d := s.MaxDiff(first); d != 0 {
				return fmt.Errorf("call %d differs from the first call by %g", res.attempted, d)
			}
			if err := s.Close(); err != nil {
				return err
			}
			calls = append(calls, call{t, end, st})
			if id := tr.add(0, res.attempted, "simrank.compute", t, end); id != 0 {
				tr.replay(id, "simrank.plan", st.PlanTime)
				tr.replay(id, "simrank.iter", st.ComputeTime)
			}
		}
		return nil
	}()
	rec, hostErr := host.finish()
	for _, e := range []error{err, hostErr} {
		if e != nil {
			return nil, e
		}
	}
	if len(calls) == 0 {
		return nil, fmt.Errorf("no Compute call fit in %d s", seconds)
	}
	res.stealFrac = rec.steal()
	ref, _, err := simrank.Compute(g, simrank.Options{Algorithm: simrank.PsumSR})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	if d := first.MaxDiff(ref); d > allPairsTol {
		return nil, fmt.Errorf("OIP-SR scores differ from psum-SR by %g > %g", d, allPairsTol)
	}
	var durs []float64
	var busy time.Duration
	for _, c := range calls {
		durs = append(durs, ms(c.end.Sub(c.start)))
		busy += c.end.Sub(c.start)
	}
	res.e2e["p50_ms"] = median(durs)
	res.tail = tailOf(durs)
	res.e2e["tail_ms"] = res.tail.Value
	res.e2e["goodput_rps"] = float64(len(durs)) / busy.Seconds()
	res.e2e["peak_rss_mb"] = rec.peakRSS()
	if tr != nil {
		lay := newLayers()
		for _, c := range calls {
			lay.add("simrank.plan_s", c.st.PlanTime.Seconds())
			lay.add("simrank.iter_s", c.st.ComputeTime.Seconds())
		}
		st := calls[0].st
		lay.set("simrank.adds", float64(st.InnerAdds+st.OuterAdds))
		lay.set("simrank.share_ratio", st.ShareRatio)
		lay.set("simrank.aux_mb", float64(st.AuxBytes)/(1<<20))
		lay.set("allpairs_s", res.e2e["p50_ms"]/1000)
		res.layer = lay
	}
	return res, nil
}
