// Command perfbench is the repository's benchmark: open-loop simrankd
// serving (hot-edits) and all-pairs OIP-SR (allpairs), each driven from
// this one process. See README.md for why
// each workload exists and what its metrics mean.
//
//	go run . --workload hot-edits --seed 1 --seconds 32 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric when
// --trace is 0, every per-layer metric when it is 1. A failed
// correctness gate exits 1; a run whose load generator fell behind is
// invalid and exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of untraced runs, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of traced runs, in BENCHMARK.json order. A
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"goodput_rps", "1/s"},
	{"ss_p50_ms", "ms"},
	{"topk_p50_ms", "ms"},
	{"rerank_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"edit_p50_ms", "ms"},
	{"edit_tail_ms", "ms"},
	{"tail_ms", "ms"},
	{"tail_pct", "pct"},
	{"tail_samples", "count"},
	{"fail_frac", "ratio"},
	{"degraded_frac", "ratio"},
	{"index_mb", "MB"},
	{"allpairs_s", "s"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
	{"simrankd.cache_hit_ratio", "ratio"},
	{"simrankd.self_ms", "ms"},
	{"simrankd.read_stall_ms", "ms"},
	{"simrankd.shed", "count"},
	{"simrankd.degraded", "count"},
	{"query.single_source_ms", "ms"},
	{"query.rank_ms", "ms"},
	{"query.rerank_ms", "ms"},
	{"query.multi_source_ms", "ms"},
	{"query.apply_edits_ms", "ms"},
	{"query.build_s", "s"},
	{"query.open_s", "s"},
	{"query.prepare_updates_s", "s"},
	{"walkindex.sweep_dense_ms", "ms"},
	{"walkindex.sweep_mapped_ms", "ms"},
	{"walkindex.decode_overhead_ms", "ms"},
	{"walkindex.repair_ms", "ms"},
	{"walkindex.walks_repaired", "count"},
	{"walkindex.dirty_vertices", "count"},
	{"walkindex.stream_build_s", "s"},
	{"walkindex.index_bytes", "bytes"},
	{"graph.apply_edits_ms", "ms"},
	{"shard.partial_scores_ms", "ms"},
	{"simrank.plan_s", "s"},
	{"simrank.iter_s", "s"},
	{"simrank.adds", "count"},
	{"simrank.share_ratio", "ratio"},
	{"simrank.aux_mb", "MB"},
	{"gen.late_ms", "ms"},
	{"gen.backlog", "count"},
	{"host.steal_frac", "ratio"},
}

const allPairsName = "allpairs"

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: hot-edits or allpairs")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 32, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	zipfS := flag.Float64("zipf-s", -1, "Zipf exponent of read sources, overriding the workload's own (for sensitivity studies; negative keeps it)")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for results, span and index files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	traced := *trace == 1
	started := time.Now()

	var res *servingResult
	var err error
	params := map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace}
	switch *workload {
	case hotEdits.Name:
		w := hotEdits
		if *zipfS >= 0 {
			w.Spec.ZipfS = *zipfS
		}
		params["n"], params["nominal_rps"], params["ladder"], params["limit_ms"] = w.Spec.N, w.Nominal, w.Ladder, ms(w.Limit)
		params["mix"], params["zipf_s"], params["edit_rate"], params["setups"], params["conns"] = mixString(w.Spec.Mix), w.Spec.ZipfS, w.Spec.EditRate, w.Setups, conns()
		res, err = runServing(w, *seed, *seconds, *outDir, traced)
	case allPairsName:
		params["n"], params["algorithm"] = webN, "oip-sr"
		res, err = runAllPairs(*seed, *seconds, *outDir, traced)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want hot-edits or allpairs)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}

	sum := summary{Correct: res.wrongs == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue)}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		var v float64
		if traced {
			v = res.layer.get(d.Name)
		} else {
			v = res.e2e[d.Name]
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured %v\n", d.Name, v)
			os.Exit(1)
		}
		sum.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}

	record := map[string]any{
		"provenance": provenance(started),
		"params":     params,
		"summary":    sum,
		"end_to_end": res.e2e,
		"tail":       res.tail,
		"rungs":      res.rungs,
		"good_rung":  res.goodRung,
		"setups_s":   res.setups,
		"valid":      res.valid,
		"steal_frac": res.stealFrac,
		"notes":      res.notes,
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", *workload, *seed, *trace, started.UTC().Format("20060102T150405.000"))
	if err := writeJSON(filepath.Join(*outDir, "results", name), record); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing results: %v\n", err)
		os.Exit(1)
	}

	for _, d := range defs {
		fmt.Printf("%-30s %14.6g %s\n", d.Name, sum.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("tail: p%.4g of %d samples, %d beyond it\n", res.tail.Pct, res.tail.N, res.tail.Beyond)
	fmt.Printf("host: %.3g of CPU time stolen by the hypervisor while measuring\n", res.stealFrac)
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	line, _ := json.Marshal(sum) // plain numbers and strings always marshal
	fmt.Println(string(line))
	switch {
	case !sum.Correct:
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", res.wrongs)
		os.Exit(1)
	case !res.valid:
		fmt.Fprintln(os.Stderr, "perfbench: run invalid: the load generator fell behind on the nominal rung")
		os.Exit(2)
	}
}

func mixString(mix []share) string {
	var parts []string
	for _, s := range mix {
		parts = append(parts, fmt.Sprintf("%s:%g", s.Fam, s.Weight))
	}
	return strings.Join(parts, ",")
}

// provenance identifies the code and the host a result came from. The
// commit is the one the binary was built from, when it was built inside
// a git checkout.
func provenance(started time.Time) map[string]any {
	p := map[string]any{
		"commit":     "unknown",
		"dirty":      "unknown",
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"started":    started.UTC().Format(time.RFC3339Nano),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanPath is where a traced run writes its spans.
func spanPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
}
