package main

import (
	"fmt"
	"os"
	"reflect"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: which metrics
// are end to end, which way is better, and how much worse is a regression.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// sampleKey says which per-op samples carry a metric's run-to-run spread;
// work_per_s moves with the op walls, and set-up and live heap are measured
// once per run.
var sampleKey = map[string]string{
	"op_s_p50": "op_s_p50", "work_per_s": "op_s_p50",
	"allocs_per_op": "allocs_per_op", "alloc_mb_per_op": "alloc_mb_per_op",
}

// judge gives one metric's verdict: regressed when B is worse than A by more
// than the bound; otherwise unresolved, not ok, when the measurement could
// not have shown a change of that size.
func judge(m benchMetric, a, b float64, noisy, wide bool) string {
	worse := (b - a) / a
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case noisy:
		return "unresolved (noisy run)"
	case wide:
		return "unresolved (spread wider than bound)"
	}
	return "ok"
}

// compareMain prints, per workload and metric, both files' values, their
// ratio and its base, the bound, and a verdict: ok, regressed, or unresolved
// where the spread is wider than the bound or a calibration spin flagged the
// run noisy. It returns 1 on any regression or differing digest.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2e compare A.json B.json   (run from the repository root; A is the base)")
		return 2
	}
	var bench benchmarkFile
	if err := readJSON("BENCHMARK.json", &bench); err != nil {
		fatal(err)
	}
	var a, b results
	if err := readJSON(args[0], &a); err != nil {
		fatal(err)
	}
	if err := readJSON(args[1], &b); err != nil {
		fatal(err)
	}
	fmt.Printf("A: %s  commit %s  (%s)\nB: %s  commit %s  (%s)\n",
		args[0], a.Stamp.Commit, a.Stamp.machine(), args[1], b.Stamp.Commit, b.Stamp.machine())
	sa, sb := a.Stamp, b.Stamp
	sa.Commit, sb.Commit = "", ""
	if !reflect.DeepEqual(sa, sb) {
		fmt.Println("WARNING: the two files were not measured the same way (machine, seed, run length or op counts differ); ratios across them are not comparisons of the code")
	}

	find := func(r results, workload string, traced bool) *record {
		for _, rec := range r.Runs {
			if rec.Workload == workload && rec.Traced == traced {
				return rec
			}
		}
		return nil
	}
	regressed := false
	for _, w := range bench.Workloads {
		ra, rb := find(a, w.Name, false), find(b, w.Name, false)
		if ra == nil || rb == nil {
			fmt.Printf("\n%s: missing from one file\n", w.Name)
			regressed = true
			continue
		}
		fmt.Printf("\n%s  (ops %d vs %d)\n", w.Name, ra.Attempted, rb.Attempted)
		fmt.Printf("  %-18s %14s %14s %-8s %10s %7s  %s\n", "metric", "A", "B", "unit", "B/A", "bound", "verdict")
		noisy := ra.Noisy || rb.Noisy
		for _, m := range bench.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			wide := spread(ra.Samples[sampleKey[m.Name]]) > m.Bound || spread(rb.Samples[sampleKey[m.Name]]) > m.Bound
			verdict := judge(m, va, vb, noisy, wide)
			regressed = regressed || verdict == "regressed"
			fmt.Printf("  %-18s %14.6g %14.6g %-8s %10.4f %6.0f%%  %s\n", m.Name, va, vb, m.Unit, vb/va, m.Bound*100, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Printf("  FAILED OPS: %d of %d vs %d of %d\n", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			regressed = true
		}
		if ra.Seed == rb.Seed {
			if ra.Digest != rb.Digest || !reflect.DeepEqual(ra.Counts, rb.Counts) {
				fmt.Printf("  OUTPUT DIFFERS at the same seed: digest %.12s vs %.12s, counts %v vs %v\n", ra.Digest, rb.Digest, ra.Counts, rb.Counts)
				regressed = true
			} else {
				fmt.Printf("  digest and exact counts identical\n")
			}
		}
		ta, tb := find(a, w.Name, true), find(b, w.Name, true)
		if ta == nil || tb == nil {
			continue
		}
		fmt.Printf("  per layer (traced pass, no bounds; B/A has A as its base):\n")
		for _, m := range bench.PerLayer {
			va, vb := ta.Metrics[m.Name].Value, tb.Metrics[m.Name].Value
			if va == 0 && vb == 0 {
				continue
			}
			ratio := "-"
			if va != 0 {
				ratio = fmt.Sprintf("%.4f", vb/va)
			}
			fmt.Printf("    %-26s %14.6g %14.6g %-6s %10s\n", m.Name, va, vb, m.Unit, ratio)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
