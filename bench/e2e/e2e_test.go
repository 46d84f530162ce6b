package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mfv"
)

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNamesMatchBenchmarkJSON holds the harness's workload and metric tables
// to what BENCHMARK.json at the repository root declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmark(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	var names, want []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, w := range b.Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, want)
	}
	for _, list := range []struct {
		kind  string
		specs []metricSpec
		json  []benchMetric
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		var declared []metricSpec
		for _, m := range list.json {
			declared = append(declared, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(list.specs, declared) {
			t.Errorf("%s: harness prints %v, BENCHMARK.json lists %v", list.kind, list.specs, declared)
		}
	}
}

// TestSmoke runs every workload untraced and traced at WAN(9) scale: all
// checks pass, every declared metric and no other is emitted, and the traced
// driver reproduces the untraced op's digest and exact counts — for the
// sweep, that is the harness's candidate loop matching the engine's rows.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var recs [2]*record
			for i, traced := range []bool{false, true} {
				c := &cfg{seed: goldenSeed, tiny: true, dir: t.TempDir()}
				rec, spans := runWorkload(w, c, options{trace: traced}, time.Now())
				if !rec.Correct || rec.Attempted < minOps {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, rec.Failed, rec.Attempted, rec.Errors)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(rec.Metrics) != len(specs) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(rec.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := rec.Metrics[s.name]
					if !ok || v.Unit != s.unit {
						t.Errorf("traced=%v: metric %s missing or in unit %q", traced, s.name, v.Unit)
					}
					if !traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.name, v.Value)
					}
				}
				if traced {
					if len(spans) == 0 {
						t.Error("traced run recorded no spans")
					}
					if cov := rec.Metrics["trace.coverage_share"].Value; cov < 0.9 {
						t.Errorf("trace.coverage_share %.3f, want at least 0.9", cov)
					}
				}
				recs[i] = rec
			}
			if recs[0].Digest != recs[1].Digest || !reflect.DeepEqual(recs[0].Counts, recs[1].Counts) {
				t.Errorf("the traced driver did different work: digest %.12s counts %v, untraced %.12s %v",
					recs[1].Digest, recs[1].Counts, recs[0].Digest, recs[0].Counts)
			}
		})
	}
}

func TestJudge(t *testing.T) {
	lower := benchMetric{Name: "op_s_p50", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "work_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		m           benchMetric
		a, b        float64
		noisy, wide bool
		want        string
	}{
		{lower, 1, 1.05, false, false, "ok"},
		{lower, 1, 1.11, false, false, "regressed"},
		{lower, 1, 0.5, false, false, "ok"},
		{higher, 100, 95, false, false, "ok"},
		{higher, 100, 89, false, false, "regressed"},
		{lower, 1, 1.05, true, false, "unresolved (noisy run)"},
		{lower, 1, 1.05, false, true, "unresolved (spread wider than bound)"},
		{lower, 1, 1.2, true, true, "regressed"},
	} {
		if got := judge(tc.m, tc.a, tc.b, tc.noisy, tc.wide); got != tc.want {
			t.Errorf("judge(%s, %v, %v, noisy=%v, wide=%v) = %q, want %q", tc.m.Name, tc.a, tc.b, tc.noisy, tc.wide, got, tc.want)
		}
	}
}

// TestSpread pins the quartile rule to Python's statistics.quantiles(n=4).
func TestSpread(t *testing.T) {
	xs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := spread([]float64{16, 1, 8, 2, 4}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
}

// TestOracle checks the checker: on a three-router line the BFS must see the
// middle link as a cut edge, and a sweep row that contradicts it must fail.
func TestOracle(t *testing.T) {
	topo := mfv.LineTopology(3, mfv.VendorEOS)
	first, second := topo.Links[0].A.String(), topo.Links[1].A.String()
	if !connected(components(topo, nil, nil)) {
		t.Fatal("intact line is not connected")
	}
	if connected(components(topo, map[string]bool{second: true}, nil)) {
		t.Fatal("line with a link cut is still connected")
	}
	if !connected(components(topo, nil, map[string]bool{topo.Nodes[2].Name: true})) {
		t.Fatal("line without its last router is not connected")
	}
	rows := []candRow{
		{failure: "link " + first, k: 1, lost: 4},
		{failure: "link " + second, k: 1, lost: 4},
		{failure: "node " + topo.Nodes[0].Name, k: 1, lost: 2},
		{failure: "node " + topo.Nodes[1].Name, k: 1, lost: 6},
		{failure: "node " + topo.Nodes[2].Name, k: 1, lost: 2},
	}
	if err := checkSweepRows(topo, rows); err != nil {
		t.Fatalf("consistent rows rejected: %v", err)
	}
	rows[1].lost = 0
	if err := checkSweepRows(topo, rows); err == nil {
		t.Fatal("a cut link that loses no flow was accepted")
	}
	rows[1].lost = 4
	if err := checkSweepRows(topo, rows[:4]); err == nil {
		t.Fatal("a sweep that skipped a router was accepted")
	}
}
