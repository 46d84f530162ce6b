package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd and perLayer name every metric the harness prints, in
// BENCHMARK.json's order; the smoke test holds the two lists together.
var endToEnd = []metricSpec{
	{"op_s_p50", "s"},
	{"work_per_s", "work/s"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricSpec{
	{"kne.new_ms", "ms"},
	{"kne.start_ms", "ms"},
	{"kne.converge_ms", "ms"},
	{"kne.export_afts_ms", "ms"},
	{"kne.settle_impact_ms", "ms"},
	{"kne.settle_restore_ms", "ms"},
	{"sweep.apply_ms", "ms"},
	{"sweep.rollback_ms", "ms"},
	{"snapchain.snapshot_ms", "ms"},
	{"aft.fingerprint_ms", "ms"},
	{"verify.delta_ms", "ms"},
	{"verify.index_ms", "ms"},
	{"verify.differential_ms", "ms"},
	{"verify.detect_loops_ms", "ms"},
	{"core.build_replicas_ms", "ms"},
	{"sweep.engine_lanes1_ms", "ms"},
	{"sweep.engine_lanes2_ms", "ms"},
	{"store.journal_sync_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.afts_decode_ms", "ms"},
	{"store.save_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.queue_peak", "count"},
	{"sim.events_impact", "count"},
	{"sim.events_restore", "count"},
	{"isis.spf_runs", "count"},
	{"isis.spf_ms", "ms"},
	{"isis.lsps_flooded", "count"},
	{"bgp.updates_in", "count"},
	{"bgp.prefixes_in", "count"},
	{"vrouter.fib_render_ms", "ms"},
	{"aft.entries", "count"},
	{"verify.memo_hit_share", "ratio"},
	{"verify.ec_count", "count"},
	{"verify.flows_per_s", "1/s"},
	{"sweep.candidate_ms_p50", "ms"},
	{"sweep.candidate_ms_p90", "ms"},
	{"sweep.restore_share", "ratio"},
	{"sweep.candidates", "count"},
	{"sweep.applied", "count"},
	{"sweep.verified", "count"},
	{"sweep.pruned_fingerprint", "count"},
	{"sweep.verified_share", "ratio"},
	{"sweep.lane_speedup", "ratio"},
	{"store.journal_bytes", "bytes"},
	{"store.snapshot_bytes", "bytes"},
	{"store.load_mb_per_s", "MB/s"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.gc_cycles", "count"},
	{"proc.peak_rss_mb", "MB"},
	{"trace.coverage_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// layerCalls maps a per-layer time to the layer call whose spans' self time
// it sums per op (a name also matches its "/phase" variants).
var layerCalls = map[string]string{
	"kne.new_ms":             "kne.New",
	"kne.start_ms":           "kne.Start",
	"kne.converge_ms":        "kne.RunUntilConverged",
	"kne.export_afts_ms":     "kne.AFTs",
	"kne.settle_impact_ms":   "kne.Settle/impact",
	"kne.settle_restore_ms":  "kne.Settle/restore",
	"sweep.apply_ms":         "kne.fault",
	"sweep.rollback_ms":      "kne.heal",
	"snapchain.snapshot_ms":  "snapchain.Snapshot",
	"aft.fingerprint_ms":     "aft.Fingerprint",
	"verify.delta_ms":        "verify.DeltaDifferential",
	"verify.index_ms":        "verify.NewNetwork",
	"verify.differential_ms": "verify.Differential",
	"verify.detect_loops_ms": "verify.DetectLoops",
	"core.build_replicas_ms": "core.BuildReplicas",
	"sweep.engine_lanes1_ms": "mfv.RunSweep/lanes1",
	"sweep.engine_lanes2_ms": "mfv.RunSweep/lanes2",
	"store.journal_sync_ms":  "store.Journal.Sync",
	"store.load_ms":          "store.Load",
	"store.afts_decode_ms":   "store.Snapshot.AFTs",
}

// layerCounts are the per-layer metrics the traced drivers count themselves
// at layer boundaries. At a fixed seed they must repeat exactly from op to
// op; a run where one does not is failed.
var layerCounts = []string{
	"sim.events", "sim.queue_peak", "sim.events_impact", "sim.events_restore",
	"isis.spf_runs", "isis.lsps_flooded", "bgp.updates_in", "bgp.prefixes_in",
	"aft.entries", "verify.ec_count", "sweep.candidates", "sweep.applied",
	"sweep.verified", "sweep.pruned_fingerprint", "store.journal_bytes",
	"store.snapshot_bytes",
}

// layerBusy are times the protocol engines publish about themselves on the
// registry the traced driver attaches: time busy inside kne that no span of
// the harness can see.
var layerBusy = []string{"isis.spf_ms", "vrouter.fib_render_ms"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload measured.
type record struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	WorkUnit  string  `json:"work_unit"`
	Warmups   int     `json:"warmup_ops"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	// Noisy is set when the calibration spins before and after the workload
	// disagree by more than 10 %: the machine changed speed underneath it.
	Noisy   bool                   `json:"noisy"`
	SpinMS  [2]float64             `json:"calibration_spin_ms"`
	Errors  []string               `json:"errors,omitempty"`
	Digest  string                 `json:"digest"`
	Counts  map[string]int64       `json:"counts"`
	Metrics map[string]metricValue `json:"metrics"`
	// Samples are the per-op values behind the medians; compare reads the
	// spread from them.
	Samples map[string][]float64 `json:"samples,omitempty"`

	specs []metricSpec
}

const noiseTolerance = 0.10

func (r *record) fail(op int, err error) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf("op %d: %v", op, err))
}

func (r *record) set(name string, v float64) {
	for _, s := range r.specs {
		if s.name == name {
			r.Metrics[name] = metricValue{v, s.unit}
			return
		}
	}
	panic("e2e: metric " + name + " is not declared")
}

// print lists every metric by name with its unit.
func (r *record) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d): %d ops measured after %d warm-up, %d failed, work unit %s\n",
		r.Workload, mode, r.Seed, r.Attempted, r.Warmups, r.Failed, r.WorkUnit)
	for _, s := range r.specs {
		fmt.Fprintf(w, "  %-26s %16.6g %s\n", s.name, r.Metrics[s.name].Value, s.unit)
	}
	fmt.Fprintf(w, "  digest %s\n  counts %v\n", r.Digest, r.Counts)
	if r.Noisy {
		fmt.Fprintf(w, "  NOISY: calibration spin took %.1f ms before and %.1f ms after\n", r.SpinMS[0], r.SpinMS[1])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
func (r *record) contractLine() string {
	data, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	})
	if err != nil {
		panic(err)
	}
	return string(data)
}

// minOps is the fewest measured ops a run makes however short its window.
const minOps = 2

// runWorkload runs one workload's closed loop — one client, ops back to
// back — untraced for the end-to-end metrics or traced for the per-layer
// ones. Inputs are regenerated and outputs checked outside the timed part of
// every op.
func runWorkload(w *workload, c *cfg, o options, processStart time.Time) (*record, []span) {
	rec := &record{
		Workload: w.name, Traced: o.trace, Seed: c.seed, Seconds: o.seconds, WorkUnit: w.unit,
		Warmups: w.warmups, Metrics: map[string]metricValue{}, specs: endToEnd,
	}
	if o.trace {
		rec.specs = perLayer
	}
	for _, s := range rec.specs {
		rec.set(s.name, 0)
	}
	rec.SpinMS[0] = float64(calibrationSpin(c.spinIters())) / 1e6

	var want *golden
	if c.seed == goldenSeed && !c.tiny && !o.updateGolden {
		all, err := loadGolden(goldenJSON)
		if err != nil {
			rec.fail(-1, err)
		} else if g, ok := all[w.name]; ok {
			want = &g
		} else {
			rec.fail(-1, fmt.Errorf("golden.json has no entry for %s", w.name))
		}
	}

	t := newTracer()
	var base *input
	if w.setup != nil {
		var err error
		if base, err = w.setup(c, t); err != nil {
			rec.fail(-1, fmt.Errorf("set-up: %w", err))
			return rec, nil
		}
	}

	// One op: fresh inputs, a collection so every op starts from the same
	// heap, the timed body, then the checks. Every op's digest and counts
	// must equal the first's, and at the golden seed the committed ones.
	var last *outcome
	op := func(i int, traced bool) (wall float64, mem memCounters, ok bool) {
		in := w.input(c, base)
		last = nil // or the previous op's results would stay live through this one
		runtime.GC()
		before := readMem()
		start := time.Now()
		var out *outcome
		var err error
		if traced {
			t.op = i
			t.in(opSpan, func() { out, err = w.trace(c, in, t) })
			t.op = -1
		} else {
			out, err = w.run(c, in)
		}
		wall = time.Since(start).Seconds()
		after := readMem()
		mem = memCounters{after.mallocs - before.mallocs, after.bytes - before.bytes}
		if err == nil {
			err = w.check(c, in, out)
		}
		if err == nil && want == nil {
			want = &golden{out.digest, out.counts}
		}
		if err == nil && out.digest != want.Digest {
			err = fmt.Errorf("semantic digest %s, want %s", out.digest, want.Digest)
		}
		if err == nil && !reflect.DeepEqual(out.counts, want.Counts) {
			err = fmt.Errorf("counts %v, want %v", out.counts, want.Counts)
		}
		if err != nil {
			rec.fail(i, err)
			return wall, mem, false
		}
		last = out
		return wall, mem, true
	}

	var warmWall float64
	for i := 0; i < w.warmups; i++ {
		// Warm-ups are always the untraced op: they bring the heap to its
		// steady size and, in a traced run, are the untraced reference the
		// tracing overhead is measured against.
		wall, _, ok := op(-1-i, false)
		if !ok {
			return rec, nil
		}
		warmWall = wall
	}

	// Set-up is everything from process start to the first measured op —
	// input generation, snapshot files, warm-up ops — less the calibration
	// spin, which is the harness's own.
	setupS := time.Since(processStart).Seconds() - rec.SpinMS[0]/1e3
	gc0 := readGC()
	var walls, allocs, allocMB, work []float64
	var layers []map[string]float64
	// Another op starts only while at least half of it still fits, so the
	// window overshoots --seconds as often as it undershoots.
	loopStart := time.Now()
	for i := 0; i < minOps || time.Since(loopStart).Seconds()+median(walls)/2 < o.seconds; i++ {
		rec.Attempted++
		wall, mem, ok := op(i, o.trace)
		if !ok {
			continue
		}
		walls = append(walls, wall)
		allocs = append(allocs, float64(mem.mallocs))
		allocMB = append(allocMB, float64(mem.bytes)/1e6)
		work = append(work, float64(last.work))
		layers = append(layers, last.layer)
	}
	gc1 := readGC()
	if last != nil {
		rec.Digest, rec.Counts = last.digest, last.counts
	}

	if o.trace {
		layerMetrics(rec, t, layers, walls, warmWall)
		rec.set("proc.gc_cpu_share", (gc1.gcCPU-gc0.gcCPU)/math.Max(gc1.busyCPU-gc0.busyCPU, 1e-9))
		rec.set("proc.gc_cycles", (gc1.cycles-gc0.cycles)/math.Max(float64(len(walls)), 1))
		rec.set("proc.peak_rss_mb", peakRSSMB())
	} else if len(walls) > 0 {
		rec.Samples = map[string][]float64{"op_s_p50": walls, "allocs_per_op": allocs, "alloc_mb_per_op": allocMB}
		rec.set("op_s_p50", median(walls))
		// Per-op rates, then their median: one stalled op in a window of
		// five would move a mean by several percent.
		rates := make([]float64, len(walls))
		for i := range walls {
			rates[i] = work[i] / walls[i]
		}
		rec.set("work_per_s", median(rates))
		rec.set("allocs_per_op", sum(allocs)/float64(len(allocs)))
		rec.set("alloc_mb_per_op", sum(allocMB)/float64(len(allocMB)))
		rec.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(last)
		rec.set("setup_s", setupS)
	}

	rec.SpinMS[1] = float64(calibrationSpin(c.spinIters())) / 1e6
	lo, hi := math.Min(rec.SpinMS[0], rec.SpinMS[1]), math.Max(rec.SpinMS[0], rec.SpinMS[1])
	rec.Noisy = hi > lo*(1+noiseTolerance)
	rec.Correct = rec.Failed == 0
	return rec, t.spans
}

// layerMetrics turns the traced ops' spans and boundary counts into the
// per-layer metrics: times are per-op medians of span self time, counts are
// what the drivers counted in every op alike.
func layerMetrics(rec *record, t *tracer, layers []map[string]float64, walls []float64, untracedWall float64) {
	ops := len(layers)
	if ops == 0 {
		return
	}
	for metric, call := range layerCalls {
		rec.set(metric, median(t.selfPerOp(call, ops)))
	}
	rec.set("store.save_ms", median(t.durations("store.Snapshot.Save", true)))
	perOp := func(key string) []float64 {
		xs := make([]float64, ops)
		for i, layer := range layers {
			xs[i] = layer[key]
		}
		return xs
	}
	for _, key := range layerCounts {
		xs := perOp(key)
		for i, x := range xs {
			if x != xs[0] {
				rec.fail(i, fmt.Errorf("%s counted %v, op 0 counted %v: counts must repeat exactly", key, x, xs[0]))
				break
			}
		}
		rec.set(key, xs[0])
	}
	for _, key := range layerBusy {
		rec.set(key, median(perOp(key)))
	}
	// ratio is the per-op median of num/den, zero where the workload never
	// exercises the denominator.
	ratio := func(num, den []float64) float64 {
		var rs []float64
		for i := range num {
			if den[i] > 0 {
				rs = append(rs, num[i]/den[i])
			}
		}
		return median(rs)
	}
	seconds := func(call string) []float64 {
		xs := t.selfPerOp(call, ops)
		for i := range xs {
			xs[i] /= 1e3
		}
		return xs
	}
	rec.set("sim.events_per_s", ratio(perOp("sim.events"), seconds("kne.RunUntilConverged")))
	rec.set("verify.flows_per_s", ratio(perOp("verify.flows"), seconds("verify.Differential")))
	loadedMB := perOp("store.snapshot_bytes")
	for i := range loadedMB {
		loadedMB[i] /= 1e6
	}
	rec.set("store.load_mb_per_s", ratio(loadedMB, seconds("store.Load")))
	hits, misses := perOp("verify.memo_hits"), perOp("verify.memo_misses")
	for i := range misses {
		misses[i] += hits[i]
	}
	rec.set("verify.memo_hit_share", ratio(hits, misses))
	rec.set("sweep.verified_share", ratio(perOp("sweep.verified"), perOp("sweep.applied")))
	rec.set("sweep.lane_speedup", ratio(t.selfPerOp("mfv.RunSweep/lanes1", ops), t.selfPerOp("mfv.RunSweep/lanes2", ops)))

	cands := t.durations(candidateSpan, false)
	rec.set("sweep.candidate_ms_p50", median(cands))
	rec.set("sweep.candidate_ms_p90", quantile(cands, 0.9))
	restore := make([]float64, ops)
	for _, call := range []string{"kne.heal", "kne.Settle/restore", "snapchain.Snapshot/restore", "aft.Fingerprint/restore"} {
		for i, ms := range t.selfPerOp(call, ops) {
			restore[i] += ms
		}
	}
	rec.set("sweep.restore_share", ratio([]float64{sum(restore)}, []float64{sum(cands)}))

	rec.set("trace.coverage_share", t.coverage())
	if untracedWall > 0 {
		rec.set("trace.overhead_share", median(walls)/untracedWall-1)
	}
}
