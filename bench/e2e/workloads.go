package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"

	"mfv"
	"mfv/internal/store"
)

// cfg is what one run of one workload is parameterised by.
type cfg struct {
	seed int64
	// tiny shrinks every network to WAN(9) and the feed to 200 prefixes:
	// the smoke test's scale.
	tiny bool
	// dir is the run's scratch directory (snapshot files, sweep journal).
	dir string
}

func (c *cfg) routers(full int) int {
	if c.tiny {
		return 9
	}
	return full
}

// spinIters sizes the calibration spin: about 200 ms on the reference machine
// (2-core Xeon 2.6 GHz).
func (c *cfg) spinIters() int {
	if c.tiny {
		return 1_000_000
	}
	return 220_000_000
}

func (c *cfg) feedPrefixes() int {
	if c.tiny {
		return 200
	}
	return 20000
}

// input is what one op starts from. Emulation workloads get a freshly
// generated topology and feed for every op, so nothing an earlier op cached
// on its inputs can make a later one warm.
type input struct {
	topo *mfv.Topology
	snap mfv.Snapshot
	// query-* only: the snapshot files written in set-up, the link the
	// second one was taken with down, and the diff count computed on the
	// live results before they were saved.
	before, after string
	cut           string
	liveDiffs     int
}

// outcome is what one op produced. run and trace fill the results; check
// derives the work done, the semantic digest and the exact counts.
type outcome struct {
	res   *mfv.Result
	rep   *mfv.SweepReport
	after *mfv.Result // query-*: the second restored snapshot
	diffs []mfv.Diff
	loops int
	// rows are the sweep's per-candidate verdicts, sorted by failure: taken
	// from rep, or produced by the traced candidate loop (which then fills
	// rep's header counts from what it did itself).
	rows []candRow
	// layer holds what the traced driver counted at layer boundaries.
	layer map[string]float64

	work   int64
	digest string
	counts map[string]int64
}

type workload struct {
	name string
	// unit names what one unit of work is.
	unit string
	// warmups is how many unmeasured ops precede the measured ones; their
	// time is part of setup_s.
	warmups int
	// setup runs once before the first op (nil for most workloads).
	setup func(c *cfg, t *tracer) (*input, error)
	// input generates one op's inputs, untimed.
	input func(c *cfg, base *input) *input
	// run is one op through the public mfv API, as cmd/mfv makes the calls.
	run func(c *cfg, in *input) (*outcome, error)
	// trace is the same op driven layer by layer with a span around every
	// public call.
	trace func(c *cfg, in *input, t *tracer) (*outcome, error)
	// check validates an op's outputs, untimed.
	check func(c *cfg, in *input, out *outcome) error
}

// Every workload, in the order BENCHMARK.json lists them. The names are
// fixed: later issues cite them.
var workloads = []*workload{
	{
		name: "sweep-wan30-k1", unit: "failures", warmups: 1,
		input: wanInput(30, false),
		run:   runSweep(1), trace: traceSweepLoop, check: checkSweep(1),
	},
	{
		name: "sweep-wan30-k1-lanes2", unit: "failures", warmups: 1,
		input: wanInput(30, false),
		run:   runSweep(2), trace: traceSweepLanes, check: checkSweep(2),
	},
	{
		name: "converge-wan200", unit: "routers", warmups: 2,
		input: wanInput(200, false),
		run:   runConverge, trace: traceConverge, check: checkConverge("routers"),
	},
	{
		name: "converge-wan30-feed20k", unit: "fib_entries", warmups: 2,
		input: wanInput(30, true),
		run:   runConverge, trace: traceConverge, check: checkConverge("fib_entries"),
	},
	{
		name: "query-snapshot-feed20k", unit: "flows", warmups: 1,
		setup: setupQuery,
		input: func(c *cfg, base *input) *input { return base },
		run:   runQuery, trace: traceQuery, check: checkQuery,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// wanInput generates WAN(n, multi-vendor), optionally with a seed-derived
// full-table feed injected on the first router — the paper's E6 shape.
func wanInput(n int, feed bool) func(c *cfg, _ *input) *input {
	return func(c *cfg, _ *input) *input {
		topo := mfv.WAN(c.routers(n), true)
		in := &input{topo: topo, snap: mfv.Snapshot{Topology: topo}}
		if feed {
			in.snap.Feeds = []mfv.InjectedFeed{{
				Router:   topo.Nodes[0].Name,
				PeerAddr: netip.MustParseAddr("198.51.100.1"),
				PeerAS:   64700,
				Feeds:    mfv.NewFeedGenerator(c.seed).FullTable(64700, c.feedPrefixes()),
			}}
		}
		return in
	}
}

func (c *cfg) journalDir() string { return filepath.Join(c.dir, "journal") }

func runSweep(lanes int) func(c *cfg, in *input) (*outcome, error) {
	return func(c *cfg, in *input) (*outcome, error) {
		res, err := mfv.Run(in.snap, mfv.Options{Seed: c.seed})
		if err != nil {
			return nil, err
		}
		opts := mfv.SweepOptions{K: 1, Workers: lanes}
		if lanes > 1 {
			opts.JournalDir = c.journalDir()
		}
		rep, err := mfv.RunSweep(res, in.topo, opts)
		if err != nil {
			return nil, err
		}
		return &outcome{res: res, rep: rep, rows: reportRows(rep)}, nil
	}
}

func reportRows(rep *mfv.SweepReport) []candRow {
	rows := make([]candRow, len(rep.Rows))
	for i, r := range rep.Rows {
		rows[i] = candRow{r.Failure, r.K, r.FlowsLost, r.FlowsChanged, r.DirtyRouters, r.ReconvergedIn}
	}
	sortRows(rows)
	return rows
}

func checkSweep(lanes int) func(c *cfg, in *input, out *outcome) error {
	return func(c *cfg, in *input, out *outcome) error {
		if err := checkLoopbacks(in.topo, out.res.Network, nil, c.seed); err != nil {
			return err
		}
		if err := checkSweepRows(in.topo, out.rows); err != nil {
			return err
		}
		d := newDigest()
		d.afts(out.res.AFTs)
		d.rows(out.rows)
		out.digest = d.hex()
		out.work = int64(len(out.rows))
		violations := 0
		for _, r := range out.rows {
			if r.lost > 0 {
				violations++
			}
		}
		rep := out.rep
		out.counts = map[string]int64{
			"candidates":         int64(len(out.rows)),
			"violations":         int64(violations),
			"applied":            int64(rep.Applied),
			"verified":           int64(rep.Verified),
			"pruned_fingerprint": int64(rep.PrunedFingerprint),
		}
		if rep.Interrupted || rep.Poisoned > 0 || rep.Residue > 0 {
			return fmt.Errorf("sweep did not complete cleanly: interrupted=%v poisoned=%d residue=%d", rep.Interrupted, rep.Poisoned, rep.Residue)
		}
		if rep.Violations != violations || rep.Candidates != len(out.rows) {
			return fmt.Errorf("sweep header says %d candidates / %d violations, rows say %d / %d", rep.Candidates, rep.Violations, len(out.rows), violations)
		}
		if rep.Replicas != lanes {
			return fmt.Errorf("sweep ran on %d lanes, want %d", rep.Replicas, lanes)
		}
		if lanes > 1 {
			// The journal is one header line plus one line per candidate.
			data, err := os.ReadFile(store.SweepJournalPath(c.journalDir()))
			if err != nil {
				return err
			}
			if lines := bytes.Count(data, []byte{'\n'}); lines != len(out.rows)+1 {
				return fmt.Errorf("sweep journal has %d lines, want %d", lines, len(out.rows)+1)
			}
		}
		return nil
	}
}

func runConverge(c *cfg, in *input) (*outcome, error) {
	res, err := mfv.Run(in.snap, mfv.Options{Seed: c.seed})
	if err != nil {
		return nil, err
	}
	return &outcome{res: res}, nil
}

func checkConverge(unit string) func(c *cfg, in *input, out *outcome) error {
	return func(c *cfg, in *input, out *outcome) error {
		if err := checkLoopbacks(in.topo, out.res.Network, nil, c.seed); err != nil {
			return err
		}
		d := newDigest()
		entries := d.afts(out.res.AFTs)
		out.digest = d.hex()
		out.counts = map[string]int64{"routers": int64(len(out.res.AFTs)), "fib_entries": int64(entries)}
		out.work = out.counts[unit]
		if len(out.res.AFTs) != len(in.topo.Nodes) {
			return fmt.Errorf("extracted %d AFTs for %d routers", len(out.res.AFTs), len(in.topo.Nodes))
		}
		// Same seed, same event sequence: the count must repeat exactly.
		out.counts["sim_events"] = int64(out.res.Emulator.Sim().Executed())
		return nil
	}
}

// setupQuery converges the feed network twice — healthy, and with one
// seed-chosen link down — saves both as snapshot files, and records the diff
// count the live results give.
func setupQuery(c *cfg, t *tracer) (*input, error) {
	in := wanInput(30, true)(c, nil)
	link := in.topo.Links[rand.New(rand.NewSource(c.seed)).Intn(len(in.topo.Links))].A
	in.cut = link.String()
	in.before = filepath.Join(c.dir, "before.snap")
	in.after = filepath.Join(c.dir, "after.snap")

	healthy, err := mfv.Run(in.snap, mfv.Options{Seed: c.seed})
	if err != nil {
		return nil, err
	}
	cutSnap := in.snap
	cutSnap.DownLinks = []mfv.Endpoint{link}
	cut, err := mfv.Run(cutSnap, mfv.Options{Seed: c.seed})
	if err != nil {
		return nil, err
	}
	in.liveDiffs = len(mfv.DifferentialReachability(healthy, cut))
	for path, res := range map[string]*mfv.Result{in.before: healthy, in.after: cut} {
		s, err := mfv.CaptureSnapshot(in.topo, res)
		if err != nil {
			return nil, err
		}
		t.in("store.Snapshot.Save", func() { err = mfv.SaveSnapshot(s, path) })
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func runQuery(c *cfg, in *input) (*outcome, error) {
	var restored [2]*mfv.Result
	for i, path := range []string{in.before, in.after} {
		s, err := mfv.LoadSnapshot(path)
		if err != nil {
			return nil, err
		}
		if restored[i], err = mfv.RunFromSnapshot(s, mfv.Options{Workers: 1}); err != nil {
			return nil, err
		}
	}
	out := &outcome{res: restored[0], after: restored[1]}
	out.diffs = mfv.DifferentialReachability(restored[0], restored[1])
	out.loops = len(restored[1].Network.DetectLoops())
	return out, nil
}

func checkQuery(c *cfg, in *input, out *outcome) error {
	if err := checkLoopbacks(in.topo, out.res.Network, nil, c.seed); err != nil {
		return err
	}
	if err := checkLoopbacks(in.topo, out.after.Network, map[string]bool{in.cut: true}, c.seed); err != nil {
		return err
	}
	d := newDigest()
	entries := d.afts(out.res.AFTs)
	entries += d.afts(out.after.AFTs)
	d.diffs(out.diffs)
	out.digest = d.hex()
	ecs := len(out.res.Network.EquivalenceClasses())
	out.work = int64(ecs * len(out.res.Network.Devices()))
	out.counts = map[string]int64{
		"fib_entries": int64(entries),
		"ecs":         int64(ecs),
		"flows":       out.work,
		"diffs":       int64(len(out.diffs)),
	}
	if len(out.diffs) != in.liveDiffs {
		return fmt.Errorf("differential from disk found %d diffs, the live results gave %d", len(out.diffs), in.liveDiffs)
	}
	if out.loops != 0 {
		return fmt.Errorf("DetectLoops found %d loops in a converged IGP", out.loops)
	}
	return nil
}
