package main

// The traced drivers run each workload's op layer by layer: they call the
// layers' public functions themselves, in the order core.Run and the sweep
// engine call them, with a span around every call and counts read at the same
// boundaries. Their outcomes go through the same checks and digests as the
// untraced op, so the ledger measures the same work — but end-to-end numbers
// never come from here.

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"time"

	"mfv"
	"mfv/internal/aft"
	"mfv/internal/core"
	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/sim"
	"mfv/internal/snapchain"
	"mfv/internal/store"
	"mfv/internal/sweep"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// The defaults core.Options and the sweep engine fill in. The traced drivers
// make the layer calls themselves and have to pass the same values; the
// digest comparison against the untraced op fails if they drift apart.
const (
	convergenceHold    = 30 * time.Second
	convergenceTimeout = 2 * time.Hour
	sweepHold          = 2 * time.Minute
	sweepTimeout       = 30 * time.Minute
	sweepAlignQuantum  = 3 * time.Minute
	journalChunk       = 32
)

// converge is core.Run's emulation path as separate layer calls. Time spent
// inside kne by isis, bgp, vrouter and sim is attributed from the counters
// those packages publish on the attached registry.
func converge(c *cfg, in *input, t *tracer, layer map[string]float64) (*mfv.Result, *obs.Observer, error) {
	o := obs.NewMetricsOnly()
	var (
		em  *kne.Emulator
		err error
	)
	t.in("kne.New", func() {
		em, err = kne.New(kne.Config{Topology: in.topo, Sim: sim.New(c.seed), Obs: o})
	})
	if err != nil {
		return nil, nil, err
	}
	for _, f := range in.snap.Feeds {
		t.in("kne.AddInjector", func() {
			var inj *kne.Injector
			if inj, err = em.AddInjector(f.Router, f.PeerAddr, f.PeerAS); err != nil {
				return
			}
			for _, feed := range f.Feeds {
				inj.Announce(feed.Prefixes, feed.Attrs)
			}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	t.in("kne.Start", func() { err = em.Start() })
	if err != nil {
		return nil, nil, err
	}
	t.in("kne.RunUntilConverged", func() { _, err = em.RunUntilConverged(convergenceHold, convergenceTimeout) })
	if err != nil {
		return nil, nil, err
	}
	layer["sim.events"] = float64(em.Sim().Executed())
	layer["sim.queue_peak"] = float64(em.Sim().MaxPending())

	var afts map[string]*aft.AFT
	t.in("kne.AFTs", func() { afts = em.AFTs() })
	for _, a := range afts {
		layer["aft.entries"] += float64(len(a.IPv4Entries))
	}
	var network *verify.Network
	t.in("verify.NewNetwork", func() { network, err = verify.NewNetwork(in.topo, afts) })
	if err != nil {
		return nil, nil, err
	}
	network.SetObserver(o)
	return &mfv.Result{Backend: mfv.BackendEmulation, AFTs: afts, Network: network, Emulator: em}, o, nil
}

// readRegistry copies the whole-op totals of the counters the protocol
// engines publish.
func readRegistry(o *obs.Observer, layer map[string]float64) {
	layer["isis.spf_runs"] = float64(o.Counter("spf_runs_total").Value())
	layer["isis.spf_ms"] = float64(o.Histogram("spf_ns").Sum()) / 1e6
	layer["isis.lsps_flooded"] = float64(o.Counter("lsps_flooded_total").Value())
	layer["bgp.updates_in"] = float64(o.Counter("bgp_updates_total").Value())
	layer["bgp.prefixes_in"] = float64(o.Counter("bgp_prefixes_in_total").Value())
	layer["vrouter.fib_render_ms"] = float64(o.Histogram("fib_recompute_ns").Sum()) / 1e6
	layer["verify.memo_hits"] = float64(o.Counter("verify_memo_hits_total").Value())
	layer["verify.memo_misses"] = float64(o.Counter("verify_memo_misses_total").Value())
}

func traceConverge(c *cfg, in *input, t *tracer) (*outcome, error) {
	layer := map[string]float64{}
	res, o, err := converge(c, in, t, layer)
	if err != nil {
		return nil, err
	}
	readRegistry(o, layer)
	return &outcome{res: res, layer: layer}, nil
}

// candSeed is the sweep engine's per-candidate reseed: fnv64a over the
// candidate's description.
func candSeed(el sweep.Element) int64 {
	h := fnv.New64a()
	io.WriteString(h, el.Describe())
	h.Write([]byte{0})
	return int64(h.Sum64())
}

func applyElement(t *tracer, em *kne.Emulator, el sweep.Element) (err error) {
	switch el.Kind {
	case sweep.KindLink:
		var ep topology.Endpoint
		if ep, err = topology.ParseEndpoint(el.Link); err == nil {
			t.in("kne.fault/SetLinkDown", func() { err = em.SetLinkDown(ep) })
		}
	case sweep.KindNode:
		t.in("kne.fault/FailRouter", func() { err = em.FailRouter(el.Node) })
	case sweep.KindBGP:
		t.in("kne.fault/HoldBGP", func() { err = em.HoldBGP(el.Node) })
	}
	return err
}

func rollbackElement(t *tracer, em *kne.Emulator, el sweep.Element) (err error) {
	switch el.Kind {
	case sweep.KindLink:
		var ep topology.Endpoint
		if ep, err = topology.ParseEndpoint(el.Link); err == nil {
			t.in("kne.heal/SetLinkUp", func() { err = em.SetLinkUp(ep) })
		}
	case sweep.KindNode:
		t.in("kne.heal/RestoreRouter", func() {
			if err = em.RestoreRouter(el.Node); err == nil {
				err = em.AwaitRunning(el.Node, sweepTimeout)
			}
		})
	case sweep.KindBGP:
		t.in("kne.heal/ReleaseBGP", func() { err = em.ReleaseBGP(el.Node) })
	}
	return err
}

// traceSweepLoop is the harness's own single-lane candidate loop over
// sweep.Enumerate: align, reseed, apply, settle, snapshot, fingerprint, roll
// back, settle, snapshot, drift-check, and a delta differential for every
// fingerprint not seen before — the engine's evaluate and verifyChunk, one
// span per public call. Its rows are digested like the engine's, so a loop
// that does different work fails the run.
func traceSweepLoop(c *cfg, in *input, t *tracer) (*outcome, error) {
	layer := map[string]float64{}
	res, o, err := converge(c, in, t, layer)
	if err != nil {
		return nil, err
	}
	em := res.Emulator
	chain := snapchain.New(em, in.topo, o)
	chain.SetWorkers(1)
	t.in("snapchain.Snapshot/baseline", func() { _, err = chain.Snapshot() })
	if err != nil {
		return nil, err
	}
	t.in("kne.StateFingerprint", func() { em.StateFingerprint() })
	var elems []sweep.Element
	t.in("sweep.Enumerate", func() { elems = sweep.Enumerate(em, in.topo, nil) })

	type verdict struct{ lost, changed int }
	verdicts := map[string]verdict{}
	rep := &mfv.SweepReport{K: 1, Replicas: 1, Candidates: len(elems)}
	rows := make([]candRow, 0, len(elems))
	epoch := 0
	clk := em.Sim()
	candidate := func(el sweep.Element) error {
		t.in("kne.AlignClock", func() { em.AlignClock(sweepAlignQuantum) })
		clk.Reseed(candSeed(el))
		base := *chain.Last()
		injected := clk.Now()
		if err := applyElement(t, em, el); err != nil {
			return err
		}
		var conv kne.Convergence
		events := clk.Executed()
		t.in("kne.Settle/impact", func() { conv = em.Settle(sweepHold, sweepTimeout) })
		layer["sim.events_impact"] += float64(clk.Executed() - events)
		var impact, restored snapchain.Snap
		var err error
		t.in("snapchain.Snapshot/impact", func() { impact, err = chain.Snapshot() })
		if err != nil {
			return err
		}
		dirty := snapchain.DiffStamps(base.Stamps, impact.Stamps)
		var key strings.Builder
		fmt.Fprintf(&key, "epoch=%d;", epoch)
		t.in("aft.Fingerprint/impact", func() {
			for _, name := range dirty {
				var before, after string
				if a := base.AFTs[name]; a != nil {
					before = a.Fingerprint()
				}
				if a := impact.AFTs[name]; a != nil {
					after = a.Fingerprint()
				}
				fmt.Fprintf(&key, "%s:%s>%s;", name, before, after)
			}
		})

		if err := rollbackElement(t, em, el); err != nil {
			return err
		}
		events = clk.Executed()
		t.in("kne.Settle/restore", func() { em.Settle(sweepHold, sweepTimeout) })
		layer["sim.events_restore"] += float64(clk.Executed() - events)
		t.in("snapchain.Snapshot/restore", func() { restored, err = chain.Snapshot() })
		if err != nil {
			return err
		}
		drifted := false
		t.in("aft.Fingerprint/restore", func() {
			for _, name := range snapchain.DiffStamps(base.Stamps, restored.Stamps) {
				b, r := base.AFTs[name], restored.AFTs[name]
				if b == nil || r == nil || b.Fingerprint() != r.Fingerprint() {
					drifted = true
					return
				}
			}
		})
		if drifted {
			// The engine tags later fingerprints with the drift epoch and
			// reports the residue; the check rejects any residue.
			epoch++
			if len(chain.Differential(base, restored)) > 0 {
				rep.Residue++
			}
		}

		v, seen := verdicts[key.String()]
		if seen {
			rep.PrunedFingerprint++
		} else {
			var diffs []verify.Diff
			t.in("verify.DeltaDifferential", func() {
				diffs = verify.Queries{Workers: 1}.DeltaDifferential(base.Net, impact.Net, dirty)
			})
			v = verdict{len(snapchain.LostFlows(diffs)), len(diffs)}
			verdicts[key.String()] = v
			rep.Verified++
		}
		rep.Applied++
		if v.lost > 0 {
			rep.Violations++
		}
		reconverged := conv.ConvergedAt - injected
		if reconverged < 0 {
			reconverged = 0
		}
		rows = append(rows, candRow{el.Describe(), 1, v.lost, v.changed, len(dirty), reconverged})
		return nil
	}
	for _, el := range elems {
		t.in(candidateSpan, func() { err = candidate(el) })
		if err != nil {
			return nil, fmt.Errorf("candidate %s: %w", el.Describe(), err)
		}
	}
	sortRows(rows)
	readRegistry(o, layer)
	layer["sweep.candidates"] = float64(rep.Candidates)
	layer["sweep.applied"] = float64(rep.Applied)
	layer["sweep.verified"] = float64(rep.Verified)
	layer["sweep.pruned_fingerprint"] = float64(rep.PrunedFingerprint)
	return &outcome{res: res, rep: rep, rows: rows, layer: layer}, nil
}

// traceSweepLanes covers what the two-lane sweep adds to the single-lane
// one: the replica build, the journal's create/append/sync sequence for the
// same entries, and the engine itself as one span per lane count (their
// ratio is the in-run lane speed-up). Candidate-level spans come from
// sweep-wan30-k1.
func traceSweepLanes(c *cfg, in *input, t *tracer) (*outcome, error) {
	layer := map[string]float64{}
	res, o, err := converge(c, in, t, layer)
	if err != nil {
		return nil, err
	}
	em := res.Emulator

	var want string
	t.in("kne.StateFingerprint", func() { want = em.StateFingerprint() })
	var replicas []*kne.Emulator
	t.in("core.BuildReplicas", func() { replicas, err = core.BuildReplicas(em, 1, want, sweepHold, sweepTimeout) })
	if err != nil {
		return nil, err
	}
	for _, r := range replicas {
		r.Stop()
	}

	var rep *mfv.SweepReport
	t.in("mfv.RunSweep/lanes2", func() {
		rep, err = mfv.RunSweep(res, in.topo, mfv.SweepOptions{K: 1, Workers: 2, JournalDir: c.journalDir()})
	})
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(store.SweepJournalPath(c.journalDir())); err == nil {
		layer["store.journal_bytes"] = float64(fi.Size())
	}

	// The engine's journal writes, replayed with the rows it just produced.
	var j *store.Journal
	t.in("store.CreateJournal", func() {
		j, err = store.CreateJournal(store.SweepJournalPath(c.dir+"/journal-replay"), store.JournalHeader{Version: store.JournalVersion})
	})
	if err != nil {
		return nil, err
	}
	for i, row := range rep.Rows {
		t.in("store.Journal.Append", func() {
			err = j.Append(store.JournalEntry{
				Index: i, Cand: row.Failure, ReconvNS: int64(row.ReconvergedIn), Pruned: row.Pruned,
				Lost: row.FlowsLost, Changed: row.FlowsChanged, Diffs: row.Diffs,
			})
		})
		if err == nil && ((i+1)%journalChunk == 0 || i == len(rep.Rows)-1) {
			t.in("store.Journal.Sync", func() { err = j.Sync() })
		}
		if err != nil {
			j.Close()
			return nil, err
		}
	}
	t.in("store.Journal.Close", func() { err = j.Close() })
	if err != nil {
		return nil, err
	}

	var single *mfv.Result
	t.in("mfv.Run", func() { single, err = mfv.Run(in.snap, mfv.Options{Seed: c.seed}) })
	if err != nil {
		return nil, err
	}
	var rep1 *mfv.SweepReport
	t.in("mfv.RunSweep/lanes1", func() {
		rep1, err = mfv.RunSweep(single, in.topo, mfv.SweepOptions{K: 1, Workers: 1})
	})
	if err != nil {
		return nil, err
	}
	rows, rows1 := reportRows(rep), reportRows(rep1)
	for i := range rows {
		if i >= len(rows1) || rows[i] != rows1[i] {
			return nil, fmt.Errorf("two-lane sweep row %q differs from the single-lane sweep's", rows[i].failure)
		}
	}
	readRegistry(o, layer)
	return &outcome{res: res, rep: rep, rows: rows, layer: layer}, nil
}

func traceQuery(c *cfg, in *input, t *tracer) (*outcome, error) {
	layer := map[string]float64{}
	o := obs.NewMetricsOnly()
	var (
		restored [2]*mfv.Result
		err      error
	)
	for i, path := range []string{in.before, in.after} {
		var s *store.Snapshot
		t.in("store.Load", func() { s, err = store.Load(path) })
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(path); err == nil {
			layer["store.snapshot_bytes"] += float64(fi.Size())
		}
		var topo *topology.Topology
		t.in("store.Snapshot.Topology", func() { topo, err = s.Topology() })
		if err != nil {
			return nil, err
		}
		var afts map[string]*aft.AFT
		t.in("store.Snapshot.AFTs", func() { afts, err = s.AFTs() })
		if err != nil {
			return nil, err
		}
		var network *verify.Network
		t.in("verify.NewNetwork", func() { network, err = verify.NewNetwork(topo, afts) })
		if err != nil {
			return nil, err
		}
		network.SetObserver(o)
		network.SetWorkers(1)
		restored[i] = &mfv.Result{Backend: mfv.BackendSnapshot, AFTs: afts, Network: network}
	}
	before, after := restored[0].Network, restored[1].Network
	t.in("verify.EquivalenceClasses", func() {
		layer["verify.ec_count"] = float64(len(before.EquivalenceClasses()))
		after.EquivalenceClasses()
	})
	layer["verify.flows"] = layer["verify.ec_count"] * float64(len(before.Devices()))
	out := &outcome{res: restored[0], after: restored[1], layer: layer}
	t.in("verify.Differential", func() { out.diffs = verify.Differential(before, after) })
	t.in("verify.DetectLoops", func() { out.loops = len(after.DetectLoops()) })
	readRegistry(o, layer)
	return out, nil
}
