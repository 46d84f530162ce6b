package sweep

import (
	"context"
	"strings"
	"testing"
	"time"

	"mfv/internal/kne"
	"mfv/internal/sim"
	"mfv/internal/snapchain"
	"mfv/internal/testnet"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

func boot(t *testing.T, topo *topology.Topology, seed int64) *kne.Emulator {
	t.Helper()
	em, err := kne.New(kne.Config{Topology: topo, Sim: sim.New(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(30*time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	return em
}

// sweepFig2 boots a fresh Fig. 2 emulation and sweeps it. Fresh emulators per
// run keep the virtual timelines identical, so any table divergence is the
// sweep engine's fault.
func sweepFig2(t *testing.T, opts Options) *Report {
	t.Helper()
	em := boot(t, testnet.Fig2(), 42)
	rep, err := Run(em, testnet.Fig2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseKinds(t *testing.T) {
	got, err := ParseKinds("bgp, link,bgp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != KindBGP || got[1] != KindLink {
		t.Errorf("ParseKinds = %v, want [bgp link]", got)
	}
	if _, err := ParseKinds("link,pod"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParseKinds(","); err == nil {
		t.Error("empty kind list accepted")
	}
}

// TestEnumerate: canonical order (links, nodes, bgp; each sorted), no
// duplicates, and already-failed elements excluded — a downed link is not a
// candidate, nor is a failed router or any element of it.
func TestEnumerate(t *testing.T) {
	topo := testnet.Fig2()
	em := boot(t, topo, 1)
	all := Enumerate(em, topo, nil)
	if len(all) == 0 {
		t.Fatal("empty enumeration on healthy Fig. 2")
	}
	again := Enumerate(em, topo, nil)
	if len(again) != len(all) {
		t.Fatalf("enumeration not deterministic: %d vs %d", len(all), len(again))
	}
	for i := range all {
		if all[i] != again[i] {
			t.Fatalf("enumeration not deterministic at %d: %v vs %v", i, all[i], again[i])
		}
	}
	rank := map[Kind]int{KindLink: 0, KindNode: 1, KindBGP: 2}
	seen := map[string]bool{}
	for i, el := range all {
		if seen[el.Describe()] {
			t.Errorf("duplicate element %s", el.Describe())
		}
		seen[el.Describe()] = true
		if i > 0 {
			prev := all[i-1]
			if rank[prev.Kind] > rank[el.Kind] ||
				(prev.Kind == el.Kind && prev.Describe() >= el.Describe()) {
				t.Errorf("out of order: %s before %s", prev.Describe(), el.Describe())
			}
		}
	}
	// Fig. 2's P routers run IS-IS only; they must not appear as BGP elements.
	for _, el := range all {
		if el.Kind == KindBGP {
			r, _ := em.Router(el.Node)
			if r.BGP == nil {
				t.Errorf("BGP element for BGP-less router %s", el.Node)
			}
		}
	}

	if err := em.SetLinkDown(topology.Endpoint{Node: "r2", Interface: "Ethernet2"}); err != nil {
		t.Fatal(err)
	}
	if err := em.FailRouter("r5"); err != nil {
		t.Fatal(err)
	}
	filtered := Enumerate(em, topo, nil)
	for _, el := range filtered {
		if el.Kind == KindLink && el.Link == "r2:Ethernet2" {
			t.Error("downed link still enumerated")
		}
		if el.Node == "r5" {
			t.Errorf("failed router still enumerated as %s", el.Describe())
		}
	}
	if len(filtered) >= len(all) {
		t.Errorf("enumeration did not shrink after failures: %d -> %d", len(all), len(filtered))
	}
}

// TestSweepPrunedMatchesBruteK1 is the core determinism acceptance check:
// the pruned sweep's ranked table is byte-identical to the brute-force
// sweep's, at any worker count. The ring and line inputs pin the "any single
// link cut" answer (-k 1 -kinds link, what the deleted cold what-if explorer
// used to compute): a ring absorbs every cut, a line survives none.
func TestSweepPrunedMatchesBruteK1(t *testing.T) {
	const any = -1
	cases := []struct {
		name  string
		mk    func() *topology.Topology
		kinds []Kind
		// wantViolations is the exact violation count as a share of the
		// candidates: 0 = none, 1 = every candidate, any = unchecked.
		wantViolations int
	}{
		{"fig2", testnet.Fig2, nil, any},
		{"ring4-links", func() *topology.Topology { return testnet.ISISFabric(topology.Ring(4, topology.VendorEOS), 0) }, []Kind{KindLink}, 0},
		{"line3-links", func() *topology.Topology { return testnet.ISISFabric(topology.Line(3, topology.VendorEOS), 0) }, []Kind{KindLink}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweepIt := func(opts Options) *Report {
				opts.K, opts.Kinds = 1, tc.kinds
				rep, err := Run(boot(t, tc.mk(), 42), tc.mk(), opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			ref := sweepIt(Options{Brute: true, Workers: 1})
			refTable := ref.Table(0)
			if ref.Verified != ref.Candidates {
				t.Errorf("brute verified %d of %d candidates", ref.Verified, ref.Candidates)
			}
			if ref.PrunedFingerprint != 0 {
				t.Errorf("brute run pruned: %+v", ref)
			}
			if tc.kinds != nil && ref.Candidates != len(tc.mk().Links) {
				t.Errorf("%d candidates, want one per link (%d)", ref.Candidates, len(tc.mk().Links))
			}
			if tc.wantViolations != any && ref.Violations != tc.wantViolations*ref.Candidates {
				t.Errorf("%d of %d link cuts lose flows, want %d:\n%s",
					ref.Violations, ref.Candidates, tc.wantViolations*ref.Candidates, refTable)
			}
			for _, w := range []int{1, 2, 8} {
				rep := sweepIt(Options{Workers: w})
				if got := rep.Table(0); got != refTable {
					t.Errorf("workers=%d: pruned table differs from brute:\n%s\n%s", w, refTable, got)
				}
				if rep.Candidates != ref.Candidates {
					t.Errorf("workers=%d: %d candidates, brute saw %d", w, rep.Candidates, ref.Candidates)
				}
				if rep.Verified > ref.Verified {
					t.Errorf("workers=%d: pruned verified %d > brute %d", w, rep.Verified, ref.Verified)
				}
			}
		})
	}
}

// TestSweepK2PruneSound: at k=2 the pruned sweep must render the brute-force
// sweep's ranked table byte for byte, at any worker count. Triangle and
// Disagree are redundant BGP networks where two cuts that each only reroute
// together isolate a router: a prune that reasons over where FIBs moved
// cannot see the backup path a router keeps in reserve. WAN9 is the
// redundant IGP grid, where most link cuts reroute nothing.
func TestSweepK2PruneSound(t *testing.T) {
	cases := []struct {
		name  string
		mk    func() *topology.Topology
		kinds []Kind
		long  bool
	}{
		{"triangle", testnet.Triangle, nil, false},
		{"disagree", testnet.Disagree, nil, false},
		{"wan9", func() *topology.Topology { return testnet.WAN(9, false) }, []Kind{KindLink, KindBGP}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("full k=2 brute sweep")
			}
			run := func(brute bool, workers int) *Report {
				rep, err := Run(boot(t, tc.mk(), 42), tc.mk(), Options{K: 2, Kinds: tc.kinds, Brute: brute, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(true, 1).Table(0)
			for _, w := range []int{1, 2, 8} {
				if got := run(false, w).Table(0); got != want {
					t.Errorf("workers=%d: pruned k=2 table differs from brute:\n%s\n%s", w, want, got)
				}
			}
		})
	}
}

// TestSweepRestores: after a full sweep (which failed and rebuilt every
// router), the network must deliver every flow exactly as before the sweep,
// and no candidate may report restore residue.
func TestSweepRestores(t *testing.T) {
	topo := testnet.Fig2()
	em := boot(t, topo, 42)
	baseNet, err := verify.NewNetwork(topo, em.AFTs())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(em, topo, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Residue != 0 {
		t.Errorf("%d candidate(s) left restore residue", rep.Residue)
	}
	afterNet, err := verify.NewNetwork(topo, em.AFTs())
	if err != nil {
		t.Fatal(err)
	}
	if diffs := verify.Differential(baseNet, afterNet); len(diffs) != 0 {
		t.Errorf("post-sweep reachability differs from baseline: %v", diffs)
	}
	// Fig. 2 has failures that lose flows (single-homed AS partitions), so
	// the sweep must rank at least one violation first.
	if rep.Violations == 0 {
		t.Error("Fig. 2 k=1 sweep found no violations")
	}
	if len(rep.Rows) > 0 && rep.Rows[0].FlowsLost == 0 {
		t.Error("worst row ranked first has no lost flows despite violations")
	}
	for i, row := range rep.Rows {
		if row.Rank != i+1 {
			t.Errorf("row %d has rank %d", i, row.Rank)
		}
	}
}

// TestSweepInterrupted: an expired context stops the sweep between
// candidates with a partial, Interrupted report.
func TestSweepInterrupted(t *testing.T) {
	em := boot(t, testnet.Fig2(), 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(em, testnet.Fig2(), Options{K: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("canceled context did not mark the report interrupted")
	}
	if rep.Applied != 0 {
		t.Errorf("canceled context still applied %d candidates", rep.Applied)
	}
	if !strings.Contains(rep.String(), "interrupted") {
		t.Error("report text does not mention the interruption")
	}
}

func TestSweepRejectsBadK(t *testing.T) {
	em := boot(t, testnet.Fig2(), 1)
	for _, k := range []int{0, 3, -1} {
		if _, err := Run(em, testnet.Fig2(), Options{K: k}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

// TestSweepWANPruningInvariance is the acceptance check at WAN scale: on the
// 30-node multi-vendor WAN the pruned k=1 sweep must produce a byte-identical
// ranked table to brute force — while verifying strictly fewer candidates.
func TestSweepWANPruningInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN-scale double sweep")
	}
	run := func(brute bool, workers int) *Report {
		topo := testnet.WAN(30, true)
		em, err := kne.New(kne.Config{Topology: topo, Sim: sim.New(42)})
		if err != nil {
			t.Fatal(err)
		}
		if err := em.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := em.RunUntilConverged(30*time.Second, time.Hour); err != nil {
			t.Fatal(err)
		}
		rep, err := Run(em, topo, Options{K: 1, Brute: brute, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	brute := run(true, 1)
	pruned := run(false, 4)
	if got, want := pruned.Table(0), brute.Table(0); got != want {
		t.Errorf("pruned WAN table differs from brute:\n%s\n%s", want, got)
	}
	if pruned.Verified >= brute.Verified {
		t.Errorf("pruning verified %d candidates, brute %d — want strictly fewer", pruned.Verified, brute.Verified)
	}
	t.Logf("WAN30 k=1: %d candidates, brute verified %d, pruned verified %d (%.0f%% saved)",
		brute.Candidates, brute.Verified, pruned.Verified,
		100*float64(brute.Verified-pruned.Verified)/float64(brute.Verified))
}

// TestSnapchainShared: the sweep engine and the chaos engine must agree on
// the baseline they chain from — a snapchain snapshot taken before the sweep
// equals one taken after it (the sweep healed), stamps included except where
// rebuilt routers legitimately bumped their epochs.
func TestSnapchainShared(t *testing.T) {
	topo := testnet.Fig2()
	em := boot(t, topo, 7)
	chain := snapchain.New(em, topo, nil)
	before, err := chain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(em, topo, Options{K: 1, Kinds: []Kind{KindBGP}}); err != nil {
		t.Fatal(err)
	}
	after, err := chain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := chain.Differential(before, after); len(diffs) != 0 {
		t.Errorf("BGP-only sweep left %d outcome diffs: %v", len(diffs), diffs)
	}
}
