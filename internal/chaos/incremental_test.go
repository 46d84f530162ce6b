package chaos

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"mfv/internal/kne"
	"mfv/internal/snapchain"
	"mfv/internal/testnet"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// reportJSON boots a fresh Fig. 2 emulation from seed, executes sc with the
// given engine configuration, and returns the marshaled report. Fresh
// emulators per run keep the virtual timelines identical, so any report
// divergence is the verification path's fault.
func reportJSON(t *testing.T, seed int64, spare int, sc *Scenario, incremental bool, workers int) string {
	t.Helper()
	em := startFig2(t, seed, spare)
	en := NewEngine(em, testnet.Fig2(), nil).WithIncremental(incremental).WithWorkers(workers)
	rep, err := en.Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestIncrementalMatchesFullBuiltins: the incremental snapshot path must
// produce byte-identical reports to the full-rebuild path on the builtin
// scenarios, including the pod-crash one that exercises
// the router-incarnation (epoch) handling and the permanent partition.
func TestIncrementalMatchesFullBuiltins(t *testing.T) {
	for _, name := range []string{"crash-reboot", "partition", "session-reset"} {
		sc, ok := Builtin(name)
		if !ok {
			t.Fatalf("no builtin %q", name)
		}
		full := reportJSON(t, 42, 0, sc, false, 1)
		incr := reportJSON(t, 42, 0, sc, true, 1)
		if full != incr {
			t.Errorf("%s: incremental report differs from full:\n%s\n%s", name, full, incr)
		}
	}
}

// TestIncrementalDeterministicAcrossWorkers: the incremental path's report
// is byte-identical for workers 1, 2, and 8, and matches the full recompute.
func TestIncrementalDeterministicAcrossWorkers(t *testing.T) {
	sc, _ := Builtin("flap")
	ref := reportJSON(t, 7, 0, sc, false, 1)
	for _, w := range []int{1, 2, 8} {
		if got := reportJSON(t, 7, 0, sc, true, w); got != ref {
			t.Errorf("workers=%d: incremental report differs from full:\n%s\n%s", w, ref, got)
		}
	}
}

// TestQuickIncrementalMatchesFullRandomFaults: seeded random fault
// sequences drawn from a pool of valid Fig. 2 faults must score identically
// under full and incremental snapshots. This is the fault-sequence half of
// the incremental-equivalence check (the random-network half, against a
// brute-force oracle, lives in internal/verify).
func TestQuickIncrementalMatchesFullRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-boot equivalence sweep")
	}
	pool := []Fault{
		{Kind: KindLinkFlap, Link: "r6:Ethernet2", Flaps: 2, Duration: 5 * time.Second},
		{Kind: KindBGPReset, Node: "r2"},
		{Kind: KindLinkCut, Link: "r2:Ethernet2"},
		{Kind: KindPodCrash, Node: "r3"},
		{Kind: KindLinkDegrade, Link: "r1:Ethernet1", LossPct: 30, ExtraDelay: 10 * time.Millisecond, Duration: time.Minute},
	}
	for _, seed := range []int64{3, 11} {
		r := rand.New(rand.NewSource(seed))
		sc := &Scenario{Name: "random", Seed: seed}
		for i := 0; i < 2; i++ {
			f := pool[r.Intn(len(pool))]
			f.After = time.Duration(1+r.Intn(20)) * time.Second
			sc.Faults = append(sc.Faults, f)
		}
		full := reportJSON(t, seed, 0, sc, false, 1)
		incr := reportJSON(t, seed, 0, sc, true, 2)
		if full != incr {
			t.Errorf("seed %d (%v): incremental report differs from full:\n%s\n%s",
				seed, sc.Faults, full, incr)
		}
	}
}

// TestIncrementalSimultaneousMultiFault: the sweep engine applies a k=2
// candidate's faults back-to-back with no settle in between, so the
// incremental snapshot must stay byte-identical to a scratch rebuild when
// two faults land simultaneously and their dirty sets overlap (the case the
// per-fault equivalence tests above never produce). Each case boots a fresh
// Fig. 2, injects both faults on the unsettled network, settles once, and
// compares the differential against an UpdateFrom-built network with the
// one against a NewNetwork-built one, across worker counts.
func TestIncrementalSimultaneousMultiFault(t *testing.T) {
	cut := func(link string) func(t *testing.T, em *kne.Emulator) {
		return func(t *testing.T, em *kne.Emulator) {
			ep, err := topology.ParseEndpoint(link)
			if err != nil {
				t.Fatal(err)
			}
			if err := em.SetLinkDown(ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		faults []func(t *testing.T, em *kne.Emulator)
	}{
		// Both cuts force SPF recomputation across the shared core: the
		// dirty sets intersect on every transit router.
		{"two-link-cuts", []func(t *testing.T, em *kne.Emulator){
			cut("r2:Ethernet2"), cut("r6:Ethernet2"),
		}},
		// The cut and the session teardown both dirty r2 and its peers.
		{"link-cut-plus-bgp-reset", []func(t *testing.T, em *kne.Emulator){
			cut("r2:Ethernet2"),
			func(t *testing.T, em *kne.Emulator) {
				if err := em.ResetBGP("r2"); err != nil {
					t.Fatal(err)
				}
			},
		}},
		// The crash's withdrawal wave and the cut's reroute overlap; the
		// reboot also exercises the epoch-bump path mid-candidate.
		{"pod-crash-plus-link-cut", []func(t *testing.T, em *kne.Emulator){
			func(t *testing.T, em *kne.Emulator) {
				if err := em.CrashRouter("r3"); err != nil {
					t.Fatal(err)
				}
			},
			cut("r1:Ethernet1"),
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			em := startFig2(t, 42, 0)
			topo := testnet.Fig2()
			baseNet, err := verify.NewNetwork(topo, em.AFTs())
			if err != nil {
				t.Fatal(err)
			}
			baseNet.SetWorkers(workers)
			baseStamps := em.FIBGenerations()
			for _, inject := range tc.faults {
				inject(t, em)
			}
			em.Settle(2*time.Minute, 30*time.Minute)
			afts := em.AFTs()
			dirty := snapchain.DiffStamps(baseStamps, em.FIBGenerations())
			if len(dirty) < 2 {
				t.Fatalf("%s: want overlapping multi-router dirty set, got %v", tc.name, dirty)
			}
			incrNet, err := baseNet.UpdateFrom(afts)
			if err != nil {
				t.Fatal(err)
			}
			incrNet.SetWorkers(workers)
			fullNet, err := verify.NewNetwork(topo, afts)
			if err != nil {
				t.Fatal(err)
			}
			fullNet.SetWorkers(workers)
			render := func(diffs []verify.Diff) string {
				var b []byte
				for _, d := range diffs {
					b = append(b, d.String()...)
					b = append(b, '\n')
				}
				return string(b)
			}
			incr := render(verify.Differential(baseNet, incrNet))
			full := render(verify.Differential(baseNet, fullNet))
			if incr != full {
				t.Errorf("%s workers=%d: differential against the incremental snapshot diverges from the scratch rebuild\ndirty=%v\nincremental:\n%s\nscratch:\n%s",
					tc.name, workers, dirty, incr, full)
			}
		}
	}
}
