package core

import (
	"net/netip"
	"reflect"
	"testing"

	"mfv/internal/testnet"
	"mfv/internal/topology"
)

// TestExploreOrderingsAgreeOnDeterministicNetwork: Fig. 2 and the Triangle
// have one stable state (their decision processes are fully determined by
// the config, with no timing-dependent tie-breaks), so every event ordering
// converges to identical dataplanes. Disagree has two, and r2 and r3 land in
// one or the other depending on the ordering.
func TestExploreOrderingsAgreeOnDeterministicNetwork(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct {
		name      string
		topo      *topology.Topology
		divergent []string // nil: the orderings must agree
	}{
		{"fig2", testnet.Fig2(), nil},
		{"triangle", testnet.Triangle(), nil},
		{"disagree", testnet.Disagree(), []string{"r2", "r3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := ExploreOrderings(Snapshot{Topology: tc.topo}, Options{}, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Agree != (tc.divergent == nil) || !reflect.DeepEqual(rep.DivergentDevices, tc.divergent) {
				t.Errorf("Agree=%v DivergentDevices=%v, want divergent %v", rep.Agree, rep.DivergentDevices, tc.divergent)
			}
			if rep.Seeds != len(seeds) || len(rep.ConvergedAt) != len(seeds) {
				t.Errorf("report = %+v", rep)
			}
		})
	}
}

func TestExploreOrderingsValidation(t *testing.T) {
	if _, err := ExploreOrderings(Snapshot{Topology: testnet.Fig3()}, Options{}, []int64{1}); err == nil {
		t.Error("single seed accepted")
	}
	if _, err := ExploreOrderings(Snapshot{}, Options{}, []int64{1, 2}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestInvariants(t *testing.T) {
	res := runEmu(t, Snapshot{Topology: testnet.Fig3()})
	var loopbacks []netip.Addr
	for i := 1; i <= 3; i++ {
		loopbacks = append(loopbacks, netip.AddrFrom4([4]byte{2, 2, 2, byte(i)}))
	}
	violations := CheckInvariants(res, []Invariant{
		AllLoopbacksReachable(loopbacks),
		NoForwardingLoops(),
	})
	if len(violations) != 0 {
		t.Errorf("healthy network violated: %v", violations)
	}
	// Cut the line: the reachability invariant must fire, the loop one not.
	cut := runEmu(t, Snapshot{
		Topology:  testnet.Fig3(),
		DownLinks: []topology.Endpoint{{Node: "r1", Interface: "Ethernet1"}},
	})
	violations = CheckInvariants(cut, []Invariant{
		AllLoopbacksReachable(loopbacks),
		NoForwardingLoops(),
	})
	if _, ok := violations["all-loopbacks-reachable"]; !ok {
		t.Error("reachability invariant did not fire after cut")
	}
	if _, ok := violations["no-forwarding-loops"]; ok {
		t.Error("loop invariant fired spuriously")
	}
}

func TestSeedChangesAreIsolated(t *testing.T) {
	// Different seeds shift event timing; convergence times may differ but
	// both runs must satisfy the startup window.
	for _, seed := range []int64{1, 2} {
		res, err := Run(Snapshot{Topology: testnet.Fig3()}, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.StartupAt == 0 {
			t.Errorf("seed %d: startup not recorded", seed)
		}
	}
}
