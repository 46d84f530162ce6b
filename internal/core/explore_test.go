package core

import (
	"net/netip"
	"testing"

	"mfv/internal/testnet"
	"mfv/internal/topology"
)

func TestExploreOrderingsAgreeOnDeterministicNetwork(t *testing.T) {
	// The Fig. 2 network's decision process is fully determined by the
	// config (no timing-dependent tie-breaks), so different event orderings
	// must converge to identical dataplanes.
	rep, err := ExploreOrderings(Snapshot{Topology: testnet.Fig2()}, Options{}, []int64{1, 7, 99})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agree {
		t.Errorf("orderings diverged on: %v", rep.DivergentDevices)
	}
	if rep.Seeds != 3 || len(rep.ConvergedAt) != 3 {
		t.Errorf("report = %+v", rep)
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
