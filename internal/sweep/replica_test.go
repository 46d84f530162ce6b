package sweep

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/sim"
	"mfv/internal/testnet"
	"mfv/internal/topology"
)

// normalize clears the run-local fields (wall clock, virtual start/finish,
// lane count) that legitimately differ between runs of the same sweep space;
// everything else — every row, every counter — must be byte-identical.
func normalize(r *Report) *Report {
	cp := *r
	cp.Wall = 0
	cp.StartedAt = 0
	cp.FinishedAt = 0
	cp.Replicas = 0
	return &cp
}

func reportJSON(t *testing.T, r *Report) string {
	t.Helper()
	b, err := json.Marshal(normalize(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepReplicaEquivalence is the tentpole's correctness quickcheck: the
// replica-parallel sweep must produce a ranked Report and Table byte-identical
// to the sequential engine's, at every lane count, pruned and brute, k=1 and
// k=2. Each configuration boots a fresh same-seed emulation, so the reference
// (workers=1, replicas=1) and the parallel runs measure the same network.
func TestSweepReplicaEquivalence(t *testing.T) {
	topos := []struct {
		name string
		mk   func() *topology.Topology
	}{
		{"fig2", testnet.Fig2},
		{"wan9", func() *topology.Topology { return testnet.WAN(9, false) }},
	}
	for _, tc := range topos {
		for _, k := range []int{1, 2} {
			for _, brute := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k%d/brute=%v", tc.name, k, brute), func(t *testing.T) {
					if testing.Short() && (k == 2 || tc.name == "wan9") {
						t.Skip("multi-candidate settle sweep")
					}
					run := func(workers int) *Report {
						em := boot(t, tc.mk(), 42)
						rep, err := Run(em, tc.mk(), Options{K: k, Brute: brute, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						return rep
					}
					ref := run(1)
					if ref.Replicas != 1 {
						t.Fatalf("workers=1 ran %d lanes, want 1", ref.Replicas)
					}
					refJSON, refTable := reportJSON(t, ref), ref.Table(0)
					for _, workers := range []int{2, 8} {
						got := run(workers)
						if got.Replicas < 2 {
							t.Errorf("workers=%d ran %d lanes, want ≥2", workers, got.Replicas)
						}
						if gt := got.Table(0); gt != refTable {
							t.Errorf("workers=%d table differs from sequential:\n--- want\n%s--- got\n%s", workers, refTable, gt)
						}
						if gj := reportJSON(t, got); gj != refJSON {
							t.Errorf("workers=%d report differs from sequential:\nwant %s\ngot  %s", workers, refJSON, gj)
						}
					}
				})
			}
		}
	}
}

// TestSweepReplicasOption pins the pool-sizing contract: Replicas overrides
// Workers, the pool never exceeds the candidate count, and the memory budget
// caps it at MemoryBudget / (routers × 256 KiB) lanes.
func TestSweepReplicasOption(t *testing.T) {
	em := boot(t, testnet.Fig2(), 42)
	// One lane models routers × 256 KiB; a budget of exactly three lanes'
	// worth must cap an 8-lane request at 3.
	budget := 3 * int64(len(em.Routers())) * int64(replicaBytesPerRouter)
	rep, err := Run(em, testnet.Fig2(), Options{
		K: 1, Kinds: []Kind{KindBGP}, Replicas: 8, MemoryBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 3 {
		t.Errorf("budget-capped pool ran %d lanes, want 3", rep.Replicas)
	}

	em2 := boot(t, testnet.Fig2(), 42)
	rep2, err := Run(em2, testnet.Fig2(), Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 8, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Replicas != 1 {
		t.Errorf("Replicas=1 ran %d lanes, want the sequential path", rep2.Replicas)
	}
}

// TestSweepReplicaBuildFallback: a replica factory that fails must degrade
// the sweep to the sequential path — same report, fallback counted — never
// fail it.
func TestSweepReplicaBuildFallback(t *testing.T) {
	o := obs.NewMetricsOnly()
	topo := testnet.Fig2()
	em, err := kne.New(kne.Config{Topology: topo, Sim: sim.New(42), Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(30*time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	testHookBuildReplicas = func(n int) ([]*kne.Emulator, error) {
		return nil, fmt.Errorf("no replicas today")
	}
	rep, err := Run(em, topo, Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 4, Obs: o})
	testHookBuildReplicas = nil
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 1 {
		t.Errorf("failed build ran %d lanes, want sequential fallback", rep.Replicas)
	}
	if got := o.Counter("sweep_replica_fallback_total").Value(); got != 1 {
		t.Errorf("sweep_replica_fallback_total = %d, want 1", got)
	}
	want := sweepFig2(t, Options{K: 1, Kinds: []Kind{KindBGP}})
	if rep.Table(0) != want.Table(0) {
		t.Errorf("fallback table differs from sequential:\n%s\n%s", want.Table(0), rep.Table(0))
	}
}

// TestKneReplicaFingerprint pins the replay-identity gate end to end: a
// replica of a converged emulation reproduces its state fingerprint, and a
// faulted emulation refuses to replicate.
func TestKneReplicaFingerprint(t *testing.T) {
	em := boot(t, testnet.WAN(9, false), 7)
	repl, err := em.Replica(30*time.Second, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Stop()
	if got, want := repl.StateFingerprint(), em.StateFingerprint(); got != want {
		t.Errorf("replica fingerprint %s != primary %s", got, want)
	}
	if err := em.HoldBGP(em.Routers()[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := em.Replica(30*time.Second, time.Hour); err == nil {
		t.Error("faulted emulation replicated; want refusal")
	}
}
