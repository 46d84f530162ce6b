package chaos

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"mfv/internal/aft"
	"mfv/internal/bgp"
	"mfv/internal/kne"
	"mfv/internal/sim"
	"mfv/internal/testnet"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// bootWAN boots the 30-node multi-vendor WAN (the E6 testnet) to initial
// convergence — the fixture the fault-loop benchmarks measure against.
func bootWAN(b *testing.B) (*kne.Emulator, *topology.Topology) {
	b.Helper()
	topo := testnet.WAN(30, true)
	em, err := kne.New(kne.Config{Topology: topo, Sim: sim.New(42)})
	if err != nil {
		b.Fatal(err)
	}
	if err := em.Start(); err != nil {
		b.Fatal(err)
	}
	if _, err := em.RunUntilConverged(30*time.Second, time.Hour); err != nil {
		b.Fatal(err)
	}
	return em, topo
}

// renderAll is the pre-incremental extraction path: every router re-renders
// its AFT from the RIB, serially, bypassing the generation cache.
func renderAll(em *kne.Emulator) map[string]*aft.AFT {
	out := map[string]*aft.AFT{}
	for _, r := range em.Routers() {
		out[r.Name] = r.RenderAFT()
	}
	return out
}

// BenchmarkChaosFaultLoop measures one iteration of the fault loop's
// verification work — snapshot extraction, network construction, and the
// differential against the pre-fault baseline — on the 30-node WAN under a
// route-feed fault: the external peer on the injection edge withdraws part
// of its table, perturbing only the 4-router iBGP mesh while the 26 IGP
// transits stay byte-identical. That small blast radius is exactly the case
// the incremental pipeline optimizes. The "full" arm is the pre-incremental
// pipeline (serial re-render of every router, scratch NewNetwork); the
// "incremental" arm is the cached extraction + UpdateFrom path the engine
// runs by default. Both arms score with Differential, which solves only the
// classes and sources the changed routers can affect, and must produce
// identical diffs.
func BenchmarkChaosFaultLoop(b *testing.B) {
	em, topo := bootWAN(b)
	inj, err := em.AddInjector(topo.Nodes[0].Name, netip.MustParseAddr("198.51.100.1"), 64700)
	if err != nil {
		b.Fatal(err)
	}
	var feed []netip.Prefix
	for i := 0; i < 500; i++ {
		feed = append(feed, netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24))
	}
	inj.Announce(feed, bgp.PathAttrs{Origin: bgp.OriginIGP})
	em.Settle(30*time.Second, time.Hour)
	// The incremental baseline indexes the per-router cached tables, as the
	// engine's pre-fault snapshot does: the timed incremental iterations then
	// re-render and re-index only the routers the fault dirtied.
	baseFull, err := verify.NewNetwork(topo, renderAll(em))
	if err != nil {
		b.Fatal(err)
	}
	baseIncr, err := verify.NewNetwork(topo, em.AFTs())
	if err != nil {
		b.Fatal(err)
	}
	inj.Withdraw(feed[:50])
	em.Settle(30*time.Second, time.Hour)

	var fullOut, incrOut string
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			afts := renderAll(em)
			net, err := verify.NewNetwork(topo, afts)
			if err != nil {
				b.Fatal(err)
			}
			fullOut = fmt.Sprintf("%+v", verify.Differential(baseFull, net))
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net, err := baseIncr.UpdateFrom(em.AFTs())
			if err != nil {
				b.Fatal(err)
			}
			incrOut = fmt.Sprintf("%+v", verify.Differential(baseIncr, net))
		}
	})
	if fullOut != incrOut {
		b.Fatalf("incremental diffs differ from full:\n%s\n%s", fullOut, incrOut)
	}
}

// BenchmarkIncrementalSnapshot isolates snapshot construction on the
// quiescent WAN: a from-scratch render + NewNetwork versus the cached
// extraction + UpdateFrom (the steady-state cost between faults, when
// nothing is dirty).
func BenchmarkIncrementalSnapshot(b *testing.B) {
	em, topo := bootWAN(b)
	// Index the per-router cached tables; steady state is what's measured.
	base, err := verify.NewNetwork(topo, em.AFTs())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := verify.NewNetwork(topo, renderAll(em)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := base.UpdateFrom(em.AFTs()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
