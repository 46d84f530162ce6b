package sweep

import (
	"testing"
	"time"

	"mfv/internal/kne"
	"mfv/internal/sim"
	"mfv/internal/testnet"
)

func benchBoot(b *testing.B, n int) *kne.Emulator {
	b.Helper()
	topo := testnet.WAN(n, true)
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
	return em
}

// BenchmarkSweepSingleFailure measures the k=1 failure sweep of the 30-node
// multi-vendor WAN across the prune and replica-pool axes: candidates per
// second pruned versus brute force, sequential (workers=1) versus the
// 8-lane replica pool. Every arm must produce a byte-identical ranked table
// — the benchmark doubles as the pruning and replica-equivalence acceptance
// check at benchmark scale. Wall-clock scaling between the workers arms is
// reported, not asserted: the speedup is ≈min(lanes, cores)× and so depends
// on the host. See README "Sweep performance" for the measured numbers.
func BenchmarkSweepSingleFailure(b *testing.B) {
	reports := map[string]*Report{}
	for _, arm := range []struct {
		name    string
		brute   bool
		workers int
	}{
		{"pruned/workers=1", false, 1},
		{"pruned/workers=8", false, 8},
		{"brute/workers=1", true, 1},
		{"brute/workers=8", true, 8},
	} {
		b.Run(arm.name, func(b *testing.B) {
			em := benchBoot(b, 30)
			b.ResetTimer()
			var candidates int
			for i := 0; i < b.N; i++ {
				rep, err := Run(em, testnet.WAN(30, true), Options{K: 1, Brute: arm.brute, Workers: arm.workers})
				if err != nil {
					b.Fatal(err)
				}
				candidates += rep.Candidates
				if reports[arm.name] == nil {
					reports[arm.name] = rep
				}
			}
			b.StopTimer()
			rep := reports[arm.name]
			b.ReportMetric(float64(candidates)/b.Elapsed().Seconds(), "failures/s")
			b.ReportMetric(float64(rep.Verified), "verified")
			b.ReportMetric(float64(rep.Replicas), "replicas")
		})
	}
	ref := reports["pruned/workers=1"]
	if ref == nil {
		return
	}
	for name, rep := range reports {
		if rep.Table(0) != ref.Table(0) {
			b.Errorf("%s ranked table differs from pruned/workers=1", name)
		}
	}
	if brute := reports["brute/workers=1"]; brute != nil && ref.Verified >= brute.Verified {
		b.Errorf("pruning verified %d candidates, brute %d — want strictly fewer", ref.Verified, brute.Verified)
	}
}

// BenchmarkSweepDoubleFailure measures the k=2 pair sweep of the 30-node
// WAN's BGP services (4 singles + 6 pairs), pruned versus brute. Both
// arms apply every candidate; the fingerprint prune must verify strictly
// fewer, and the byte-identity check between the arms' ranked tables is the
// k=2 soundness bar at benchmark scale.
func BenchmarkSweepDoubleFailure(b *testing.B) {
	reports := map[string]*Report{}
	for _, arm := range []struct {
		name  string
		brute bool
	}{{"pruned", false}, {"brute", true}} {
		b.Run(arm.name, func(b *testing.B) {
			em := benchBoot(b, 30)
			b.ResetTimer()
			var candidates int
			for i := 0; i < b.N; i++ {
				rep, err := Run(em, testnet.WAN(30, true), Options{
					K: 2, Kinds: []Kind{KindBGP}, Brute: arm.brute, Workers: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				candidates += rep.Candidates
				if reports[arm.name] == nil {
					reports[arm.name] = rep
				}
			}
			b.StopTimer()
			rep := reports[arm.name]
			b.ReportMetric(float64(candidates)/b.Elapsed().Seconds(), "failures/s")
			b.ReportMetric(float64(rep.Verified), "verified")
			b.ReportMetric(float64(rep.Applied), "applied")
		})
	}
	pruned, brute := reports["pruned"], reports["brute"]
	if pruned == nil || brute == nil {
		return
	}
	if pruned.Table(0) != brute.Table(0) {
		b.Errorf("pruned k=2 ranked table differs from brute:\n%s\n%s", brute.Table(0), pruned.Table(0))
	}
	if pruned.Verified >= brute.Verified {
		b.Errorf("fingerprint prune verified %d candidates, brute %d — want strictly fewer", pruned.Verified, brute.Verified)
	}
}

// BenchmarkSweepResume measures what the write-ahead journal buys after a
// crash: the cold arm runs the WAN30 BGP single-failure sweep journaling
// every verdict; the resumed arm re-runs over the completed journal,
// restoring every candidate instead of re-applying and re-verifying it.
// The reports must be byte-identical — the gap between the arms is the
// crash-recovery win recorded in EXPERIMENTS.md E15.
func BenchmarkSweepResume(b *testing.B) {
	reports := map[string]*Report{}
	opts := func(dir string, resume bool) Options {
		return Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 1, JournalDir: dir, Resume: resume}
	}
	b.Run("cold", func(b *testing.B) {
		em := benchBoot(b, 30)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := Run(em, testnet.WAN(30, true), opts(b.TempDir(), false))
			if err != nil {
				b.Fatal(err)
			}
			if reports["cold"] == nil {
				reports["cold"] = rep
			}
		}
	})
	b.Run("resumed", func(b *testing.B) {
		em := benchBoot(b, 30)
		dir := b.TempDir()
		if _, err := Run(em, testnet.WAN(30, true), opts(dir, false)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := Run(em, testnet.WAN(30, true), opts(dir, true))
			if err != nil {
				b.Fatal(err)
			}
			if reports["resumed"] == nil {
				reports["resumed"] = rep
			}
		}
	})
	cold, resumed := reports["cold"], reports["resumed"]
	if cold == nil || resumed == nil {
		return
	}
	if cold.Table(0) != resumed.Table(0) {
		b.Error("resumed ranked table differs from the cold run")
	}
}
