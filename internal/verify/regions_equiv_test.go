package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"mfv/internal/topology"
)

// buildRandomRegions mirrors buildRandom over a disconnected multi-region
// topology, forcing the batch engine down the component-sharded path. Random
// receive/drop/forward entries produce loops, black holes, partial coverage,
// and exits — the full disposition alphabet — and the clustered network
// bytes make prefixes collide across regions, so destination classes are
// covered by some components but not others (the covers() skip path).
func buildRandomRegions(r *rand.Rand, regions, per, prefixes int) (*Network, error) {
	topo := topology.MultiRegion(regions, per, topology.VendorEOS)
	return NewNetwork(topo, randomAFTs(r, topo, prefixes, true, false))
}

func TestRegionComponentsDetected(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, err := buildRandomRegions(r, 4, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	comps := n.components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
	for _, c := range comps {
		if len(c.members) != 3 {
			t.Errorf("component of %s has %d members, want 3", c.members[0].name, len(c.members))
		}
	}
}

// TestQuickRegionOutcomesMatchTrace: on multi-region networks the
// component-sharded solver (including the coverage skip and its NoRoute
// fallback) must agree with the sequential Trace walk on every (source,
// class) flow.
func TestQuickRegionOutcomesMatchTrace(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, err := buildRandomRegions(r, 3, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.components()) < 2 {
			t.Fatalf("seed %d: sharded path not in play", seed)
		}
		for _, rep := range n.EquivalenceClasses() {
			oc := n.outcomesFor(rep)
			for _, src := range n.Devices() {
				if got, want := oc.outcome(src), n.Trace(src, rep).Outcome(); got != want {
					t.Fatalf("seed %d: outcome(%s, %v) = %q, trace says %q", seed, src, rep, got, want)
				}
			}
		}
	}
}

// TestQuickRegionDifferentialMatchesSequential: the batch differential over
// two multi-region snapshots must reproduce the sequential source-major,
// class-minor trace evaluation byte for byte.
func TestQuickRegionDifferentialMatchesSequential(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		before, err := buildRandomRegions(r, 3, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		after, err := buildRandomRegions(r, 3, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		var want []Diff
		for _, src := range unionStrings(before.Devices(), after.Devices()) {
			for _, rep := range unionAddrs(before.EquivalenceClasses(), after.EquivalenceClasses()) {
				a := before.Trace(src, rep).Outcome()
				b := after.Trace(src, rep).Outcome()
				if a != b {
					want = append(want, Diff{Src: src, Dst: rep, Before: a, After: b})
				}
			}
		}
		got := Queries{Workers: 4}.Differential(before, after)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sharded differential diverges:\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestQuickRegionBlackHolesMatchSequential: skipped components must still
// surface their NoRoute flows, with the same reports the sequential
// per-flow walk produces.
func TestQuickRegionBlackHolesMatchSequential(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, err := buildRandomRegions(r, 3, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		var want []BlackHole
		for _, rep := range n.EquivalenceClasses() {
			for _, src := range n.Devices() {
				tr := n.Trace(src, rep)
				for _, p := range tr.Paths {
					if p.Disposition == Dropped || p.Disposition == NoRoute {
						want = append(want, BlackHole{Dst: rep, Src: src, Disposition: p.Disposition})
						break
					}
				}
			}
		}
		got := Queries{Workers: 4}.DetectBlackHoles(n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sharded black holes diverge:\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestQuickRegionLoopsMatchSequential: loop detection across components.
func TestQuickRegionLoopsMatchSequential(t *testing.T) {
	for seed := int64(300); seed < 310; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, err := buildRandomRegions(r, 3, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		var want []LoopReport
		for _, rep := range n.EquivalenceClasses() {
			for _, src := range n.Devices() {
				tr := n.Trace(src, rep)
				for _, p := range tr.Paths {
					if p.Disposition == Loop {
						want = append(want, LoopReport{Dst: rep, Src: src, Path: p})
						break
					}
				}
			}
		}
		got := Queries{Workers: 4}.DetectLoops(n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sharded loops diverge:\ngot  %d reports\nwant %d reports", seed, len(got), len(want))
		}
	}
}
