package verify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"mfv/internal/aft"
	"mfv/internal/topology"
)

// randomAFTs gives every node of topo random (possibly nonsensical) AFTs —
// routes may point anywhere, including into loops and unwired ports. cluster
// pins the first address byte to four values so prefixes of different
// devices (and regions) collide; ecmp makes one entry in four a two-way
// group. The verifier must stay total and consistent over all of them.
func randomAFTs(r *rand.Rand, topo *topology.Topology, prefixes int, cluster, ecmp bool) map[string]*aft.AFT {
	afts := map[string]*aft.AFT{}
	for _, node := range topo.Nodes {
		afts[node.Name] = randomTable(r, node.Name, prefixes, cluster, ecmp)
	}
	return afts
}

// randomTable draws one device's table for randomAFTs. A prefix drawn twice
// keeps its first route, so every table is a function.
func randomTable(r *rand.Rand, name string, prefixes int, cluster, ecmp bool) *aft.AFT {
	b := aft.NewBuilder(name)
	hop := func() uint64 {
		switch r.Intn(4) {
		case 0:
			return b.AddNextHop(aft.NextHop{Receive: true})
		case 1:
			return b.AddNextHop(aft.NextHop{Drop: true})
		case 2:
			return b.AddNextHop(aft.NextHop{Interface: "Ethernet1", IPAddress: "10.0.0.1"})
		default:
			return b.AddNextHop(aft.NextHop{Interface: "Ethernet2", IPAddress: "10.0.0.2"})
		}
	}
	seen := map[netip.Prefix]bool{}
	for p := 0; p < prefixes; p++ {
		var a [4]byte
		r.Read(a[:])
		if cluster {
			a[0] = byte(r.Intn(4) * 64)
		}
		prefix := netip.PrefixFrom(netip.AddrFrom4(a), 1+r.Intn(32)).Masked()
		idx := []uint64{hop()}
		if ecmp && r.Intn(4) == 0 {
			idx = append(idx, hop())
		}
		group := b.AddGroup(idx)
		if !seen[prefix] {
			seen[prefix] = true
			b.AddIPv4(prefix, group, "test", 0)
		}
	}
	return b.Build()
}

// buildRandom builds a random ring network (see randomAFTs).
func buildRandom(r *rand.Rand, nodes, prefixes int) (*topology.Topology, *Network, error) {
	topo := topology.Ring(nodes, topology.VendorEOS)
	net, err := NewNetwork(topo, randomAFTs(r, topo, prefixes, false, false))
	return topo, net, err
}

// Property: every trace from every device terminates with a disposition,
// whatever the (random, possibly looping) forwarding state.
func TestQuickTracesAlwaysTerminate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(20))
		if err != nil {
			return false
		}
		for _, src := range net.Devices() {
			for i := 0; i < 20; i++ {
				var a [4]byte
				r.Read(a[:])
				tr := net.Trace(src, netip.AddrFrom4(a))
				if len(tr.Paths) == 0 {
					return false
				}
				for _, p := range tr.Paths {
					if len(p.Hops) > maxPathHops+1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Error(err)
	}
}

// Property: equivalence classes are uniform — every member of a class gets
// the same outcome as its representative, from every device, on random
// networks.
func TestQuickECUniformityRandomNetworks(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3, 1+r.Intn(12))
		if err != nil {
			return false
		}
		classes := net.EquivalenceClasses()
		for i, rep := range classes {
			var end uint32 = 0xffffffff
			if i+1 < len(classes) {
				end = addrU32(classes[i+1]) - 1
			}
			start := addrU32(rep)
			// Probe two random members of the class.
			for k := 0; k < 2; k++ {
				member := start
				if end > start {
					member = start + uint32(r.Int63n(int64(end-start)+1))
				}
				for _, src := range net.Devices() {
					if net.Trace(src, rep).Outcome() != net.Trace(src, u32Addr(member)).Outcome() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// Property: Differential(x, x) is always empty.
func TestQuickDifferentialReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3+r.Intn(3), 1+r.Intn(15))
		if err != nil {
			return false
		}
		return len(Differential(net, net)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}

// Property: Differential output is byte-identical for workers = 1, 2, 8 on
// random networks — parallelism must never change what a query returns.
func TestQuickDifferentialDeterministicAcrossWorkers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, before, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(15))
		if err != nil {
			return false
		}
		_, after, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(15))
		if err != nil {
			return false
		}
		ref := fmt.Sprintf("%+v", Queries{Workers: 1}.Differential(before, after))
		for _, w := range []int{2, 8} {
			if fmt.Sprintf("%+v", Queries{Workers: w}.Differential(before, after)) != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Error(err)
	}
}

// outcome returns the canonical outcome for src, falling back to the
// NoRoute self-outcome Trace produces for devices without forwarding state.
func (m dstOutcomes) outcome(src string) string {
	if o, ok := m[src]; ok && o.canon != "" {
		return o.canon
	}
	return NoRoute.String() + "@" + src
}

// Property: the memoized per-device solver agrees with the unmemoized Trace
// walk for every (source, class-representative) flow on random networks.
func TestQuickMemoizationMatchesTrace(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(15))
		if err != nil {
			return false
		}
		for _, rep := range net.EquivalenceClasses() {
			oc := net.outcomesFor(rep)
			for _, src := range net.Devices() {
				if oc.outcome(src) != net.Trace(src, rep).Outcome() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Error(err)
	}
}

// directOutcomes solves one class on its own, sharing nothing between
// classes: what outcomesFor returned before classes with one hop-group
// vector shared a solve.
func directOutcomes(n *Network, dst netip.Addr) dstOutcomes {
	out := dstOutcomes{}
	comps := n.components()
	for _, c := range comps {
		if len(comps) == 1 || c.covers(addrU32(dst)) {
			n.solveComponent(dst, c, out)
		}
	}
	return out
}

// Property: sharing one solve among the classes of a hop-group vector is
// exact. For every class of random networks — small rings (the memoized
// solver, forwarding loops, ECMP), rings of 64 and more devices (the trace
// path), several components (the coverage skip) and components of 64 and
// more — outcomesFor equals a solve of that class alone, at workers 1, 2
// and 8.
func TestQuickVectorShareMatchesDirectSolve(t *testing.T) {
	shapes := []struct {
		name     string
		topo     func(r *rand.Rand) *topology.Topology
		prefixes int
		seeds    int64
	}{
		{"ring", func(r *rand.Rand) *topology.Topology { return topology.Ring(3+r.Intn(4), topology.VendorEOS) }, 16, 12},
		{"ring of 64+", func(r *rand.Rand) *topology.Topology { return topology.Ring(64+r.Intn(3), topology.VendorEOS) }, 2, 2},
		{"regions", func(r *rand.Rand) *topology.Topology { return topology.MultiRegion(3, 4, topology.VendorEOS) }, 8, 8},
		{"regions of 64", func(r *rand.Rand) *topology.Topology { return topology.MultiRegion(2, 64, topology.VendorEOS) }, 2, 1},
	}
	for _, sh := range shapes {
		shared := 0
		for seed := int64(0); seed < sh.seeds; seed++ {
			r := rand.New(rand.NewSource(seed))
			topo := sh.topo(r)
			afts := randomAFTs(r, topo, sh.prefixes, true, true)
			ref, err := NewNetwork(topo, afts)
			if err != nil {
				t.Fatal(err)
			}
			classes := ref.EquivalenceClasses()
			want := make([]dstOutcomes, len(classes))
			for i, rep := range classes {
				want[i] = directOutcomes(ref, rep)
			}
			for _, workers := range []int{1, 2, 8} {
				n, err := NewNetwork(topo, afts)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]dstOutcomes, len(classes))
				Queries{Workers: workers}.perClass(n, classes, 0, func(i int, oc dstOutcomes) { got[i] = oc })
				for i, rep := range classes {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s seed %d workers %d class %v:\nshared %v\ndirect %v", sh.name, seed, workers, rep, got[i], want[i])
					}
				}
				if len(n.memo) != len(classes) {
					t.Fatalf("%s seed %d: memo holds %d classes of %d", sh.name, seed, len(n.memo), len(classes))
				}
				shared += len(n.memo) - len(n.byVector)
			}
		}
		if shared == 0 {
			t.Errorf("%s: no two classes shared a vector; the property was not exercised", sh.name)
		}
	}
}

// TestBuildDeviceLocksPerGroup: indexing a table takes the process-wide
// hop-group lock once per group, not once per entry.
func TestBuildDeviceLocksPerGroup(t *testing.T) {
	b := aft.NewBuilder("r1")
	groups := []uint64{
		b.AddGroup([]uint64{b.AddNextHop(aft.NextHop{Receive: true})}),
		b.AddGroup([]uint64{b.AddNextHop(aft.NextHop{Interface: "Ethernet1", IPAddress: "10.0.0.1"})}),
		b.AddGroup([]uint64{1, 2}),
	}
	const entries = 600
	for i := 0; i < entries; i++ {
		b.AddIPv4(netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24), groups[i%len(groups)], "test", 0)
	}
	locks := 0
	testHookHopGroupsLocked = func() { locks++ }
	defer func() { testHookHopGroupsLocked = nil }()
	d, err := buildDevice("r1", b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if d.fib.Len() != entries {
		t.Fatalf("indexed %d entries, want %d", d.fib.Len(), entries)
	}
	if locks != len(groups) {
		t.Errorf("hopGroups locked %d times for %d groups over %d entries", locks, len(groups), entries)
	}
}

// Property: utilization conservation — for a single demand, load on any
// link never exceeds the offered rate, and delivered + lost == 1.
func TestQuickUtilizationConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 4, 1+r.Intn(10))
		if err != nil {
			return false
		}
		var a [4]byte
		r.Read(a[:])
		rep := net.Utilization([]Demand{{Src: "r1", Dst: netip.AddrFrom4(a), Rate: 100}})
		for _, l := range rep.Links {
			if l.Load > 100+1e-6 {
				return false
			}
		}
		for _, u := range rep.Undeliverable {
			if u.LostFraction < -1e-9 || u.LostFraction > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}
