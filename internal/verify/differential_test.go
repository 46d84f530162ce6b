package verify

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mfv/internal/aft"
	"mfv/internal/topology"
)

// oracleNet is one snapshot as the brute-force oracle sees it: the raw
// tables and the links, nothing indexed.
type oracleNet struct {
	tables map[string]*aft.AFT
	peer   map[topology.Endpoint]string
}

func newOracleNet(topo *topology.Topology, tables map[string]*aft.AFT) oracleNet {
	o := oracleNet{tables: tables, peer: map[topology.Endpoint]string{}}
	for _, l := range topo.Links {
		o.peer[l.A] = l.Z.Node
		o.peer[l.Z] = l.A.Node
	}
	return o
}

// lookup is a linear longest-prefix match over dev's table, resolving the
// matched entry's group by scanning the group and next-hop lists.
func (o oracleNet) lookup(dev string, dst netip.Addr) ([]aft.NextHop, bool) {
	t := o.tables[dev]
	best, group := -1, uint64(0)
	for _, e := range t.IPv4Entries {
		if p := netip.MustParsePrefix(e.Prefix); p.Contains(dst) && p.Bits() > best {
			best, group = p.Bits(), e.NextHopGroup
		}
	}
	if best < 0 {
		return nil, false
	}
	var hops []aft.NextHop
	for _, g := range t.NextHopGroups {
		if g.ID != group {
			continue
		}
		for _, idx := range g.NextHops {
			for _, nh := range t.NextHops {
				if nh.Index == idx {
					hops = append(hops, nh)
				}
			}
		}
	}
	return hops, true
}

// walk enumerates every forwarding path from dev toward dst, calling emit
// with each path's terminal "Disposition@device". A packet that revisits a
// device on its path, or reaches maxPathHops hops, loops.
func (o oracleNet) walk(dev string, dst netip.Addr, hops int, onPath map[string]bool, emit func(string)) {
	if onPath[dev] || hops >= maxPathHops {
		emit("Loop@" + dev)
		return
	}
	next, ok := o.lookup(dev, dst)
	if !ok {
		emit("NoRoute@" + dev)
		return
	}
	onPath[dev] = true
	defer delete(onPath, dev)
	for _, h := range next {
		switch {
		case h.Receive:
			emit("Delivered@" + dev)
		case h.Drop:
			emit("Dropped@" + dev)
		default:
			peer, wired := o.peer[topology.Endpoint{Node: dev, Interface: h.Interface}]
			if !wired || o.tables[peer] == nil {
				emit("ExitsNetwork@" + dev)
				continue
			}
			o.walk(peer, dst, hops+1, onPath, emit)
		}
	}
}

// outcome is src's sorted, deduplicated set of path terminals toward dst.
// paths counts the enumerated paths, stopping once past maxBranches: Trace
// keeps only that many, so such a flow has no single right answer.
func (o oracleNet) outcome(src string, dst netip.Addr) (outcome string, paths int) {
	if o.tables[src] == nil {
		return "NoRoute@" + src, 0
	}
	set := map[string]bool{}
	o.walk(src, dst, 0, map[string]bool{}, func(f string) {
		if paths <= maxBranches {
			set[f] = true
		}
		paths++
	})
	frags := make([]string, 0, len(set))
	for f := range set {
		frags = append(frags, f)
	}
	sort.Strings(frags)
	return strings.Join(frags, ","), paths
}

// oracleDiffs is the differential by brute force, sharing no code with
// Network: its own class cuts from every prefix of both snapshots, then one
// path enumeration per (source, class) flow on each side, in (source,
// class) order. Flows past maxBranches paths on either side are left out and
// returned in skipped, as "src>class".
func oracleDiffs(before, after oracleNet) (diffs []Diff, skipped map[string]bool) {
	cuts := map[uint32]bool{0: true}
	names := map[string]bool{}
	for _, o := range []oracleNet{before, after} {
		for name, t := range o.tables {
			names[name] = true
			for _, e := range t.IPv4Entries {
				p := netip.MustParsePrefix(e.Prefix)
				a := p.Addr().As4()
				start := uint64(binary.BigEndian.Uint32(a[:]))
				cuts[uint32(start)] = true
				if end := start + 1<<(32-p.Bits()); end < 1<<32 {
					cuts[uint32(end)] = true
				}
			}
		}
	}
	var reps []netip.Addr
	for c := range cuts {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], c)
		reps = append(reps, netip.AddrFrom4(a))
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Less(reps[j]) })
	var srcs []string
	for name := range names {
		srcs = append(srcs, name)
	}
	sort.Strings(srcs)

	skipped = map[string]bool{}
	for _, src := range srcs {
		for _, rep := range reps {
			b, nb := before.outcome(src, rep)
			a, na := after.outcome(src, rep)
			if nb > maxBranches || na > maxBranches {
				skipped[fmt.Sprintf("%s>%v", src, rep)] = true
				continue
			}
			if b != a {
				diffs = append(diffs, Diff{Src: src, Dst: rep, Before: b, After: a})
			}
		}
	}
	return diffs, skipped
}

// rewire returns a copy of topo, same nodes, with one link dropped or two
// links' far ends swapped.
func rewire(r *rand.Rand, topo *topology.Topology) *topology.Topology {
	out := &topology.Topology{Name: topo.Name, Nodes: topo.Nodes, Links: slices.Clone(topo.Links)}
	i, j := r.Intn(len(out.Links)), r.Intn(len(out.Links))
	if i == j || r.Intn(2) == 0 {
		out.Links = slices.Delete(out.Links, i, i+1)
	} else {
		out.Links[i].Z, out.Links[j].Z = out.Links[j].Z, out.Links[i].Z
	}
	return out
}

// randomDiffPair draws a before snapshot on topo and an after snapshot that
// regenerates about a third of the tables (the rest share the before
// pointer, as the incremental pipeline shares them), and maybe differs in
// device set (a table only on one side) and in wiring (a rewired copy of
// the topology, or an equal copy at another address).
func randomDiffPair(r *rand.Rand, topo *topology.Topology, prefixes int) (ta *topology.Topology, before, after map[string]*aft.AFT) {
	before = randomAFTs(r, topo, prefixes, true, true)
	after = map[string]*aft.AFT{}
	for _, node := range topo.Nodes {
		after[node.Name] = before[node.Name]
		if r.Intn(3) == 0 {
			after[node.Name] = randomTable(r, node.Name, prefixes, true, true)
		}
	}
	node := func() string { return topo.Nodes[r.Intn(len(topo.Nodes))].Name }
	if r.Intn(3) == 0 {
		delete(after, node())
	}
	if r.Intn(4) == 0 {
		delete(before, node())
	}
	switch r.Intn(4) {
	case 0:
		return rewire(r, topo), before, after
	case 1:
		return &topology.Topology{Name: topo.Name, Nodes: topo.Nodes, Links: slices.Clone(topo.Links)}, before, after
	}
	return topo, before, after
}

// Property: Differential equals the brute-force oracle on random snapshot
// pairs, at workers 1, 2 and 8, whether the after network is built from
// scratch or by UpdateFrom. The shapes cover small rings (the solver,
// forwarding loops, ECMP), rings of 64 and more devices (the trace walk),
// several components (the coverage skip) and components of 64 and more;
// the pairs differ in tables, in device set and in wiring.
func TestQuickDifferentialMatchesOracle(t *testing.T) {
	shapes := []struct {
		name     string
		topo     func(r *rand.Rand) *topology.Topology
		prefixes int
		seeds    int64
	}{
		{"ring", func(r *rand.Rand) *topology.Topology { return topology.Ring(3+r.Intn(4), topology.VendorEOS) }, 12, 24},
		{"ring of 64+", func(r *rand.Rand) *topology.Topology { return topology.Ring(64+r.Intn(3), topology.VendorEOS) }, 2, 3},
		{"regions", func(r *rand.Rand) *topology.Topology { return topology.MultiRegion(3, 4, topology.VendorEOS) }, 8, 16},
		{"regions of 64", func(r *rand.Rand) *topology.Topology { return topology.MultiRegion(2, 64, topology.VendorEOS) }, 2, 2},
	}
	for _, sh := range shapes {
		compared, skipped := 0, 0
		for seed := int64(0); seed < sh.seeds; seed++ {
			r := rand.New(rand.NewSource(seed))
			tb := sh.topo(r)
			ta, beforeAFTs, afterAFTs := randomDiffPair(r, tb, sh.prefixes)
			want, skip := oracleDiffs(newOracleNet(tb, beforeAFTs), newOracleNet(ta, afterAFTs))
			skipped += len(skip)
			keep := func(ds []Diff) string {
				var b strings.Builder
				for _, d := range ds {
					if !skip[fmt.Sprintf("%s>%v", d.Src, d.Dst)] {
						fmt.Fprintln(&b, d)
					}
				}
				return b.String()
			}
			before, err := NewNetwork(tb, beforeAFTs)
			if err != nil {
				t.Fatal(err)
			}
			afters := map[string]func() (*Network, error){
				"scratch": func() (*Network, error) { return NewNetwork(ta, afterAFTs) },
			}
			if ta == tb {
				afters["UpdateFrom"] = func() (*Network, error) { return before.UpdateFrom(afterAFTs) }
			}
			for how, build := range afters {
				for _, workers := range []int{1, 2, 8} {
					after, err := build()
					if err != nil {
						t.Fatal(err)
					}
					if got := keep(Queries{Workers: workers}.Differential(before, after)); got != keep(want) {
						t.Fatalf("%s seed %d, %s after, workers %d:\ngot\n%swant\n%s", sh.name, seed, how, workers, got, keep(want))
					}
				}
			}
			compared += len(want)
		}
		if compared == 0 {
			t.Errorf("%s: no seed produced a diff; the property was not exercised", sh.name)
		}
		t.Logf("%s: %d diffs compared, %d flows past %d paths left out", sh.name, compared, skipped, maxBranches)
	}
}

// TestDifferentialDepthCapMatchesOracle: on a 70-ring that forwards 9/8 all
// the way round, a walk reaches maxPathHops hops before it revisits a device,
// so only the depth cap ends it; dropping the class halfway round must be
// diffed exactly as the oracle, cap included, sees it.
func TestDifferentialDepthCapMatchesOracle(t *testing.T) {
	topo := topology.Ring(70, topology.VendorEOS)
	before, after := map[string]*aft.AFT{}, map[string]*aft.AFT{}
	for i := 1; i <= 70; i++ {
		name, egress := fmt.Sprintf("r%d", i), "Ethernet2" // toward r(i+1)
		if i == 1 {
			egress = "Ethernet1"
		}
		before[name] = buildAFT(aftSpec{device: name, routes: map[string]string{"9.0.0.0/8": egress}})
		after[name] = before[name]
	}
	after["r40"] = buildAFT(aftSpec{device: "r40", routes: map[string]string{"9.0.0.0/8": "drop"}})
	want, skip := oracleDiffs(newOracleNet(topo, before), newOracleNet(topo, after))
	// r41..r46 are 64 or more hops short of r40: capped alike on both sides.
	if len(skip) != 0 || len(want) != 64 || want[0].Before != "Loop@r65" {
		t.Fatalf("fixture: %d diffs, %d skipped, first %v", len(want), len(skip), want[0])
	}
	got := Differential(mustNet(t, topo, before), mustNet(t, topo, after))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got\n%v\nwant\n%v", got, want)
	}
}

// randomSnapshotPair builds a random before snapshot on a ring and an after
// snapshot in which a random non-empty subset of devices got fresh tables
// while every other device shares the before pointer — the sharing the
// incremental pipeline produces.
func randomSnapshotPair(r *rand.Rand, nodes, prefixes int) (*topology.Topology, map[string]*aft.AFT, map[string]*aft.AFT) {
	topo := topology.Ring(nodes, topology.VendorEOS)
	before := randomAFTs(r, topo, prefixes, false, false)
	after := map[string]*aft.AFT{}
	changed := false
	for name, a := range before {
		after[name] = a
		if r.Intn(3) == 0 {
			after[name] = randomTable(r, name, 1+r.Intn(prefixes+1), false, false)
			changed = true
		}
	}
	if !changed {
		name := fmt.Sprintf("r%d", 1+r.Intn(nodes))
		after[name] = randomTable(r, name, 1+r.Intn(prefixes+1), false, false)
	}
	return topo, before, after
}

// Property: a network rebuilt incrementally with UpdateFrom is
// indistinguishable from one built from scratch — same devices, same
// equivalence classes, same owners, and an empty differential between them.
func TestQuickUpdateFromEquivalentToRebuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo, beforeAFTs, afterAFTs := randomSnapshotPair(r, 3+r.Intn(4), 1+r.Intn(12))
		before, err := NewNetwork(topo, beforeAFTs)
		if err != nil {
			return false
		}
		fresh, err := NewNetwork(topo, afterAFTs)
		if err != nil {
			return false
		}
		incr, err := before.UpdateFrom(afterAFTs)
		if err != nil {
			return false
		}
		if fmt.Sprintf("%v", incr.Devices()) != fmt.Sprintf("%v", fresh.Devices()) {
			return false
		}
		if fmt.Sprintf("%v", incr.EquivalenceClasses()) != fmt.Sprintf("%v", fresh.EquivalenceClasses()) {
			return false
		}
		if fmt.Sprintf("%v", incr.OwnedAddrs()) != fmt.Sprintf("%v", fresh.OwnedAddrs()) {
			return false
		}
		return len(Differential(fresh, incr)) == 0 && len(Differential(incr, fresh)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(89))}); err != nil {
		t.Error(err)
	}
}

// Property: a network updated with the very tables it was built from shares
// every device with its parent, and the differential between the two is
// empty in both directions, at workers 1, 2 and 8.
func TestQuickDeltaReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo := topology.Ring(3+r.Intn(3), topology.VendorEOS)
		afts := randomAFTs(r, topo, 1+r.Intn(12), false, false)
		net, err := NewNetwork(topo, afts)
		if err != nil {
			return false
		}
		same, err := net.UpdateFrom(afts)
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 2, 8} {
			q := Queries{Workers: workers}
			if len(q.Differential(net, same)) != 0 || len(q.Differential(same, net)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(97))}); err != nil {
		t.Error(err)
	}
}

// TestUpdateFromReusesOnlySameSealedTable: UpdateFrom keeps a device only
// when handed the very sealed table it indexed. An equal table at another
// address is rebuilt, and so is an unsealed one, even at the same address.
func TestUpdateFromReusesOnlySameSealedTable(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	topo, afts, _ := randomSnapshotPair(r, 3, 6)
	// An unsealed copy, free to change under the verifier.
	a := afts["r3"]
	afts["r3"] = &aft.AFT{Device: a.Device, IPv4Entries: a.IPv4Entries, NextHopGroups: a.NextHopGroups, NextHops: a.NextHops}
	n, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := afts["r2"].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := aft.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]*aft.AFT{"r1": afts["r1"], "r2": twin, "r3": afts["r3"]}
	m, err := n.UpdateFrom(next)
	if err != nil {
		t.Fatal(err)
	}
	if m.devices["r1"] != n.devices["r1"] {
		t.Error("same sealed table: device rebuilt")
	}
	if m.devices["r2"] == n.devices["r2"] {
		t.Error("equal table at another address: device reused")
	}
	if m.devices["r3"] == n.devices["r3"] {
		t.Error("unsealed table: device reused")
	}
	if d := Differential(n, m); len(d) != 0 {
		t.Errorf("equal tables differ: %v", d)
	}
}

func TestUpdateFromRejectsUnknownDevice(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	topo, afts, _ := randomSnapshotPair(r, 3, 4)
	n, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]*aft.AFT{}
	for name, a := range afts {
		bad[name] = a
	}
	bad["ghost"] = randomTable(r, "ghost", 2, false, false)
	if _, err := n.UpdateFrom(bad); err == nil {
		t.Error("UpdateFrom accepted an AFT for a device outside the topology")
	}
}

// UpdateFrom must handle devices leaving (crashed, empty snapshot) and
// rejoining the snapshot, not only in-place changes.
func TestUpdateFromDeviceRemovalAndReturn(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	topo, afts, _ := randomSnapshotPair(r, 4, 5)
	n, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	without := map[string]*aft.AFT{}
	for name, a := range afts {
		if name != "r2" {
			without[name] = a
		}
	}
	gone, err := n.UpdateFrom(without)
	if err != nil {
		t.Fatal(err)
	}
	if len(gone.Devices()) != 3 {
		t.Fatalf("devices after removal = %v", gone.Devices())
	}
	back, err := gone.UpdateFrom(afts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	if len(Differential(fresh, back)) != 0 {
		t.Error("returning device differs from a scratch rebuild")
	}
}

func TestOutcomeDelivered(t *testing.T) {
	tests := []struct {
		outcome string
		want    bool
	}{
		{"Delivered@r1", true},
		{"Dropped@r2", false},
		{"NoRoute@r1", false},
		{"Dropped@r2,Delivered@r3", true},
		{"Delivered@r1,Dropped@r2", true},
		{"Loop@r1,NoRoute@r2", false},
		{"", false},
		{"Delivered", false},          // missing device part
		{"Undelivered@r1", false},     // disposition containing the word
		{"NoRoute@rDelivered", false}, // device name containing the word
		{"ExitsNetwork@Delivered", false},
	}
	for _, tc := range tests {
		if got := OutcomeDelivered(tc.outcome); got != tc.want {
			t.Errorf("OutcomeDelivered(%q) = %v, want %v", tc.outcome, got, tc.want)
		}
	}
}

func unionStrings(a, b []string) []string {
	out := append(append([]string{}, a...), b...)
	return sortDedupe(out)
}
