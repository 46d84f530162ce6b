package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"mfv/internal/aft"
	"mfv/internal/mpls"
	"mfv/internal/routing"
)

// The reference render below is the per-route export this package shipped
// before the next-hop group became the unit of work: copy the RIB out, key
// hop dedup on a formatted string, resolve and add a group for every route.
// It shares resolveHop and the AFT Builder with the code under test (the
// Builder has its own reference in package aft); the in-place walk, the
// struct-compare dedup and the once-per-next-hop-set resolve it does not.

func refDedupHops(in []ResolvedHop) []ResolvedHop {
	var out []ResolvedHop
	seen := map[string]bool{}
	for _, h := range in {
		key := fmt.Sprintf("%v|%s|%v|%v|%v", h.IP, h.Interface, h.Labels, h.Drop, h.Receive)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, h)
	}
	return out
}

func refResolve(f *FIB, r routing.Route) ([]ResolvedHop, error) {
	if r.Drop {
		return []ResolvedHop{{Drop: true}}, nil
	}
	if r.Protocol == routing.ProtoLocal {
		return []ResolvedHop{{Receive: true}}, nil
	}
	var out []ResolvedHop
	for _, nh := range r.NextHops {
		hops, err := f.resolveHop(nh, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, hops...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("resolved to nothing")
	}
	return refDedupHops(out), nil
}

func refExportAFT(f *FIB, device string, crossConnects []mpls.CrossConnect) *aft.AFT {
	b := aft.NewBuilder(device)
	for _, r := range f.rib.Routes() {
		hops, err := refResolve(f, r)
		if err != nil {
			continue
		}
		var idx []uint64
		for _, h := range hops {
			idx = append(idx, b.AddNextHop(aftHop(h)))
		}
		b.AddIPv4(r.Prefix, b.AddGroup(idx), r.Protocol.String(), r.Metric)
	}
	for _, xc := range crossConnects {
		var hop ResolvedHop
		if xc.NextHop.IsValid() {
			hop = ResolvedHop{IP: xc.NextHop}
			if via, ok := f.rib.Lookup(xc.NextHop); ok && len(via.NextHops) > 0 {
				hop.Interface = via.NextHops[0].Interface
			}
			if xc.OutLabel != 0 {
				hop.Labels = []uint32{xc.OutLabel}
			}
		} else {
			hop = ResolvedHop{Receive: true}
		}
		idx := b.AddNextHop(aftHop(hop))
		b.AddLabel(xc.InLabel, b.AddGroup([]uint64{idx}), xc.OutLabel == 0)
	}
	return b.Build()
}

// randomFIB builds a router-shaped RIB: three connected subnets, a local
// loopback, IGP routes with ECMP (repeated hops included) and label stacks
// chosen so that [1 2], [12] and [1]+[2] all occur, BGP routes recursing
// through IGP routes, other BGP routes, the router's own address or nothing
// at all, and discard routes — many prefixes over few next-hop sets.
func randomFIB(r *rand.Rand) (*FIB, []mpls.CrossConnect) {
	rib := routing.NewRIB()
	local := []netip.Addr{addr("1.1.1.1")}
	rib.Install(routing.Route{Prefix: pfx("1.1.1.1/32"), Protocol: routing.ProtoLocal,
		NextHops: []routing.NextHop{{Interface: "Loopback0"}}})
	var adj []routing.NextHop
	for i := 0; i < 3; i++ {
		intf := fmt.Sprintf("Ethernet%d", i+1)
		rib.Install(routing.Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 31),
			Protocol: routing.ProtoConnected, NextHops: []routing.NextHop{{Interface: intf}}})
		local = append(local, netip.AddrFrom4([4]byte{10, 0, byte(i), 0}))
		adj = append(adj, routing.NextHop{IP: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}), Interface: intf})
	}
	stacks := [][]uint32{nil, nil, nil, {1, 2}, {12}, {1}, {2}, {300, 1, 2}}
	// IGP loopbacks 2.2.2.x: the recursion targets.
	for i := 0; i < 6; i++ {
		rt := routing.Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{2, 2, 2, byte(i)}), 32),
			Protocol: routing.ProtoISIS, Distance: 115, Metric: uint32(10 + r.Intn(3))}
		for n := 1 + r.Intn(3); n > 0; n-- {
			nh := adj[r.Intn(len(adj))]
			nh.LabelStack = stacks[r.Intn(len(stacks))]
			rt.NextHops = append(rt.NextHops, nh)
		}
		rib.Install(rt)
	}
	// A BGP route other BGP routes recurse through, and a discard aggregate.
	rib.Install(routing.Route{Prefix: pfx("3.3.3.0/24"), Protocol: routing.ProtoIBGP, Distance: 200,
		NextHops: []routing.NextHop{{IP: addr("2.2.2.1"), LabelStack: stacks[r.Intn(len(stacks))]}}})
	rib.Install(routing.Route{Prefix: pfx("9.0.0.0/8"), Protocol: routing.ProtoAggregate, Distance: 210, Drop: true})
	targets := []netip.Addr{
		addr("2.2.2.0"), addr("2.2.2.1"), addr("2.2.2.2"), addr("2.2.2.5"),
		addr("3.3.3.3"),   // via BGP via IGP
		addr("10.0.1.1"),  // on a connected subnet
		addr("1.1.1.1"),   // self: receive
		addr("9.9.9.9"),   // into the discard
		addr("77.7.7.7"),  // unresolvable
		addr("2.2.2.200"), // unresolvable
	}
	for n := 20 + r.Intn(200); n > 0; n-- {
		var a [4]byte
		r.Read(a[:])
		a[0] = 100 + a[0]%100
		rt := routing.Route{Prefix: netip.PrefixFrom(netip.AddrFrom4(a), 8+r.Intn(25)).Masked(),
			Protocol: routing.ProtoEBGP, Distance: 20, Metric: uint32(r.Intn(4))}
		switch r.Intn(10) {
		case 0:
			rt.Protocol, rt.Distance, rt.Drop = routing.ProtoStatic, 1, true
		case 1:
			rt.Protocol, rt.Distance = routing.ProtoISIS, 115
			for m := 1 + r.Intn(3); m > 0; m-- {
				nh := adj[r.Intn(len(adj))]
				nh.LabelStack = stacks[r.Intn(len(stacks))]
				rt.NextHops = append(rt.NextHops, nh)
			}
		default:
			for m := 1 + r.Intn(2); m > 0; m-- {
				rt.NextHops = append(rt.NextHops, routing.NextHop{
					IP: targets[r.Intn(len(targets))], LabelStack: stacks[r.Intn(len(stacks))]})
			}
		}
		rib.Install(rt)
	}
	var xcs []mpls.CrossConnect
	for n := r.Intn(5); n > 0; n-- {
		xc := mpls.CrossConnect{InLabel: uint32(16 + r.Intn(100)), OutLabel: uint32(r.Intn(3) * 100)}
		if r.Intn(3) > 0 {
			xc.NextHop = targets[r.Intn(len(targets))]
		}
		xcs = append(xcs, xc)
	}
	return New(rib, local), xcs
}

// Property: ExportAFT's table is byte-identical, marshalled, to the
// reference render's and carries the same fingerprint.
func TestQuickExportAFTMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		fib, xcs := randomFIB(rand.New(rand.NewSource(seed)))
		got, want := fib.ExportAFT("r1", xcs), refExportAFT(fib, "r1", xcs)
		gotJSON, err := got.Marshal()
		if err != nil {
			return false
		}
		wantJSON, err := want.Marshal()
		if err != nil {
			return false
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Logf("seed %d:\n got %s\nwant %s", seed, gotJSON, wantJSON)
			return false
		}
		return got.Fingerprint() == want.Fingerprint() && got.Equal(want) && len(got.IPv4Entries) > 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: dedupHops keeps what the formatted-key reference keeps.
func TestQuickDedupHopsMatchesReference(t *testing.T) {
	pool := []ResolvedHop{
		{Drop: true}, {Receive: true},
		{IP: addr("10.0.0.1"), Interface: "Ethernet1"},
		{IP: addr("10.0.0.1"), Interface: "Ethernet2"},
		{IP: addr("10.0.0.1"), Interface: "Ethernet1", Labels: []uint32{1, 2}},
		{IP: addr("10.0.0.1"), Interface: "Ethernet1", Labels: []uint32{12}},
		{IP: addr("10.0.0.1"), Interface: "Ethernet1", Labels: []uint32{}},
		{Interface: "Ethernet1"},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := make([]ResolvedHop, r.Intn(12))
		for i := range in {
			in[i] = pool[r.Intn(len(pool))]
		}
		want := refDedupHops(in)
		got := dedupHops(append([]ResolvedHop(nil), in...))
		return fmt.Sprint(got) == fmt.Sprint(want) && len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// TestExportAFTAllocsPerPrefix gates the render's allocation shape without
// naming a machine: with every prefix behind one next-hop set, a prefix
// costs its own entry and nothing else — the resolve, the hop and the group
// are paid once per set — so doubling the prefixes adds O(1) allocations
// each and the group-side count does not move.
func TestExportAFTAllocsPerPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	export := func(prefixes int) float64 {
		rib := baseRIB()
		rib.Install(routing.Route{Prefix: pfx("2.2.2.2/32"), Protocol: routing.ProtoISIS, Distance: 115,
			NextHops: []routing.NextHop{{IP: addr("10.0.0.1"), Interface: "Ethernet1"}}})
		for i := 0; i < prefixes; i++ {
			rib.Install(routing.Route{
				Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(i >> 8), byte(i), 0}), 24),
				Protocol: routing.ProtoIBGP, Distance: 200,
				NextHops: []routing.NextHop{{IP: addr("2.2.2.2")}},
			})
		}
		f := New(rib, []netip.Addr{addr("1.1.1.1")})
		f.ExportAFT("r1", nil) // the first render interns the prefix strings
		return testing.AllocsPerRun(5, func() { f.ExportAFT("r1", nil) })
	}
	const n = 2000
	small, large := export(n), export(2*n)
	// What still grows with the prefix count is the entry slice itself:
	// a logarithmic number of append growths and Build's exact-size copy.
	if grown := large - small; grown > 16 {
		t.Errorf("%d more prefixes behind the same next-hop set cost %.0f more allocations (%.0f -> %.0f); want a handful of slice growths",
			n, grown, small, large)
	}
	if perPrefix := large / (2 * n); perPrefix > 0.05 {
		t.Errorf("warm render allocates %.3f per prefix", perPrefix)
	}
}
