// Package testnet builds the paper's evaluation networks: the 6-node
// three-AS network of Fig. 2 (iBGP + eBGP + IS-IS), the 3-node Fig. 3 line
// with the misordered interface configuration, a parameterized WAN replica
// for the convergence experiment, and the 3-router eBGP Triangle with its
// two-state Disagree variant. Tests, examples, and the benchmark harness all
// draw their scenarios from here.
package testnet

import (
	"fmt"
	"net/netip"
	"strings"

	"mfv/internal/confgen"
	"mfv/internal/topology"
)

// Fig2 returns the paper's 6-node test network: three ASes in a chain —
// AS65001 {r5, r6}, AS65002 {r1, r2}, AS65003 {r3, r4} — with IS-IS and
// iBGP inside each AS and eBGP sessions r6–r1 and r2–r3 between them. Every
// router originates its loopback 2.2.2.<n>/32 into BGP. Config sizes land
// in the paper's 62–82 line range.
func Fig2() *topology.Topology {
	topo := &topology.Topology{Name: "fig2"}
	for i := 1; i <= 6; i++ {
		topo.Nodes = append(topo.Nodes, topology.Node{
			Name:   fmt.Sprintf("r%d", i),
			Vendor: topology.VendorEOS,
		})
	}
	link := func(a, ai, z, zi string) {
		topo.Links = append(topo.Links, topology.Link{
			A: topology.Endpoint{Node: a, Interface: ai},
			Z: topology.Endpoint{Node: z, Interface: zi},
		})
	}
	// Intra-AS links on Ethernet1; inter-AS links on Ethernet2.
	link("r1", "Ethernet1", "r2", "Ethernet1") // AS65002
	link("r3", "Ethernet1", "r4", "Ethernet1") // AS65003
	link("r5", "Ethernet1", "r6", "Ethernet1") // AS65001
	link("r2", "Ethernet2", "r3", "Ethernet2") // AS65002 <-> AS65003
	link("r6", "Ethernet2", "r1", "Ethernet2") // AS65001 <-> AS65002

	lo := func(i int) netip.Prefix { return netip.MustParsePrefix(fmt.Sprintf("2.2.2.%d/32", i)) }
	loA := func(i int) netip.Addr { return lo(i).Addr() }

	// AS membership and intra-AS /31s.
	asOf := map[int]uint32{1: 65002, 2: 65002, 3: 65003, 4: 65003, 5: 65001, 6: 65001}
	intra := map[int]netip.Prefix{ // Ethernet1 address per router
		1: netip.MustParsePrefix("100.64.12.0/31"), 2: netip.MustParsePrefix("100.64.12.1/31"),
		3: netip.MustParsePrefix("100.64.34.0/31"), 4: netip.MustParsePrefix("100.64.34.1/31"),
		5: netip.MustParsePrefix("100.64.56.0/31"), 6: netip.MustParsePrefix("100.64.56.1/31"),
	}
	inter := map[int]netip.Prefix{ // Ethernet2 address, only on border routers
		2: netip.MustParsePrefix("100.64.23.0/31"), 3: netip.MustParsePrefix("100.64.23.1/31"),
		6: netip.MustParsePrefix("100.64.61.0/31"), 1: netip.MustParsePrefix("100.64.61.1/31"),
	}
	ibgpPeer := map[int]int{1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
	ebgpPeer := map[int]struct {
		addr netip.Addr
		asn  uint32
	}{
		2: {netip.MustParseAddr("100.64.23.1"), 65003},
		3: {netip.MustParseAddr("100.64.23.0"), 65002},
		6: {netip.MustParseAddr("100.64.61.1"), 65002},
		1: {netip.MustParseAddr("100.64.61.0"), 65001},
	}

	for i := 1; i <= 6; i++ {
		spec := confgen.Spec{
			Hostname:      fmt.Sprintf("r%d", i),
			NET:           fmt.Sprintf("49.0001.0000.0000.%04d.00", i),
			Management:    2,
			PolicyPadding: 4,
			MPLSTE:        true,
			TETunnelTo:    loA(ibgpPeer[i]),
			Interfaces: []confgen.Iface{
				{Name: "Loopback0", Addr: lo(i), ISIS: true},
				{Name: "Ethernet1", Addr: intra[i], ISIS: true, MPLS: true},
			},
			BGP: &confgen.BGP{
				ASN:      asOf[i],
				RouterID: loA(i),
				Networks: []netip.Prefix{lo(i)},
				Neighbors: []confgen.Neighbor{{
					Addr:         loA(ibgpPeer[i]),
					RemoteAS:     asOf[i],
					Description:  "iBGP " + fmt.Sprintf("r%d", ibgpPeer[i]),
					UpdateSource: "Loopback0",
					NextHopSelf:  true,
				}},
			},
		}
		if p, ok := inter[i]; ok {
			spec.Interfaces = append(spec.Interfaces, confgen.Iface{Name: "Ethernet2", Addr: p})
			eb := ebgpPeer[i]
			spec.BGP.Neighbors = append(spec.BGP.Neighbors, confgen.Neighbor{
				Addr: eb.addr, RemoteAS: eb.asn, Description: "eBGP", SendCommunity: true,
			})
		}
		node, _ := topo.Node(spec.Hostname)
		node.Config = confgen.EOS(spec)
	}
	return topo
}

// Fig2Buggy returns the Fig. 2 network with the r2–r3 eBGP session removed
// (the "buggy version" from experiment E1): the neighbor statements are
// deleted from both border routers.
func Fig2Buggy() *topology.Topology {
	topo := Fig2()
	for _, name := range []string{"r2", "r3"} {
		node, _ := topo.Node(name)
		var out []string
		for _, line := range strings.Split(node.Config, "\n") {
			if strings.Contains(line, "neighbor 100.64.23.") {
				continue
			}
			out = append(out, line)
		}
		node.Config = strings.Join(out, "\n")
	}
	return topo
}

// Fig2ASOf maps a Fig. 2 router name to its AS number.
func Fig2ASOf(name string) uint32 {
	switch name {
	case "r1", "r2":
		return 65002
	case "r3", "r4":
		return 65003
	case "r5", "r6":
		return 65001
	}
	return 0
}

// Fig2Loopback returns router rN's loopback address.
func Fig2Loopback(name string) netip.Addr {
	return netip.MustParseAddr("2.2.2." + strings.TrimPrefix(name, "r"))
}

// Fig3 returns the paper's 3-node line topology with the Fig. 3
// configuration: IS-IS only, loopbacks 2.2.2.<n>/32, and every Ethernet
// interface configured with "ip address" BEFORE "no switchport" — valid on
// the vendor, dropped by the reference model.
func Fig3() *topology.Topology {
	topo := topology.Line(3, topology.VendorEOS)
	nets := []string{"", "49.0001.1010.1040.1010.00", "49.0001.1010.1040.1020.00", "49.0001.1010.1040.1030.00"}
	transfer := func(i int) netip.Prefix { // /31 between r<i> and r<i+1>
		return netip.MustParsePrefix(fmt.Sprintf("100.64.%d.0/31", i))
	}
	for i := 1; i <= 3; i++ {
		spec := confgen.Spec{
			Hostname: fmt.Sprintf("r%d", i),
			NET:      nets[i],
			Interfaces: []confgen.Iface{
				{Name: "Loopback0", Addr: netip.MustParsePrefix(fmt.Sprintf("2.2.2.%d/32", i)), ISIS: true},
			},
		}
		if i > 1 { // link toward r<i-1> on Ethernet1
			p := transfer(i - 1)
			spec.Interfaces = append(spec.Interfaces, confgen.Iface{
				Name: "Ethernet1",
				Addr: netip.PrefixFrom(p.Addr().Next(), 31),
				ISIS: true, MisorderSwitchport: true,
			})
		}
		if i < 3 { // link toward r<i+1>
			name := "Ethernet1"
			if i > 1 {
				name = "Ethernet2"
			}
			spec.Interfaces = append(spec.Interfaces, confgen.Iface{
				Name: name,
				Addr: netip.PrefixFrom(transfer(i).Addr(), 31),
				ISIS: true, MisorderSwitchport: true,
			})
		}
		node, _ := topo.Node(spec.Hostname)
		node.Config = confgen.EOS(spec)
	}
	return topo
}

// Triangle returns three EOS routers, each in its own AS (rN in AS N), with
// eBGP over three /31 links and no policy. r1 originates 9.9.9.9/32, so r2
// and r3 each hold a direct path and a backup through the other: one link
// cut only reroutes, two cuts can isolate. The network has one stable state.
func Triangle() *topology.Topology {
	topo := &topology.Topology{Name: "triangle"}
	specs := make([]confgen.Spec, 4)
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("r%d", i)
		topo.Nodes = append(topo.Nodes, topology.Node{Name: name, Vendor: topology.VendorEOS})
		specs[i] = confgen.Spec{Hostname: name, BGP: &confgen.BGP{ASN: uint32(i)}}
	}
	origin := netip.MustParsePrefix("9.9.9.9/32")
	specs[1].Interfaces = []confgen.Iface{{Name: "Loopback0", Addr: origin}}
	specs[1].BGP.Networks = []netip.Prefix{origin}
	// link joins rA and rZ over 10.0.AZ.0/31 with an eBGP session across it.
	link := func(a int, ai string, z int, zi string) {
		topo.Links = append(topo.Links, topology.Link{
			A: topology.Endpoint{Node: fmt.Sprintf("r%d", a), Interface: ai},
			Z: topology.Endpoint{Node: fmt.Sprintf("r%d", z), Interface: zi},
		})
		p := netip.MustParsePrefix(fmt.Sprintf("10.0.%d%d.0/31", a, z))
		specs[a].Interfaces = append(specs[a].Interfaces, confgen.Iface{Name: ai, Addr: p})
		specs[z].Interfaces = append(specs[z].Interfaces, confgen.Iface{Name: zi, Addr: netip.PrefixFrom(p.Addr().Next(), 31)})
		specs[a].BGP.Neighbors = append(specs[a].BGP.Neighbors, confgen.Neighbor{Addr: p.Addr().Next(), RemoteAS: uint32(z)})
		specs[z].BGP.Neighbors = append(specs[z].BGP.Neighbors, confgen.Neighbor{Addr: p.Addr(), RemoteAS: uint32(a)})
	}
	link(1, "Ethernet1", 2, "Ethernet1")
	link(1, "Ethernet2", 3, "Ethernet1")
	link(2, "Ethernet2", 3, "Ethernet2")
	for i := range topo.Nodes {
		topo.Nodes[i].Config = confgen.EOS(specs[i+1])
	}
	return topo
}

// Disagree returns the Triangle with r2 and r3 each preferring the other's
// route to 9.9.9.9 (local-preference 200 inbound on the r2–r3 session): the
// textbook two-solution instance of the stable paths problem (Griffin,
// Shepherd and Wilfong, 2002). Which state the network settles in depends
// on event order.
func Disagree() *topology.Topology {
	topo := Triangle()
	topo.Name = "disagree"
	for name, peer := range map[string]string{"r2": "10.0.23.1", "r3": "10.0.23.0"} {
		node, _ := topo.Node(name)
		var out []string
		for _, line := range strings.Split(node.Config, "\n") {
			if line == "end" {
				out = append(out, "route-map PREFER permit 10", "   set local-preference 200")
			}
			out = append(out, line)
			if strings.HasPrefix(line, "   neighbor "+peer+" remote-as ") {
				out = append(out, "   neighbor "+peer+" route-map PREFER in")
			}
		}
		node.Config = strings.Join(out, "\n")
	}
	return topo
}

// WAN returns an n-router grid-ish backbone replica for the convergence
// experiment (E6): IS-IS everywhere, iBGP full mesh among the first
// `borders` routers (route reflectors would be realistic but the paper's
// replica is small), and an eBGP edge on r1 at 198.51.100.1/31 peering AS
// 64700 for route injection. Set vendors to alternate when multiVendor.
func WAN(n int, multiVendor bool) *topology.Topology {
	if n < 2 {
		panic("testnet: WAN needs at least 2 routers")
	}
	topo := topology.Grid(rows(n), cols(n), topology.VendorEOS)
	topo.Name = fmt.Sprintf("wan-%d", n)
	// Trim to exactly n nodes (Grid may produce more).
	topo.Nodes = topo.Nodes[:n]
	var links []topology.Link
	names := map[string]bool{}
	for _, node := range topo.Nodes {
		names[node.Name] = true
	}
	for _, l := range topo.Links {
		if names[l.A.Node] && names[l.Z.Node] {
			links = append(links, l)
		}
	}
	topo.Links = links

	// Address links: per-link /31 from 10.<idx/256>.<idx%256>.0.
	ifaceAddrs := map[topology.Endpoint]netip.Prefix{}
	for idx, l := range topo.Links {
		base := netip.AddrFrom4([4]byte{10, byte(idx >> 8), byte(idx & 0xff), 0})
		ifaceAddrs[l.A] = netip.PrefixFrom(base, 31)
		ifaceAddrs[l.Z] = netip.PrefixFrom(base.Next(), 31)
	}

	mesh := n
	if mesh > 4 {
		mesh = 4 // iBGP mesh among first 4 routers keeps sessions O(n)
	}
	for i := range topo.Nodes {
		node := &topo.Nodes[i]
		if multiVendor && i%5 == 4 {
			// Every fifth router is the other vendor — but only non-mesh,
			// pure-IGP transits, since the junoslike dialect in this repo
			// carries a reduced BGP surface.
			if i >= mesh {
				node.Vendor = topology.VendorJunosLike
			}
		}
		num := i + 1
		loPfx := netip.MustParsePrefix(fmt.Sprintf("3.3.%d.%d/32", num/250, num%250))
		spec := confgen.Spec{
			Hostname:   node.Name,
			NET:        fmt.Sprintf("49.0001.0000.0000.%04d.00", num),
			Management: 1,
			Interfaces: []confgen.Iface{{Name: "Loopback0", Addr: loPfx, ISIS: true}},
		}
		for _, l := range topo.NodeLinks(node.Name) {
			ep := l.A
			if ep.Node != node.Name {
				ep = l.Z
			}
			spec.Interfaces = append(spec.Interfaces, confgen.Iface{
				Name: ep.Interface, Addr: ifaceAddrs[ep], ISIS: true,
			})
		}
		if i < mesh {
			spec.BGP = &confgen.BGP{
				ASN:      65000,
				RouterID: loPfx.Addr(),
				Networks: []netip.Prefix{loPfx},
			}
			for j := 0; j < mesh; j++ {
				if j == i {
					continue
				}
				peerNum := j + 1
				spec.BGP.Neighbors = append(spec.BGP.Neighbors, confgen.Neighbor{
					Addr:         netip.MustParseAddr(fmt.Sprintf("3.3.%d.%d", peerNum/250, peerNum%250)),
					RemoteAS:     65000,
					UpdateSource: "Loopback0",
					NextHopSelf:  true,
				})
			}
			if i == 0 {
				// Injection edge.
				spec.Interfaces = append(spec.Interfaces, confgen.Iface{
					Name: "Ethernet99", Addr: netip.MustParsePrefix("198.51.100.0/31"),
				})
				spec.BGP.Neighbors = append(spec.BGP.Neighbors, confgen.Neighbor{
					Addr: netip.MustParseAddr("198.51.100.1"), RemoteAS: 64700,
				})
			}
		}
		if node.Vendor == topology.VendorJunosLike {
			node.Config = junosFor(spec)
		} else {
			node.Config = confgen.EOS(spec)
		}
	}
	return topo
}

// junosFor renders a reduced junoslike config (IS-IS + interfaces only) for
// multi-vendor WAN transits.
func junosFor(s confgen.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system { host-name %s; }\n", s.Hostname)
	b.WriteString("interfaces {\n")
	for _, intf := range s.Interfaces {
		fmt.Fprintf(&b, "    %s { unit 0 { family inet { address %s; } } }\n", intf.Name, intf.Addr)
	}
	b.WriteString("}\nprotocols {\n    isis {\n")
	fmt.Fprintf(&b, "        net %s;\n", s.NET)
	for _, intf := range s.Interfaces {
		if !intf.ISIS {
			continue
		}
		if strings.HasPrefix(intf.Name, "Loopback") {
			fmt.Fprintf(&b, "        interface %s.0 { passive; }\n", intf.Name)
		} else {
			fmt.Fprintf(&b, "        interface %s.0;\n", intf.Name)
		}
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

func rows(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func cols(n int) int {
	r := rows(n)
	return (n + r - 1) / r
}
