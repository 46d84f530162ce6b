package verify

import (
	"sort"
)

// This file gives the batch engine its region awareness. A topology built
// from independent regions (cmd/topogen -shape regions) has a device graph
// that splits into connected components, and a forwarding walk can never
// cross a component boundary — packets only move over links. Solving
// per-destination outcomes component-by-component therefore changes nothing
// about the answers, but it changes everything about the cost model: the
// maxPathHops solver cutoff applies per component instead of to the whole
// network, and a destination class touches only the components whose FIBs
// cover it. Devices in skipped components fall back to the exact NoRoute
// self-outcome the sequential walk would have produced (no FIB coverage
// means no matching entry).

// component is one connected piece of the device graph.
type component struct {
	// id is the component's position in Network.components.
	id uint32
	// members are the component's devices, sorted by name.
	members []*device
	// covStart/covEnd are the merged [start, end) u64 address intervals
	// (end may be 1<<32) covered by any member FIB prefix, sorted by start.
	// A network of one component never asks, and leaves them empty.
	covStart []uint64
	covEnd   []uint64
}

// covers reports whether addr (as u32) falls inside any member FIB prefix.
func (c *component) covers(addr uint32) bool {
	a := uint64(addr)
	// First interval starting after a; the candidate is its predecessor.
	i := sort.Search(len(c.covStart), func(i int) bool { return c.covStart[i] > a })
	return i > 0 && a < c.covEnd[i-1]
}

// components returns the cached connected components of the device graph,
// in deterministic (smallest member name) order.
func (n *Network) components() []*component {
	n.compOnce.Do(func() { n.comps = n.computeComponents() })
	return n.comps
}

func (n *Network) computeComponents() []*component {
	// Union-find over the devices with forwarding state, joined by topology
	// links whose endpoints both carry state.
	parent := make(map[string]string, len(n.devices))
	for name := range n.devices {
		parent[name] = name
	}
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, l := range n.topo.Links {
		if _, ok := n.devices[l.A.Node]; !ok {
			continue
		}
		if _, ok := n.devices[l.Z.Node]; !ok {
			continue
		}
		union(l.A.Node, l.Z.Node)
	}
	groups := map[string][]*device{}
	for name, d := range n.devices {
		r := find(name)
		groups[r] = append(groups[r], d)
	}
	comps := make([]*component, 0, len(groups))
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
		comps = append(comps, &component{members: members})
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].members[0].name < comps[j].members[0].name })
	for i, c := range comps {
		c.id = uint32(i)
		if len(comps) > 1 {
			c.buildCoverage()
		}
	}
	return comps
}

// buildCoverage merges every member prefix's [start, end) interval.
func (c *component) buildCoverage() {
	type iv struct{ start, end uint64 }
	var ivs []iv
	for _, d := range c.members {
		for _, p := range d.fib.Prefixes() {
			start := uint64(addrU32(p.Addr()))
			ivs = append(ivs, iv{start, start + 1<<(32-p.Bits())})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	for _, v := range ivs {
		if k := len(c.covEnd); k > 0 && v.start <= c.covEnd[k-1] {
			if v.end > c.covEnd[k-1] {
				c.covEnd[k-1] = v.end
			}
			continue
		}
		c.covStart = append(c.covStart, v.start)
		c.covEnd = append(c.covEnd, v.end)
	}
}
