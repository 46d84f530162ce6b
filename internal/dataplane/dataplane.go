// Package dataplane builds a device's forwarding state from its RIB: it
// performs recursive next-hop resolution (a BGP next hop several IGP hops
// away resolves to a connected adjacency), constructs the FIB, and exports
// the result in the OpenConfig-shaped AFT model.
package dataplane

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"

	"mfv/internal/aft"
	"mfv/internal/mpls"
	"mfv/internal/routing"
)

// maxRecursion bounds next-hop resolution depth; deeper chains indicate a
// routing loop in recursive resolution.
const maxRecursion = 8

// ResolvedHop is a fully resolved forwarding action.
type ResolvedHop struct {
	// IP is the immediate adjacent address (on a connected subnet).
	IP netip.Addr
	// Interface is the egress port.
	Interface string
	// Labels is the MPLS stack pushed on egress.
	Labels []uint32
	// Drop marks a discard action.
	Drop bool
	// Receive marks local delivery.
	Receive bool
}

// FIB is the resolved forwarding table.
type FIB struct {
	rib *routing.RIB
	// localAddrs are this device's own interface addresses (local
	// delivery).
	localAddrs map[netip.Addr]bool
}

// New builds a FIB view over a RIB. localAddrs are the device's own
// addresses.
func New(rib *routing.RIB, localAddrs []netip.Addr) *FIB {
	m := make(map[netip.Addr]bool, len(localAddrs))
	for _, a := range localAddrs {
		m[a] = true
	}
	return &FIB{rib: rib, localAddrs: m}
}

// Resolve fully resolves the forwarding action(s) for a route.
func (f *FIB) Resolve(r routing.Route) ([]ResolvedHop, error) {
	if r.Drop {
		return []ResolvedHop{{Drop: true}}, nil
	}
	if r.Protocol == routing.ProtoLocal {
		// The device's own address: local delivery, not forwarding.
		return []ResolvedHop{{Receive: true}}, nil
	}
	var out []ResolvedHop
	for _, nh := range r.NextHops {
		hops, err := f.resolveHop(nh, 0)
		if err != nil {
			return nil, fmt.Errorf("dataplane: resolving %v: %w", r.Prefix, err)
		}
		out = append(out, hops...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataplane: route %v resolved to nothing", r.Prefix)
	}
	return dedupHops(out), nil
}

func (f *FIB) resolveHop(nh routing.NextHop, depth int) ([]ResolvedHop, error) {
	if depth > maxRecursion {
		return nil, fmt.Errorf("recursion limit hit at %v", nh.IP)
	}
	// Direct (connected) hop: interface known, or no IP at all.
	if nh.Interface != "" {
		return []ResolvedHop{{IP: nh.IP, Interface: nh.Interface, Labels: nh.LabelStack}}, nil
	}
	if !nh.IP.IsValid() {
		return nil, fmt.Errorf("next hop with neither interface nor address")
	}
	if f.localAddrs[nh.IP] {
		return []ResolvedHop{{Receive: true}}, nil
	}
	via, ok := f.rib.Lookup(nh.IP)
	if !ok {
		return nil, fmt.Errorf("no route to next hop %v", nh.IP)
	}
	if via.Drop {
		return []ResolvedHop{{Drop: true}}, nil
	}
	var out []ResolvedHop
	for _, inner := range via.NextHops {
		if via.Protocol == routing.ProtoConnected || via.Protocol == routing.ProtoLocal {
			// Terminal: the original next hop is on a connected subnet.
			intf := inner.Interface
			hop := ResolvedHop{IP: nh.IP, Interface: intf, Labels: nh.LabelStack}
			if via.Protocol == routing.ProtoLocal {
				hop = ResolvedHop{Receive: true}
			}
			out = append(out, hop)
			continue
		}
		resolved, err := f.resolveHop(inner, depth+1)
		if err != nil {
			return nil, err
		}
		// The recursive route's labels stack under the original's.
		for i := range resolved {
			if len(nh.LabelStack) > 0 {
				resolved[i].Labels = append(append([]uint32{}, nh.LabelStack...), resolved[i].Labels...)
			}
		}
		out = append(out, resolved...)
	}
	return out, nil
}

// dedupHops drops repeated hops in place, keeping first occurrences. ECMP
// sets are a handful of hops, so pairwise comparison beats building keys.
func dedupHops(hops []ResolvedHop) []ResolvedHop {
	out := hops[:0]
	for _, h := range hops {
		if !slices.ContainsFunc(out, h.equal) {
			out = append(out, h)
		}
	}
	return out
}

func (h ResolvedHop) equal(o ResolvedHop) bool {
	return h.IP == o.IP && h.Interface == o.Interface && h.Drop == o.Drop &&
		h.Receive == o.Receive && slices.Equal(h.Labels, o.Labels)
}

// appendNextHopSet appends a key for everything Resolve reads of a route:
// the drop and local-delivery flags and the next-hop set, strings and label
// stacks length-prefixed so that distinct sets never share a key.
func appendNextHopSet(key []byte, r *routing.Route) []byte {
	var flags byte
	if r.Drop {
		flags |= 1
	}
	if r.Protocol == routing.ProtoLocal {
		flags |= 2
	}
	key = append(key, flags)
	for i := range r.NextHops {
		nh := &r.NextHops[i]
		ip := nh.IP.As16()
		key = append(key, ip[:]...)
		key = binary.AppendUvarint(append(key, byte(nh.IP.BitLen())), uint64(len(nh.Interface)))
		key = append(key, nh.Interface...)
		key = binary.AppendUvarint(key, uint64(len(nh.LabelStack)))
		for _, l := range nh.LabelStack {
			key = binary.BigEndian.AppendUint32(key, l)
		}
	}
	return key
}

// ExportAFT renders the full RIB as an AFT, resolving every elected route.
// Unresolvable routes are skipped (they are not programmed into hardware on
// real devices either). crossConnects adds MPLS ILM entries.
//
// Thousands of prefixes share a handful of next-hop sets, and within one
// export a set always resolves the same way: each distinct set is resolved
// and added once, and a further route behind it costs a map probe.
func (f *FIB) ExportAFT(device string, crossConnects []mpls.CrossConnect) *aft.AFT {
	b := aft.NewBuilder(device)
	groupOf := map[string]uint64{} // next-hop set -> group id, 0 = unresolvable
	var key []byte
	var idx []uint64
	f.rib.Walk(func(r *routing.Route) {
		key = appendNextHopSet(key[:0], r)
		group, seen := groupOf[string(key)]
		if !seen {
			if hops, err := f.Resolve(*r); err == nil {
				idx = idx[:0]
				for _, h := range hops {
					idx = append(idx, b.AddNextHop(aftHop(h)))
				}
				group = b.AddGroup(idx)
			}
			groupOf[string(key)] = group
		}
		if group != 0 {
			b.AddIPv4(r.Prefix, group, r.Protocol.String(), r.Metric)
		}
	})
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
			// Tail-end pop with no downstream hop: the inner packet is
			// delivered to the local IP stack.
			hop = ResolvedHop{Receive: true}
		}
		idx := b.AddNextHop(aftHop(hop))
		b.AddLabel(xc.InLabel, b.AddGroup([]uint64{idx}), xc.OutLabel == 0)
	}
	return b.Build()
}

func aftHop(h ResolvedHop) aft.NextHop {
	nh := aft.NextHop{
		Interface:    h.Interface,
		PushedLabels: h.Labels,
		Drop:         h.Drop,
		Receive:      h.Receive,
	}
	if h.IP.IsValid() {
		nh.IPAddress = h.IP.String()
	}
	return nh
}
