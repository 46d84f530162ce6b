package verify

import (
	"fmt"
	"net/netip"
	"sort"

	"mfv/internal/topology"
)

// This file implements the performance-verification direction the paper
// sketches in §6: "one can explore workloads on the produced dataplane
// model, such as checking link utilizations for a range of possible demands
// with the given dataplane." Demands are routed over the extracted
// forwarding state (ECMP splits evenly, as hardware hashing approximates)
// and per-link load is accumulated and checked against capacities.

// Demand is one traffic intent.
type Demand struct {
	// Src is the ingress device.
	Src string
	// Dst is the destination address.
	Dst netip.Addr
	// Rate is the offered load in arbitrary bandwidth units.
	Rate float64
}

// LinkLoad is the accumulated load on one directed link.
type LinkLoad struct {
	From topology.Endpoint
	To   topology.Endpoint
	Load float64
}

// UtilizationReport is the result of routing a demand set.
type UtilizationReport struct {
	// Links holds directed per-link loads, sorted descending.
	Links []LinkLoad
	// Undeliverable lists demands that did not fully deliver (loops,
	// drops, no route), with the fraction lost.
	Undeliverable []UndeliveredDemand
}

// UndeliveredDemand is a demand with a non-delivering fraction.
type UndeliveredDemand struct {
	Demand       Demand
	LostFraction float64
}

// MaxLoad returns the highest directed-link load.
func (r *UtilizationReport) MaxLoad() float64 {
	if len(r.Links) == 0 {
		return 0
	}
	return r.Links[0].Load
}

// OverCapacity returns the links whose load exceeds capacity(link); the
// capacity function receives the egress endpoint.
func (r *UtilizationReport) OverCapacity(capacity func(topology.Endpoint) float64) []LinkLoad {
	var out []LinkLoad
	for _, l := range r.Links {
		if l.Load > capacity(l.From) {
			out = append(out, l)
		}
	}
	return out
}

// Utilization routes every demand over the network's forwarding state and
// accumulates per-link load. At each ECMP split the remaining rate divides
// evenly across branches.
func (n *Network) Utilization(demands []Demand) *UtilizationReport {
	loads := map[topology.Endpoint]float64{}
	report := &UtilizationReport{}
	for _, d := range demands {
		lost := n.routeDemand(d.Src, d.Dst, d.Rate, loads, map[string]bool{}, 0)
		if lost > 1e-9 {
			report.Undeliverable = append(report.Undeliverable, UndeliveredDemand{
				Demand: d, LostFraction: lost / d.Rate,
			})
		}
	}
	for ep, load := range loads {
		report.Links = append(report.Links, LinkLoad{From: ep, To: n.peerOf[ep], Load: load})
	}
	sort.Slice(report.Links, func(i, j int) bool {
		if report.Links[i].Load != report.Links[j].Load {
			return report.Links[i].Load > report.Links[j].Load
		}
		return report.Links[i].From.String() < report.Links[j].From.String()
	})
	return report
}

// routeDemand pushes rate units from device src toward dst, splitting at
// ECMP groups, and returns the amount that failed to deliver.
func (n *Network) routeDemand(src string, dst netip.Addr, rate float64, loads map[topology.Endpoint]float64, visited map[string]bool, depth int) float64 {
	if rate <= 0 {
		return 0
	}
	if depth > maxPathHops || visited[src] {
		return rate // loop: traffic circles until TTL death — counts as lost
	}
	d, ok := n.devices[src]
	if !ok {
		return rate
	}
	_, entry, found := d.fib.Lookup(dst)
	if !found {
		return rate
	}
	visited[src] = true
	defer delete(visited, src)

	share := rate / float64(len(entry.group.hops))
	lost := 0.0
	for _, h := range entry.group.hops {
		switch {
		case h.Receive:
			// Delivered here.
		case h.Drop:
			lost += share
		default:
			ep := topology.Endpoint{Node: src, Interface: h.Interface}
			peer, wired := n.peerOf[ep]
			if !wired {
				// Exits the network: counts as delivered to the edge.
				loads[ep] += share
				continue
			}
			loads[ep] += share
			lost += n.routeDemand(peer.Node, dst, share, loads, visited, depth+1)
		}
	}
	return lost
}

// String renders the top rows of the report.
func (r *UtilizationReport) String() string {
	s := ""
	for i, l := range r.Links {
		if i == 10 {
			s += fmt.Sprintf("… and %d more links\n", len(r.Links)-10)
			break
		}
		s += fmt.Sprintf("%-28s -> %-28s %8.2f\n", l.From, l.To, l.Load)
	}
	for _, u := range r.Undeliverable {
		s += fmt.Sprintf("UNDELIVERED %.0f%% of %s -> %v (%g units)\n",
			u.LostFraction*100, u.Demand.Src, u.Demand.Dst, u.Demand.Rate)
	}
	return s
}
