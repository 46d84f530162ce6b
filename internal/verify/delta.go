package verify

import (
	"net/netip"
	"sort"
	"strings"
	"time"

	"mfv/internal/par"
	"mfv/internal/topology"
)

// This file is the delta-driven differential: the fault-loop optimization
// that makes per-fault verification cost proportional to blast radius. The
// caller names the dirty devices — those whose forwarding state may differ
// between the two snapshots (the chaos engine derives the set from the
// emulator's FIB-generation stamps) — and the query then prunes work in two
// sound steps:
//
//  1. Class prune: for each equivalence class, look the representative up
//     in every dirty device's before/after tries. If every dirty device
//     forwards the class identically in both snapshots, then — since every
//     clean device is byte-identical by definition — the two forwarding
//     graphs for that class are equal and the class can contribute no diff.
//     This costs O(|dirty|) lookups per class instead of a full evaluation.
//
//  2. Source taint: for a class that did change, only sources whose
//     forwarding walk can reach a changed device can change outcome. The
//     tainted set is a reverse BFS from the changed devices over the union
//     of both snapshots' one-step forwarding edges; untainted sources walk
//     an identical subgraph in both snapshots and are skipped.
//
// The surviving (tainted source, changed class) flows are evaluated with
// the same memoized solver semantics as the full query and merged in the
// same (source, class) order, so the result is byte-identical to
// Queries.Differential whenever dirty covers every changed device.

// DeltaDifferential is the package-level convenience wrapper, sizing the
// worker pool like Differential does.
func DeltaDifferential(before, after *Network, dirty []string) []Diff {
	w := before.workers
	if w == 0 {
		w = after.workers
	}
	return Queries{Workers: w}.DeltaDifferential(before, after, dirty)
}

// DeltaDifferential runs the differential-reachability query restricted to
// flows that can be affected by the dirty devices. dirty must include every
// device whose forwarding state differs between the snapshots (supersets
// are fine); under that precondition the output is byte-identical to
// Differential(before, after).
func (q Queries) DeltaDifferential(before, after *Network, dirty []string) []Diff {
	// The clean-subtree solver and the exact trace walk agree only below the
	// depth cap; Differential handles the deep case with per-device traces,
	// so defer to it rather than replicating that fallback here.
	if len(before.devices) >= maxPathHops || len(after.devices) >= maxPathHops {
		return q.Differential(before, after)
	}
	defer before.observeWall("differential", time.Now())
	before.cQueries.Inc()
	classes := unionAddrs(before.EquivalenceClasses(), after.EquivalenceClasses())
	sources := unionStrings(before.Devices(), after.Devices())
	dirtySorted := append([]string{}, dirty...)
	sort.Strings(dirtySorted)

	results := make([][]Diff, len(classes))
	// deltaClass cannot fail, so par.Do has no error to report.
	_ = par.Do(len(classes), q.Workers, func(i int) error {
		results[i] = deltaClass(before, after, classes[i], dirtySorted, sources)
		return nil
	})
	return mergeDiffs(results)
}

// deltaClass evaluates one destination class: prune, taint, then compare
// only tainted sources.
func deltaClass(before, after *Network, rep netip.Addr, dirty, sources []string) []Diff {
	var changed []string
	for _, name := range dirty {
		if !classEntryEqual(before.devices[name], after.devices[name], rep) {
			changed = append(changed, name)
		}
	}
	if len(changed) == 0 {
		return nil
	}
	tainted := taintedSources(before, after, rep, changed)
	before.cFlows.Add(uint64(len(tainted)))
	before.gInflight.Add(int64(len(tainted)))
	defer before.gInflight.Add(-int64(len(tainted)))

	ob := before.partialOutcomes(rep, tainted)
	oa := after.partialOutcomes(rep, tainted)
	var ds []Diff
	for _, src := range sources {
		if !tainted[src] {
			continue
		}
		b, a := ob[src], oa[src]
		if b != a {
			ds = append(ds, Diff{Src: src, Dst: rep, Before: b, After: a})
		}
	}
	return ds
}

// classEntryEqual reports whether a device forwards the class identically
// in both snapshots. Only behavior-relevant hop fields are compared — the
// fields the walk and the solver consume — so a cosmetic difference (e.g.
// metric) cannot force a recompute, while any behavioral difference marks
// the device changed.
func classEntryEqual(b, a *device, rep netip.Addr) bool {
	if b == nil || a == nil {
		return b == a
	}
	_, be, bok := b.fib.Lookup(rep)
	_, ae, aok := a.fib.Lookup(rep)
	if bok != aok {
		return false
	}
	if !bok || be.group == ae.group {
		return true
	}
	bh, ah := be.group.hops, ae.group.hops
	if len(bh) != len(ah) {
		return false
	}
	for i := range bh {
		x, y := bh[i], ah[i]
		if x.Receive != y.Receive || x.Drop != y.Drop || x.Interface != y.Interface {
			return false
		}
	}
	return true
}

// taintedSources runs a reverse BFS from the changed devices over the union
// of both snapshots' one-step forwarding edges for this class. A source
// outside the result walks an identical, unchanged subgraph in both
// snapshots, so its outcome provably cannot differ.
func taintedSources(before, after *Network, rep netip.Addr, changed []string) map[string]bool {
	rev := map[string][]string{}
	for _, n := range []*Network{before, after} {
		for name, d := range n.devices {
			_, entry, ok := d.fib.Lookup(rep)
			if !ok {
				continue
			}
			for _, h := range entry.group.hops {
				if h.Receive || h.Drop {
					continue
				}
				peer, wired := n.peerOf[topology.Endpoint{Node: name, Interface: h.Interface}]
				if !wired {
					continue
				}
				if _, ok := n.devices[peer.Node]; !ok {
					continue
				}
				rev[peer.Node] = append(rev[peer.Node], name)
			}
		}
	}
	tainted := make(map[string]bool, len(changed))
	queue := append([]string{}, changed...)
	for _, name := range changed {
		tainted[name] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, up := range rev[cur] {
			if !tainted[up] {
				tainted[up] = true
				queue = append(queue, up)
			}
		}
	}
	return tainted
}

// partialOutcomes computes canonical outcomes for just the given sources,
// sharing clean-subtree fragments within the call exactly like
// solveComponent. Results deliberately stay out of the network's per-class
// memo: they cover a subset of devices, and a later full query must not
// mistake them for complete class outcomes.
func (n *Network) partialOutcomes(dst netip.Addr, srcs map[string]bool) map[string]string {
	s := &solver{n: n, dst: dst, frag: map[string][]string{}, stack: map[string]bool{}}
	out := make(map[string]string, len(srcs))
	for name := range srcs {
		d, ok := n.devices[name]
		if !ok {
			out[name] = NoRoute.String() + "@" + name
			continue
		}
		f, _ := s.visit(d)
		canon := strings.Join(f, ",")
		if canon == "" {
			// Match dstOutcomes.outcome's fallback for empty outcome sets.
			canon = NoRoute.String() + "@" + name
		}
		out[name] = canon
	}
	n.cMemoHits.Add(s.hits)
	n.cMemoMisses.Add(s.misses)
	return out
}
