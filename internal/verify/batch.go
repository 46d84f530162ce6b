package verify

import (
	"encoding/binary"
	"net/netip"
	"sort"
	"strings"
	"time"

	"mfv/internal/par"
	"mfv/internal/topology"
)

// This file is the parallel batch-query engine. The exhaustive queries
// (AllPairs, DetectLoops, DetectBlackHoles) all reduce to the same shape —
// evaluate every (source, equivalence-class) flow over an immutable Network
// — so they share one worker pool that shards flows by destination class
// and one per-device memoization layer that computes shared path suffixes
// once instead of once per source. Differential (differential.go) shards
// the same way and solves with the same solver, but only where the two
// snapshots differ, so it leaves the per-class memo alone.
//
// Determinism contract: results are merged by stable flow key, so output is
// byte-identical regardless of worker count. Outcome fragments are exact
// (the solver never truncates), whereas path enumeration via Trace caps at
// maxBranches and flags Trace.Truncated; the two agree whenever no trace is
// truncated, which the memoization quickcheck asserts on random networks.

// Queries configures the batch engine. The zero value runs with
// runtime.GOMAXPROCS(0) workers.
type Queries struct {
	// Workers is the worker-pool size; values <= 0 select GOMAXPROCS.
	Workers int
}

// perClass is the loop every exhaustive query shares: visit(i, n's outcomes
// for dsts[i]) for each destination class across the pool, accounting flows
// (source, class) flows per class on n's in-flight gauge and flow counter.
// Each index owns its result slot, so scheduling order never affects output.
func (q Queries) perClass(n *Network, dsts []netip.Addr, flows int, visit func(i int, oc dstOutcomes)) {
	// Visits cannot fail, so par.Do has no error to report.
	_ = par.Do(len(dsts), q.Workers, func(i int) error {
		n.gInflight.Add(int64(flows))
		defer n.gInflight.Add(-int64(flows))
		visit(i, n.outcomesFor(dsts[i]))
		n.cFlows.Add(uint64(flows))
		return nil
	})
}

// mergeDiffs flattens per-class results into (source, class) order — the
// exact order the sequential implementation produced.
func mergeDiffs(results [][]Diff) []Diff {
	var out []Diff
	for _, ds := range results {
		out = append(out, ds...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst.Less(out[j].Dst)
	})
	return out
}

// outcomeSet is the canonical forwarding outcome of one (device, class)
// flow: the sorted set of "Disposition@final" fragments, matching
// Trace.Outcome exactly.
type outcomeSet struct {
	canon string
	frags []string
}

// has reports whether any fragment carries the given disposition prefix
// (e.g. "Loop@", "Delivered@").
func (o outcomeSet) has(prefix string) bool {
	for _, f := range o.frags {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// dstOutcomes maps every device to its outcome for one destination class.
type dstOutcomes map[string]outcomeSet

// outcomesFor returns (computing and memoizing on first use) the per-device
// outcomes for one destination class. The cache lives on the Network, so
// repeated queries against the same immutable snapshot — a DetectLoops
// after an AllPairs — pay once.
//
// Classes are solved once per distinct hop-group vector, not once each. A
// walk toward dst reads nothing of a device but the hops of the entry
// matching dst — in the solver, the coverage skip ("some member matches")
// and the trace fallback alike; outcomes never name a matched prefix — so
// classes that every device forwards through the same groups share one map.
// A 20k-prefix feed from one router collapses to a handful of vectors.
func (n *Network) outcomesFor(dst netip.Addr) dstOutcomes {
	n.memoMu.Lock()
	if n.memo == nil {
		n.memo = map[netip.Addr]dstOutcomes{}
		n.byVector = map[string]dstOutcomes{}
	}
	m, ok := n.memo[dst]
	n.memoMu.Unlock()
	if ok {
		n.cMemoHits.Inc()
		return m
	}

	// Walks cannot cross components, so a region-sharded topology solves
	// only the components whose FIBs can match dst at all: exact, and the
	// per-class cost tracks the relevant region, not the fleet. The vector
	// is, per solved component, each member's hop-group id for dst in name
	// order, 0 where the device has no route.
	var few [4]*component
	var buf [256]byte
	solve, vec, solved := few[:0], buf[:0], 0
	comps, a := n.components(), addrU32(dst)
	for _, c := range comps {
		if len(comps) > 1 && !c.covers(a) {
			continue
		}
		solve = append(solve, c)
		solved += len(c.members)
		vec = binary.BigEndian.AppendUint32(vec, c.id)
		for _, d := range c.members {
			var id uint32
			if _, entry, ok := d.fib.Lookup(dst); ok {
				id = entry.group.id
			}
			vec = binary.BigEndian.AppendUint32(vec, id)
		}
	}
	n.memoMu.Lock()
	m, ok = n.byVector[string(vec)]
	if ok {
		n.memo[dst] = m
	}
	n.memoMu.Unlock()
	if ok {
		n.cMemoHits.Inc()
		return m
	}

	m = make(dstOutcomes, solved)
	for _, c := range solve {
		n.solveComponent(dst, c, m)
	}

	n.memoMu.Lock()
	if prior, ok := n.byVector[string(vec)]; ok {
		m = prior // a concurrent query computed it first; keep one copy
	} else {
		n.byVector[string(vec)] = m
	}
	n.memo[dst] = m
	n.memoMu.Unlock()
	return m
}

// traceOutcome computes one device's canonical outcome via the exact path
// walk (no suffix sharing).
func (n *Network) traceOutcome(name string, dst netip.Addr) outcomeSet {
	t := n.Trace(name, dst)
	set := map[string]bool{}
	for _, p := range t.Paths {
		set[p.Disposition.String()+"@"+p.Final] = true
	}
	frags := make([]string, 0, len(set))
	for f := range set {
		frags = append(frags, f)
	}
	sort.Strings(frags)
	return outcomeSet{canon: strings.Join(frags, ","), frags: frags}
}

// solveComponent adds the outcomes of one component's members toward dst to
// out. A component whose simple paths can reach the walk's depth cap defers
// to the exact path enumeration per device, so depth truncation matches.
func (n *Network) solveComponent(dst netip.Addr, c *component, out dstOutcomes) {
	if len(c.members) >= maxPathHops {
		for _, d := range c.members {
			out[d.name] = n.traceOutcome(d.name, dst)
			n.cMemoMisses.Inc()
		}
		return
	}
	s := &solver{n: n, dst: dst, frag: map[string][]string{}, stack: map[string]bool{}}
	for _, d := range c.members {
		f, _ := s.visit(d)
		out[d.name] = outcomeSet{canon: strings.Join(f, ","), frags: f}
	}
	n.cMemoHits.Add(s.hits)
	n.cMemoMisses.Add(s.misses)
}

// solver computes outcome fragments for every device toward one destination
// with per-device memoization. A device's fragment set is cached only when
// its exploration saw no back edge ("clean"): such a set is the closure of
// an acyclic region, so no future entry path can intersect it and the set
// is context-free. Loop fragments are labeled with the first revisited
// device, which depends on the entry point, so loopy regions are recomputed
// per source — exactly matching the sequential walk's semantics.
type solver struct {
	n            *Network
	dst          netip.Addr
	frag         map[string][]string // device -> cached clean fragments
	stack        map[string]bool     // devices on the current DFS path
	hits, misses uint64
}

// visit returns the fragment set reachable from d and whether the
// exploration was clean (saw no back edge anywhere in the subtree).
func (s *solver) visit(d *device) ([]string, bool) {
	if f, ok := s.frag[d.name]; ok {
		s.hits++
		return f, true
	}
	if s.stack[d.name] {
		return []string{Loop.String() + "@" + d.name}, false
	}
	s.misses++
	_, entry, ok := d.fib.Lookup(s.dst)
	if !ok {
		f := []string{NoRoute.String() + "@" + d.name}
		s.frag[d.name] = f
		return f, true
	}
	s.stack[d.name] = true
	clean := true
	var acc []string
	for _, h := range entry.group.hops {
		switch {
		case h.Receive:
			acc = append(acc, Delivered.String()+"@"+d.name)
		case h.Drop:
			acc = append(acc, Dropped.String()+"@"+d.name)
		default:
			peer, wired := s.n.peerOf[topology.Endpoint{Node: d.name, Interface: h.Interface}]
			if !wired {
				acc = append(acc, ExitsNetwork.String()+"@"+d.name)
				continue
			}
			next, ok := s.n.devices[peer.Node]
			if !ok {
				acc = append(acc, ExitsNetwork.String()+"@"+d.name)
				continue
			}
			sub, subClean := s.visit(next)
			acc = append(acc, sub...)
			clean = clean && subClean
		}
	}
	delete(s.stack, d.name)
	acc = sortDedupe(acc)
	if clean {
		s.frag[d.name] = acc
	}
	return acc, clean
}

func sortDedupe(in []string) []string {
	if len(in) < 2 {
		return in
	}
	sort.Strings(in)
	out := in[:1]
	for _, v := range in[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// unionAddrs merges sorted address slices into one sorted, deduplicated
// slice.
func unionAddrs(a, b []netip.Addr) []netip.Addr {
	out := make([]netip.Addr, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// AllPairs computes the reachability matrix over the pool, sharded by
// destination address.
func (q Queries) AllPairs(n *Network) ReachMatrix {
	defer n.observeWall("allpairs", time.Now())
	n.cQueries.Inc()
	m := ReachMatrix{
		Sources: n.Devices(),
		Dsts:    n.OwnedAddrs(),
		Reach:   map[string]map[netip.Addr]bool{},
	}
	cols := make([][]bool, len(m.Dsts))
	q.perClass(n, m.Dsts, len(m.Sources), func(i int, oc dstOutcomes) {
		col := make([]bool, len(m.Sources))
		for j, src := range m.Sources {
			if o, ok := oc[src]; ok {
				col[j] = o.has("Delivered@")
			}
		}
		cols[i] = col
	})
	for j, src := range m.Sources {
		row := make(map[netip.Addr]bool, len(m.Dsts))
		for i, dst := range m.Dsts {
			row[dst] = cols[i][j]
		}
		m.Reach[src] = row
	}
	return m
}

// DetectLoops checks every (source, class) flow over the pool. Classes whose
// memoized outcome carries a Loop fragment are re-traced with the exact
// path walk, so the reported paths (and truncation behavior) match the
// sequential implementation branch for branch.
func (q Queries) DetectLoops(n *Network) []LoopReport {
	defer n.observeWall("loops", time.Now())
	n.cQueries.Inc()
	classes := n.EquivalenceClasses()
	sources := n.Devices()
	results := make([][]LoopReport, len(classes))
	q.perClass(n, classes, len(sources), func(i int, oc dstOutcomes) {
		rep := classes[i]
		var reports []LoopReport
		for _, src := range sources {
			if o, ok := oc[src]; !ok || !o.has("Loop@") {
				continue
			}
			t := n.Trace(src, rep)
			for _, p := range t.Paths {
				if p.Disposition == Loop {
					reports = append(reports, LoopReport{Dst: rep, Src: src, Path: p})
					break
				}
			}
		}
		results[i] = reports
	})
	var out []LoopReport
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// DetectBlackHoles checks every (source, class) flow over the pool,
// re-tracing flagged flows so the reported disposition is the first one the
// sequential walk would have encountered.
func (q Queries) DetectBlackHoles(n *Network) []BlackHole {
	defer n.observeWall("blackholes", time.Now())
	n.cQueries.Inc()
	classes := n.EquivalenceClasses()
	sources := n.Devices()
	results := make([][]BlackHole, len(classes))
	q.perClass(n, classes, len(sources), func(i int, oc dstOutcomes) {
		rep := classes[i]
		var holes []BlackHole
		for _, src := range sources {
			o, ok := oc[src]
			if !ok {
				// src's component has no FIB coverage for this class: the
				// sequential walk yields NoRoute@src without tracing.
				holes = append(holes, BlackHole{Dst: rep, Src: src, Disposition: NoRoute})
				continue
			}
			if !o.has("Dropped@") && !o.has("NoRoute@") {
				continue
			}
			t := n.Trace(src, rep)
			for _, p := range t.Paths {
				if p.Disposition == Dropped || p.Disposition == NoRoute {
					holes = append(holes, BlackHole{Dst: rep, Src: src, Disposition: p.Disposition})
					break
				}
			}
		}
		results[i] = holes
	})
	var out []BlackHole
	for _, h := range results {
		out = append(out, h...)
	}
	return out
}
