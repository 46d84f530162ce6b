package verify

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"mfv/internal/par"
	"mfv/internal/topology"
)

// This file is the differential-reachability query. It needs nothing but the
// two snapshots: hop groups are canonical process-wide (internHops), so a
// device whose group id for a class is equal on both sides, with its
// endpoints wired alike, forwards the class identically. Per class, the
// devices of the components covering it on either side are compared; a
// device with forwarding state on one side only, or wired differently,
// counts as changed too. A class with no changed device has no diffs and is
// never solved. Otherwise only the sources whose walk can reach a changed
// device — a reverse BFS over both sides' forwarding edges — are solved, on
// both sides, as outcomesFor would solve them. All of that reads nothing of
// the class but its hop-group vectors, so classes with equal (before, after)
// vector pairs share one evaluation, stamped with each representative.

// Differential runs the differential-reachability query over the pool,
// sharded by destination class and merged in (source, class) order.
func (q Queries) Differential(before, after *Network) []Diff {
	defer before.observeWall("differential", time.Now())
	before.cQueries.Inc()
	classes := unionAddrs(before.EquivalenceClasses(), after.EquivalenceClasses())
	p := newDiffPair(before, after)
	results := make([][]Diff, len(classes))
	// Classes cannot fail, so par.Do has no error to report.
	_ = par.Do(len(classes), q.Workers, func(i int) error {
		results[i] = p.class(classes[i])
		return nil
	})
	return mergeDiffs(results)
}

// DeltaDifferential is Differential with its third argument ignored. It
// remains only for callers written against the old three-argument form.
func (q Queries) DeltaDifferential(before, after *Network, _ []string) []Diff {
	return q.Differential(before, after)
}

// diffPair is one Differential call's view of two networks, indexed by
// position u in the union of their device names.
type diffPair struct {
	sides [2]*Network
	names []string
	index map[string]int32
	// devs[k][u] is u on side k, nil without forwarding state there; deep
	// marks members of components the solver leaves to Trace.
	devs [2][]*device
	deep [2][]bool
	// comp[k][c][j] is the position of member j of side k's component c.
	comp    [2][][]int32
	rewired []bool // an endpoint of u is wired differently on each side

	mu      sync.Mutex
	evals   map[string][]Diff // by hop-group vector pair
	scratch sync.Pool
}

// diffScratch is one worker's per-class state. Between classes every slot
// is zero again.
type diffScratch struct {
	entry         [2][]*fibEntry // u's entry on side k, nil for no route
	touched       []int32        // the positions looked up on either side
	marked, taint []bool         // u is in touched; u is tainted
	queue         []int32
	edges         [][2]int32 // forwarding edges as (head, tail)
	key           []byte
}

func newDiffPair(before, after *Network) *diffPair {
	p := &diffPair{sides: [2]*Network{before, after}, index: map[string]int32{}, evals: map[string][]Diff{}}
	for _, n := range p.sides {
		for name := range n.devices {
			if _, ok := p.index[name]; !ok {
				p.index[name] = int32(len(p.names))
				p.names = append(p.names, name)
			}
		}
	}
	for k, n := range p.sides {
		p.devs[k], p.deep[k] = make([]*device, len(p.names)), make([]bool, len(p.names))
		for _, c := range n.components() {
			at := make([]int32, len(c.members))
			for j, d := range c.members {
				at[j] = p.index[d.name]
				p.devs[k][at[j]], p.deep[k][at[j]] = d, len(c.members) >= maxPathHops
			}
			p.comp[k] = append(p.comp[k], at)
		}
	}
	p.rewired = make([]bool, len(p.names))
	for k := 0; k < 2 && before.topo != after.topo; k++ {
		x, y := p.sides[k].peerOf, p.sides[1-k].peerOf
		for ep, peer := range x {
			if u, ok := p.index[ep.Node]; ok && y[ep] != peer {
				p.rewired[u] = true
			}
		}
	}
	p.scratch.New = func() any {
		n := len(p.names)
		return &diffScratch{entry: [2][]*fibEntry{make([]*fibEntry, n), make([]*fibEntry, n)}, marked: make([]bool, n), taint: make([]bool, n)}
	}
	return p
}

// class returns one destination class's diffs.
func (p *diffPair) class(rep netip.Addr) []Diff {
	s := p.scratch.Get().(*diffScratch)
	defer p.scratch.Put(s)
	key, a := s.key[:0], addrU32(rep)
	for k, n := range p.sides {
		comps := n.components()
		for _, c := range comps {
			if len(comps) > 1 && !c.covers(a) {
				continue
			}
			key = binary.BigEndian.AppendUint32(key, c.id)
			for j, d := range c.members {
				u, id := p.comp[k][c.id][j], uint32(0)
				if _, e, ok := d.fib.Lookup(rep); ok {
					s.entry[k][u], id = e, e.group.id
				}
				if !s.marked[u] {
					s.marked[u] = true
					s.touched = append(s.touched, u)
				}
				key = binary.BigEndian.AppendUint32(key, id)
			}
		}
		key = binary.BigEndian.AppendUint32(key, ^uint32(0)) // no component id
	}
	s.key = key

	p.mu.Lock()
	ev, ok := p.evals[string(key)]
	p.mu.Unlock()
	if !ok {
		ev = p.evaluate(s, rep)
		p.mu.Lock()
		if prior, ok := p.evals[string(key)]; ok {
			ev = prior // a concurrent class evaluated it first; keep one copy
		} else {
			p.evals[string(key)] = ev
		}
		p.mu.Unlock()
	}
	for _, u := range s.touched {
		s.entry[0][u], s.entry[1][u], s.marked[u], s.taint[u] = nil, nil, false, false
	}
	s.touched = s.touched[:0]
	ds := slices.Clone(ev)
	for i := range ds {
		ds[i].Dst = rep
	}
	return ds
}

// evaluate finds the current class's changed devices, taints the sources
// upstream of them and solves those on both sides.
func (p *diffPair) evaluate(s *diffScratch, rep netip.Addr) []Diff {
	queue := s.queue[:0]
	for _, u := range s.touched {
		b, a := s.entry[0][u], s.entry[1][u]
		if (p.devs[0][u] == nil) != (p.devs[1][u] == nil) || p.rewired[u] ||
			(b == nil) != (a == nil) || b != nil && b.group != a.group {
			s.taint[u] = true
			queue = append(queue, u)
		}
	}
	s.queue = queue
	if len(queue) == 0 {
		return nil
	}
	// An edge's head shares a component with its tail, whose route makes that
	// component a covering one: every head is touched too.
	edges := s.edges[:0]
	for _, u := range s.touched {
		for k, n := range p.sides {
			e := s.entry[k][u]
			if e == nil {
				continue
			}
			for _, h := range e.group.hops {
				if h.Receive || h.Drop {
					continue
				}
				peer, wired := n.peerOf[topology.Endpoint{Node: p.names[u], Interface: h.Interface}]
				if v, ok := p.index[peer.Node]; wired && ok && p.devs[k][v] != nil {
					edges = append(edges, [2]int32{v, u})
				}
			}
		}
	}
	slices.SortFunc(edges, func(x, y [2]int32) int { return cmp.Compare(x[0], y[0]) })
	for i := 0; i < len(queue); i++ {
		j, _ := slices.BinarySearchFunc(edges, queue[i], func(e [2]int32, t int32) int { return cmp.Compare(e[0], t) })
		for ; j < len(edges) && edges[j][0] == queue[i]; j++ {
			if tail := edges[j][1]; !s.taint[tail] {
				s.taint[tail] = true
				queue = append(queue, tail)
			}
		}
	}
	s.queue, s.edges = queue, edges

	before := p.sides[0]
	before.cFlows.Add(uint64(len(queue)))
	before.gInflight.Add(int64(len(queue)))
	defer before.gInflight.Add(-int64(len(queue)))
	var solvers [2]*solver
	for k, n := range p.sides {
		solvers[k] = &solver{n: n, dst: rep, frag: map[string][]string{}, stack: map[string]bool{}}
	}
	var ds []Diff
	for _, u := range queue {
		if b, a := p.outcome(solvers[0], 0, u), p.outcome(solvers[1], 1, u); b != a {
			ds = append(ds, Diff{Src: p.names[u], Dst: rep, Before: b, After: a})
		}
	}
	for k, n := range p.sides {
		n.cMemoHits.Add(solvers[k].hits)
		n.cMemoMisses.Add(solvers[k].misses)
	}
	return ds
}

// outcome is u's canonical outcome on side k, solved as solveComponent
// solves it; without forwarding state there, u gets Trace's NoRoute@u.
func (p *diffPair) outcome(s *solver, k int, u int32) string {
	switch d := p.devs[k][u]; {
	case d == nil:
		return NoRoute.String() + "@" + p.names[u]
	case p.deep[k][u]:
		return s.n.traceOutcome(d.name, s.dst).canon
	default:
		f, _ := s.visit(d)
		return strings.Join(f, ",")
	}
}
