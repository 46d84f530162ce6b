package main

// The checks here share no code with the verifier: reachability truth comes
// from a BFS over the topology, and output identity from the harness's own
// canonical rendering hashed with SHA-256. They must not call
// AFT.Fingerprint, DataplaneHash or Report.Table, so those can change
// without the benchmark noticing anything but speed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"time"

	"mfv"
)

// components labels every surviving router with its connected component in
// the topology minus the given links (keyed by their A endpoint, as the
// sweep names them) and routers.
func components(topo *mfv.Topology, downLinks, downNodes map[string]bool) map[string]int {
	adj := map[string][]string{}
	for _, l := range topo.Links {
		if downLinks[l.A.String()] || downNodes[l.A.Node] || downNodes[l.Z.Node] {
			continue
		}
		adj[l.A.Node] = append(adj[l.A.Node], l.Z.Node)
		adj[l.Z.Node] = append(adj[l.Z.Node], l.A.Node)
	}
	comp := map[string]int{}
	next := 0
	for _, n := range topo.Nodes {
		if downNodes[n.Name] {
			continue
		}
		if _, seen := comp[n.Name]; seen {
			continue
		}
		queue := []string{n.Name}
		comp[n.Name] = next
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, seen := comp[nb]; !seen {
					comp[nb] = next
					queue = append(queue, nb)
				}
			}
		}
		next++
	}
	return comp
}

// connected reports whether the survivors form one component.
func connected(comp map[string]int) bool {
	for _, c := range comp {
		if c != 0 {
			return false
		}
	}
	return true
}

// wanLoopback is the Loopback0 address testnet.WAN configures on its i-th
// router (0-based).
func wanLoopback(i int) netip.Addr {
	n := i + 1
	return netip.AddrFrom4([4]byte{3, 3, byte(n / 250), byte(n % 250)})
}

// reachPairs is how many seed-chosen router pairs each op's network is
// probed with.
const reachPairs = 64

// checkLoopbacks probes seed-chosen (source, loopback) pairs: every pair the
// BFS puts in one component must be Reachable.
func checkLoopbacks(topo *mfv.Topology, n *mfv.Network, downLinks map[string]bool, seed int64) error {
	comp := components(topo, downLinks, nil)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < reachPairs; i++ {
		s, d := rng.Intn(len(topo.Nodes)), rng.Intn(len(topo.Nodes))
		src, dst := topo.Nodes[s].Name, topo.Nodes[d].Name
		if s == d || comp[src] != comp[dst] {
			continue
		}
		if !n.Reachable(src, wanLoopback(d)) {
			return fmt.Errorf("oracle: %s cannot reach %s's loopback %v though the topology connects them", src, dst, wanLoopback(d))
		}
	}
	return nil
}

// candRow is one sweep candidate's verdict in the harness's own terms; the
// engine's report rows and the traced candidate loop both reduce to it.
type candRow struct {
	failure                 string
	k, lost, changed, dirty int
	reconverged             time.Duration
}

func sortRows(rows []candRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].failure < rows[j].failure })
}

// checkSweepRows holds every k=1 row against the BFS: flows are lost exactly
// when the failure removes a router or disconnects the survivors, and every
// link and router of the topology was a candidate.
func checkSweepRows(topo *mfv.Topology, rows []candRow) error {
	links, nodes := 0, 0
	for _, r := range rows {
		kind, target, _ := strings.Cut(r.failure, " ")
		wantLoss := false
		switch kind {
		case "link":
			links++
			wantLoss = !connected(components(topo, map[string]bool{target: true}, nil))
		case "node":
			nodes++
			wantLoss = true
		case "bgp":
			// The topology is intact and IS-IS carries every loopback.
		default:
			return fmt.Errorf("oracle: unknown failure kind in %q", r.failure)
		}
		if (r.lost > 0) != wantLoss {
			return fmt.Errorf("oracle: %s lost %d flows, topology says loss=%v", r.failure, r.lost, wantLoss)
		}
	}
	if links != len(topo.Links) || nodes != len(topo.Nodes) {
		return fmt.Errorf("oracle: sweep covered %d links and %d routers, topology has %d and %d", links, nodes, len(topo.Links), len(topo.Nodes))
	}
	return nil
}

// digest accumulates canonical text into one SHA-256.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) line(s string) {
	io.WriteString(d.h, s)
	d.h.Write([]byte{'\n'})
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// afts renders forwarding content only — per device in name order, per
// prefix in order, the sorted set of resolved next hops — and returns the
// total entry count. Indices, origins and metrics are left out: they are
// bookkeeping, not forwarding.
func (d *digest) afts(afts map[string]*mfv.AFT) int {
	names := make([]string, 0, len(afts))
	for name := range afts {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := 0
	for _, name := range names {
		a := afts[name]
		hop := make(map[uint64]string, len(a.NextHops))
		for _, nh := range a.NextHops {
			hop[nh.Index] = fmt.Sprintf("%s,%s,%v,%t,%t", nh.Interface, nh.IPAddress, nh.PushedLabels, nh.Drop, nh.Receive)
		}
		group := make(map[uint64]string, len(a.NextHopGroups))
		for _, g := range a.NextHopGroups {
			hops := make([]string, len(g.NextHops))
			for i, idx := range g.NextHops {
				hops[i] = hop[idx]
			}
			sort.Strings(hops)
			group[g.ID] = strings.Join(hops, ";")
		}
		lines := make([]string, 0, len(a.IPv4Entries)+len(a.LabelEntries))
		for _, e := range a.IPv4Entries {
			lines = append(lines, e.Prefix+" "+group[e.NextHopGroup])
		}
		for _, e := range a.LabelEntries {
			lines = append(lines, fmt.Sprintf("L%d,%t %s", e.Label, e.Pop, group[e.NextHopGroup]))
		}
		if !sort.StringsAreSorted(lines) {
			sort.Strings(lines)
		}
		d.line(fmt.Sprintf("device %s %d", name, len(lines)))
		for _, l := range lines {
			d.line(l)
		}
		entries += len(a.IPv4Entries)
	}
	return entries
}

func (d *digest) rows(rows []candRow) {
	for _, r := range rows {
		d.line(fmt.Sprintf("row %s|%d|%d|%d|%d|%d", r.failure, r.k, r.lost, r.changed, r.dirty, int64(r.reconverged)))
	}
}

func (d *digest) diffs(diffs []mfv.Diff) {
	lines := make([]string, len(diffs))
	for i, df := range diffs {
		lines[i] = fmt.Sprintf("diff %s|%v|%s|%s", df.Src, df.Dst, df.Before, df.After)
	}
	sort.Strings(lines)
	for _, l := range lines {
		d.line(l)
	}
}
