// Package snapchain chains incremental dataplane snapshots off a running
// emulation. Each Snapshot call extracts the current AFTs and builds a
// verification network, reusing the previous snapshot's per-device tries and
// equivalence-class contributions for every router that handed back the
// same cached table, that is, whose FIB generation did not move
// (verify.Network.UpdateFrom). The chain is the shared substrate of the
// chaos engine's fault loop and the sweep engine's candidate loop: both
// apply a perturbation, settle, snapshot, and score the blast radius with
// verify.Differential, which works out from the two snapshots which devices
// changed and solves only the flows that can reach them.
package snapchain

import (
	"sort"

	"mfv/internal/aft"
	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// Snap is one dataplane snapshot: the reachability network, the extracted
// forwarding tables it was built from, the total forwarding-entry count, and
// the per-router generation stamps dirty-set computations key on.
type Snap struct {
	Net    *verify.Network
	AFTs   map[string]*aft.AFT
	Routes int
	Stamps map[string]kne.GenStamp
}

// Chain builds successive snapshots from an emulator. The zero Chain is not
// usable; construct with New.
type Chain struct {
	em      *kne.Emulator
	topo    *topology.Topology
	obs     *obs.Observer
	workers int

	// incremental (default on) chains snapshots through
	// verify.Network.UpdateFrom, so a snapshot re-indexes only the routers
	// whose table changed. Results are byte-identical either way.
	incremental bool
	// last is the most recent snapshot, the base the next incremental
	// snapshot updates from.
	last *Snap
}

// New builds a chain over an emulator. The observer may be nil.
func New(em *kne.Emulator, topo *topology.Topology, o *obs.Observer) *Chain {
	return &Chain{em: em, topo: topo, obs: o, incremental: true}
}

// SetWorkers sizes the worker pool differential queries on chained networks
// run on (0 = GOMAXPROCS).
func (c *Chain) SetWorkers(w int) { c.workers = w }

// Fork returns a fresh chain over a replica emulator, inheriting this
// chain's worker-pool size and incremental mode but none of its snapshot
// history: FIB generation stamps are per-emulator counters, so snaps from
// different emulators must never be diffed through the same chain. The fork
// carries no observer — replica chains run concurrently, and the observer
// binds a single virtual clock.
func (c *Chain) Fork(em *kne.Emulator) *Chain {
	return &Chain{em: em, topo: c.topo, workers: c.workers, incremental: c.incremental}
}

// SetIncremental toggles incremental snapshots (on by default). Disabling
// forces a scratch network rebuild per snapshot — the reference the
// equivalence tests run against.
func (c *Chain) SetIncremental(on bool) { c.incremental = on }

// Last returns the most recent snapshot (nil before the first Snapshot).
func (c *Chain) Last() *Snap { return c.last }

// Snapshot extracts the current dataplane and appends it to the chain.
func (c *Chain) Snapshot() (Snap, error) {
	afts := c.em.AFTs()
	stamps := c.em.FIBGenerations()
	var n *verify.Network
	var err error
	if c.incremental && c.last != nil {
		n, err = c.last.Net.UpdateFrom(afts)
	} else {
		n, err = verify.NewNetwork(c.topo, afts)
	}
	if err != nil {
		return Snap{}, err
	}
	n.SetObserver(c.obs)
	n.SetWorkers(c.workers)
	total := 0
	for _, a := range afts {
		total += len(a.IPv4Entries)
	}
	s := Snap{Net: n, AFTs: afts, Routes: total, Stamps: stamps}
	c.last = &s
	return s, nil
}

// Differential compares two snapshots.
func (c *Chain) Differential(before, after Snap) []verify.Diff {
	return verify.Differential(before.Net, after.Net)
}

// DiffStamps returns the routers whose generation stamp differs between two
// snapshots (or that exist in only one), sorted.
func DiffStamps(a, b map[string]kne.GenStamp) []string {
	var out []string
	for name, sa := range a {
		if sb, ok := b[name]; !ok || sb != sa {
			out = append(out, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// LostFlows keys the (source, class) flows that were delivered before a
// perturbation but not after it.
func LostFlows(diffs []verify.Diff) map[string]bool {
	out := map[string]bool{}
	for _, d := range diffs {
		if verify.OutcomeDelivered(d.Before) && !verify.OutcomeDelivered(d.After) {
			out[d.Src+">"+d.Dst.String()] = true
		}
	}
	return out
}
