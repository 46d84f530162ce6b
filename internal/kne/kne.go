// Package kne is the emulation orchestrator, playing the role Kubernetes
// Network Emulator plays in the paper's prototype: it takes a topology plus
// per-device vendor configurations, schedules one pod per router on the
// cluster substrate, boots virtual routers, wires their interfaces with
// virtual links, provides routed (hop-by-hop) delivery for BGP sessions and
// RSVP signaling, injects external BGP feeds, and detects convergence by
// watching the dataplane stabilize at all routers.
package kne

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"mfv/internal/aft"
	"mfv/internal/bgp"
	"mfv/internal/config/eos"
	"mfv/internal/config/ir"
	"mfv/internal/config/junoslike"
	"mfv/internal/diag"
	"mfv/internal/kube"
	"mfv/internal/obs"
	"mfv/internal/par"
	"mfv/internal/sim"
	"mfv/internal/topology"
	"mfv/internal/vrouter"
)

// Routed-payload protocol tags.
const (
	protoBGP  = 1
	protoRSVP = 2
)

// maxTTL bounds hop-by-hop delivery (IP TTL analogue).
const maxTTL = 64

// Config configures an Emulator.
type Config struct {
	Topology *topology.Topology
	// Sim supplies the virtual clock; a fresh seeded simulator is created
	// when nil.
	Sim *sim.Simulator
	// Cluster hosts router pods. When nil, a cluster with enough
	// e2-standard-32 nodes for the topology is created automatically.
	Cluster *kube.Cluster
	// LinkDelay is the per-hop propagation delay (default 1 ms).
	LinkDelay time.Duration
	// ProbeInterval is the BGP session reachability probe period (default
	// 5 s).
	ProbeInterval time.Duration
	// InfraInit is the one-time infrastructure initialization before any
	// pod can boot (cluster bring-up, image pulls). Defaults to the
	// paper-calibrated model: 11 minutes plus 3 s per router capped at
	// 4 minutes, which lands total startup (init + container boot) in the
	// paper's observed 12–17 minute window across topology sizes.
	InfraInit time.Duration
	// SpareNodes adds empty worker machines to the auto-created cluster,
	// leaving headroom for chaos scenarios that fail a node and need its
	// evicted pods rescheduled elsewhere. Ignored when Cluster is set.
	SpareNodes int
	// Obs receives trace events and metrics from the emulator and every
	// router it builds. Nil disables observability at near-zero cost.
	Obs *obs.Observer
	// Ctx, when non-nil, bounds long virtual-time waits by wall-clock
	// cancellation: convergence and settle loops stop advancing the clock
	// once it expires, returning partial (degraded) state where the API
	// allows it and a wrapped context error where it does not.
	Ctx context.Context
}

type linkEnd struct {
	router *vrouter.Router
	intf   string
}

// Emulator orchestrates one emulated network.
type Emulator struct {
	cfg     Config
	sim     *sim.Simulator
	cluster *kube.Cluster
	topo    *topology.Topology

	routers map[string]*vrouter.Router
	// peer maps each endpoint to the opposite endpoint.
	peer map[topology.Endpoint]topology.Endpoint
	// linkDown marks administratively failed links by canonical key.
	linkDown map[string]bool
	// impair holds per-link probabilistic loss / extra delay by canonical
	// link key.
	impair map[string]Impairment
	// ready tracks which routers' pods are currently Running.
	ready map[string]bool
	// routerDown marks routers whose pod crashed; the router object is an
	// inert husk until the replacement pod boots and podReady rebuilds it.
	routerDown map[string]bool
	// quarantined marks routers whose control plane was contained after
	// hostile input: shut down like a crash, but never rescheduled —
	// rebooting would just replay the hostile input. Keyed by router name,
	// valued with the quarantine reason.
	quarantined map[string]string
	// epoch counts router rebuilds by name. A rebooted pod gets a freshly
	// built Router whose FIB generation restarts from zero; bumping the
	// epoch keeps GenStamp comparisons sound across incarnations.
	epoch map[string]uint64
	// addrOwner maps interface addresses to router names.
	addrOwner map[netip.Addr]string
	// bgpHeld marks routers whose BGP sessions are administratively held
	// down (HoldBGP): the reachability prober refuses to re-establish any
	// session either end of which is held, until ReleaseBGP.
	bgpHeld map[string]bool

	injectors map[netip.Addr]*Injector
	// injectorOrder remembers attach order: replaying feeds in the original
	// order keeps a replica's event sequence deterministic.
	injectorOrder []netip.Addr

	// lastActivity is the virtual time of the last dataplane-relevant
	// change anywhere.
	lastActivity time.Duration
	// lastChange is the per-router virtual time of the last RIB change,
	// feeding the convergence timeline and straggler diagnostics.
	lastChange map[string]time.Duration
	// startupDone is the virtual time all pods first reached Running.
	startupDone time.Duration
	started     bool
	// bootRecorded guards the one-time "boot" phase record across repeated
	// convergence calls.
	bootRecorded bool

	obs   *obs.Observer
	probe *sim.Ticker
	// stuck counts consecutive probes a BGP session spent parked in an
	// in-between FSM state (OpenSent/OpenConfirm). An OPEN lost on a dead
	// or lossy link would otherwise deadlock the session forever; after a
	// few probes the transport is reset and retried — the ConnectRetry
	// analogue.
	stuck map[*bgp.Peer]int
}

// New builds an emulator: parses every device config in its vendor dialect
// and constructs the virtual routers. Nothing runs until Start.
func New(cfg Config) (*Emulator, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("kne: no topology")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sim == nil {
		cfg.Sim = sim.New(42)
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 5 * time.Second
	}
	if cfg.InfraInit == 0 {
		perNode := time.Duration(len(cfg.Topology.Nodes)) * 3 * time.Second
		if perNode > 4*time.Minute {
			perNode = 4 * time.Minute
		}
		cfg.InfraInit = 11*time.Minute + perNode
	}
	e := &Emulator{
		cfg:         cfg,
		sim:         cfg.Sim,
		topo:        cfg.Topology,
		routers:     map[string]*vrouter.Router{},
		peer:        map[topology.Endpoint]topology.Endpoint{},
		linkDown:    map[string]bool{},
		impair:      map[string]Impairment{},
		ready:       map[string]bool{},
		routerDown:  map[string]bool{},
		quarantined: map[string]string{},
		epoch:       map[string]uint64{},
		addrOwner:   map[netip.Addr]string{},
		bgpHeld:     map[string]bool{},
		injectors:   map[netip.Addr]*Injector{},
		lastChange:  map[string]time.Duration{},
		stuck:       map[*bgp.Peer]int{},
		obs:         cfg.Obs,
	}
	e.obs.SetClock(e.sim)
	if cfg.Cluster == nil {
		per := kube.Capacity([]kube.NodeSpec{kube.E2Standard32("n")}, kube.AristaCEOSRequest("r", 0))
		nodes := (len(cfg.Topology.Nodes)+per-1)/per + cfg.SpareNodes
		if nodes < 1 {
			nodes = 1
		}
		specs := make([]kube.NodeSpec, nodes)
		for i := range specs {
			specs[i] = kube.E2Standard32(fmt.Sprintf("node%d", i+1))
		}
		e.cluster = kube.NewCluster(e.sim, specs...)
	} else {
		e.cluster = cfg.Cluster
	}

	for _, l := range e.topo.Links {
		e.peer[l.A] = l.Z
		e.peer[l.Z] = l.A
	}
	for i := range e.topo.Nodes {
		n := &e.topo.Nodes[i]
		r, err := e.buildRouter(n)
		if err != nil {
			return nil, err
		}
		e.routers[n.Name] = r
		for _, a := range r.LocalAddrs() {
			if owner, dup := e.addrOwner[a]; dup && owner != n.Name {
				return nil, fmt.Errorf("kne: address %v configured on both %s and %s", a, owner, n.Name)
			}
			e.addrOwner[a] = n.Name
		}
	}
	return e, nil
}

// buildRouter parses a node's current config and constructs a fully wired
// router — the single construction path shared by startup, ApplyConfig, and
// crashed-pod reboot (a rebooted container re-parses its config from
// scratch, exactly like a Kubernetes restart from the image).
func (e *Emulator) buildRouter(n *topology.Node) (*vrouter.Router, error) {
	dev, err := parseConfig(n)
	if err != nil {
		return nil, fmt.Errorf("kne: node %s: %w", n.Name, err)
	}
	r, err := vrouter.New(n.Name, dev, vrouter.ProfileFor(string(n.Vendor)), e.sim)
	if err != nil {
		return nil, err
	}
	e.wireRouter(r)
	return r, nil
}

// wireRouter hooks a router into routed delivery, observability, and
// convergence tracking.
func (e *Emulator) wireRouter(r *vrouter.Router) {
	r.SendToAddr = func(dst netip.Addr, payload []byte) {
		e.sendRouted(r, dst, protoRSVP, netip.Addr{}, payload, maxTTL)
	}
	r.SetObserver(e.obs)
	name := r.Name
	r.OnQuarantine = func(reason string) {
		// Self-quarantine (escaped handler panic): record the containment so
		// convergence reports the run degraded and the pod is not rebuilt.
		if e.started {
			_ = e.QuarantineRouter(name, reason)
		}
	}
	r.OnStateChange(func() {
		e.lastActivity = e.sim.Now()
		e.lastChange[name] = e.sim.Now()
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvRouteChurn, Device: name, Value: int64(r.RIB().Version())})
		}
	})
}

func parseConfig(n *topology.Node) (*ir.Device, error) {
	var (
		dev *ir.Device
		err error
	)
	switch n.Vendor {
	case topology.VendorEOS:
		dev, _, err = eos.Parse(n.Config)
	case topology.VendorJunosLike:
		dev, err = junoslike.Parse(n.Config)
	default:
		err = fmt.Errorf("unknown vendor %q", n.Vendor)
	}
	if err != nil {
		// A config a device's own front end rejects makes the device
		// unbootable: fatal for this router, attributed to it.
		return nil, diag.Wrap(err, diag.SevFatal, "config", n.Name).WithPath("node/" + n.Name + "/config")
	}
	return dev, nil
}

// Sim returns the emulator's simulator, for advancing virtual time.
func (e *Emulator) Sim() *sim.Simulator { return e.sim }

// Router returns the named virtual router.
func (e *Emulator) Router(name string) (*vrouter.Router, bool) {
	r, ok := e.routers[name]
	return r, ok
}

// Routers returns all routers sorted by name.
func (e *Emulator) Routers() []*vrouter.Router {
	names := make([]string, 0, len(e.routers))
	for name := range e.routers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*vrouter.Router, 0, len(names))
	for _, name := range names {
		out = append(out, e.routers[name])
	}
	return out
}

// Cluster exposes the scheduling substrate.
func (e *Emulator) Cluster() *kube.Cluster { return e.cluster }

// Start schedules the infrastructure initialization and pod boots. Pods
// boot after Config.InfraInit plus their per-vendor boot time; each router
// starts its protocols when its pod is Ready, and links come up when both
// ends are Ready.
func (e *Emulator) Start() error {
	if e.started {
		return fmt.Errorf("kne: already started")
	}
	e.started = true
	e.cluster.OnPodReady(e.podReady)
	e.sim.After(e.cfg.InfraInit, func() {
		for _, n := range e.topo.Nodes {
			r := e.routers[n.Name]
			spec := kube.AristaCEOSRequest(n.Name, r.Profile.BootTime)
			// Queue rather than reject when the cluster is momentarily
			// full: a Pending pod keeps AllRunning false, so convergence
			// (or its degraded variant) reports the shortfall instead of
			// silently shrinking the topology.
			if _, err := e.cluster.ScheduleOrQueue(spec); err != nil {
				continue
			}
		}
	})
	// The prober ticks on the global probe grid (aligned), so replayed
	// replicas probe in lockstep with the primary regardless of boot skew.
	e.probe = e.sim.NewAlignedTicker(e.cfg.ProbeInterval, e.probeSessions)
	return nil
}

// podReady is the cluster's pod-Running callback: it (re)starts the
// resident router and brings up links whose both ends are ready. A pod
// rescheduled after CrashRouter/FailKubeNode gets a freshly built router —
// config re-parsed, protocol state empty — so sessions and adjacencies
// re-establish from scratch while neighbors have already withdrawn its
// routes.
func (e *Emulator) podReady(p *kube.Pod) {
	name := p.Spec.Name
	r := e.routers[name]
	if r == nil {
		return
	}
	if _, contained := e.quarantined[name]; contained {
		// A quarantined router stays down even if its pod comes around again
		// (e.g. rescheduled by a node failure): restarting the control plane
		// would replay the hostile input that got it contained.
		return
	}
	if e.routerDown[name] {
		node, ok := e.topo.Node(name)
		if !ok {
			return
		}
		fresh, err := e.buildRouter(node)
		if err != nil {
			// The config parsed when the router was first built; a reboot
			// cannot invalidate it. Leave the inert husk in place.
			return
		}
		delete(e.routerDown, name)
		e.epoch[name]++
		e.routers[name] = fresh
		r = fresh
	}
	e.ready[name] = true
	if e.obs.Enabled() {
		e.obs.Emit(obs.Event{Type: obs.EvPodReady, Device: name, Detail: p.Node})
	}
	r.Start()
	e.lastActivity = e.sim.Now()
	// Bring up links whose both ends are ready.
	for _, l := range e.topo.NodeLinks(name) {
		a, z := l.A, l.Z
		if e.ready[a.Node] && e.ready[z.Node] && !e.linkDown[linkKey(a, z)] {
			e.attachLink(a, z)
		}
	}
	if e.startupDone == 0 && e.cluster.AllRunning() {
		e.startupDone = e.sim.Now()
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvStartupDone, Value: int64(len(e.routers))})
		}
	}
}

func linkKey(a, z topology.Endpoint) string {
	ka, kz := a.String(), z.String()
	if kz < ka {
		ka, kz = kz, ka
	}
	return ka + "~" + kz
}

// linkDelay returns the per-frame propagation delay: the configured base
// plus up to 25% of seeded jitter. The jitter is what makes ordering
// exploration (core.ExploreOrderings) meaningful — different seeds perturb
// message interleavings without touching protocol logic.
func (e *Emulator) linkDelay() time.Duration {
	jitter := time.Duration(e.sim.Rand().Int63n(int64(e.cfg.LinkDelay)/4 + 1))
	return e.cfg.LinkDelay + jitter
}

// attachLink wires both directions of a link.
func (e *Emulator) attachLink(a, z topology.Endpoint) {
	ra, rz := e.routers[a.Node], e.routers[z.Node]
	key := linkKey(a, z)
	if e.obs.Enabled() {
		e.obs.Emit(obs.Event{Type: obs.EvLinkUp, Detail: key})
	}
	ra.AttachLink(a.Interface, func(data []byte) {
		delay, deliver := e.impairedDelay(key)
		if !deliver {
			return
		}
		d := append([]byte{}, data...)
		e.sim.After(delay, func() {
			if !e.linkDown[key] {
				rz.HandleLinkFrame(z.Interface, d)
			}
		})
	})
	rz.AttachLink(z.Interface, func(data []byte) {
		delay, deliver := e.impairedDelay(key)
		if !deliver {
			return
		}
		d := append([]byte{}, data...)
		e.sim.After(delay, func() {
			if !e.linkDown[key] {
				ra.HandleLinkFrame(a.Interface, d)
			}
		})
	})
}

// Impairment degrades a link without cutting it: each frame is dropped
// with LossPct percent probability (drawn from the seeded sim RNG, so runs
// stay reproducible) and surviving frames carry ExtraDelay on top of the
// normal propagation delay.
type Impairment struct {
	LossPct    int
	ExtraDelay time.Duration
}

// SetLinkImpairment installs loss/delay impairment on the link containing
// endpoint ep; both directions are affected.
func (e *Emulator) SetLinkImpairment(ep topology.Endpoint, imp Impairment) error {
	other, ok := e.peer[ep]
	if !ok {
		return fmt.Errorf("kne: endpoint %v not in any link", ep)
	}
	e.impair[linkKey(ep, other)] = imp
	e.lastActivity = e.sim.Now()
	return nil
}

// ClearLinkImpairment restores the link to its configured behaviour.
func (e *Emulator) ClearLinkImpairment(ep topology.Endpoint) error {
	other, ok := e.peer[ep]
	if !ok {
		return fmt.Errorf("kne: endpoint %v not in any link", ep)
	}
	delete(e.impair, linkKey(ep, other))
	e.lastActivity = e.sim.Now()
	return nil
}

// impairedDelay draws one frame's fate on a link: dropped (false), or
// delivered after the jittered link delay plus any impairment extra delay.
func (e *Emulator) impairedDelay(key string) (time.Duration, bool) {
	d := e.linkDelay()
	imp, found := e.impair[key]
	if !found {
		return d, true
	}
	if imp.LossPct > 0 && e.sim.Rand().Intn(100) < imp.LossPct {
		return 0, false
	}
	return d + imp.ExtraDelay, true
}

// SetLinkDown administratively fails the link containing endpoint ep.
func (e *Emulator) SetLinkDown(ep topology.Endpoint) error {
	other, ok := e.peer[ep]
	if !ok {
		return fmt.Errorf("kne: endpoint %v not in any link", ep)
	}
	e.linkDown[linkKey(ep, other)] = true
	if e.obs.Enabled() {
		e.obs.Emit(obs.Event{Type: obs.EvLinkDown, Detail: linkKey(ep, other)})
	}
	e.routers[ep.Node].DetachLink(ep.Interface)
	e.routers[other.Node].DetachLink(other.Interface)
	e.lastActivity = e.sim.Now()
	return nil
}

// SetLinkUp restores a failed link.
func (e *Emulator) SetLinkUp(ep topology.Endpoint) error {
	other, ok := e.peer[ep]
	if !ok {
		return fmt.Errorf("kne: endpoint %v not in any link", ep)
	}
	delete(e.linkDown, linkKey(ep, other))
	e.attachLink(ep, other)
	e.lastActivity = e.sim.Now()
	return nil
}

// IsLinkDown reports whether the link containing ep is administratively
// down. Unknown endpoints report false.
func (e *Emulator) IsLinkDown(ep topology.Endpoint) bool {
	other, ok := e.peer[ep]
	return ok && e.linkDown[linkKey(ep, other)]
}

// sendRouted forwards payload hop-by-hop toward dst, starting at from. Each
// hop consults the live FIB of the current router, so packets follow the
// dataplane as it exists in flight.
func (e *Emulator) sendRouted(from *vrouter.Router, dst netip.Addr, tag uint8, srcAddr netip.Addr, payload []byte, ttl int) {
	if ttl <= 0 {
		return // looped packet dies
	}
	if from.OwnsAddr(dst) {
		e.deliverLocal(from, tag, srcAddr, payload)
		return
	}
	// Injector addresses terminate outside the emulated routers.
	if inj, ok := e.injectors[dst]; ok {
		data := append([]byte{}, payload...)
		e.sim.After(e.cfg.LinkDelay, func() { inj.receive(srcAddr, data) })
		return
	}
	intf, _, ok := from.ForwardingInterface(dst)
	if !ok {
		return // unroutable: packet dropped
	}
	ep := topology.Endpoint{Node: from.Name, Interface: intf}
	other, ok := e.peer[ep]
	if !ok || e.linkDown[linkKey(ep, other)] {
		return
	}
	next := e.routers[other.Node]
	delay, deliver := e.impairedDelay(linkKey(ep, other))
	if !deliver {
		return // impaired link dropped the packet
	}
	data := append([]byte{}, payload...)
	e.sim.After(delay, func() {
		e.sendRouted(next, dst, tag, srcAddr, data, ttl-1)
	})
}

func (e *Emulator) deliverLocal(r *vrouter.Router, tag uint8, srcAddr netip.Addr, payload []byte) {
	switch tag {
	case protoBGP:
		r.DeliverBGP(srcAddr, payload)
	case protoRSVP:
		r.DeliverRSVP(payload)
	}
}

// probeSessions emulates TCP connectivity management for BGP sessions:
// sessions whose endpoints can reach each other come up; sessions that lose
// reachability are torn down.
func (e *Emulator) probeSessions() {
	for _, r := range e.Routers() {
		if r.BGP == nil || r.Crashed() {
			continue
		}
		for _, p := range r.BGP.Peers() {
			cfg := p.Config()
			if owner, ok := e.addrOwner[cfg.Addr]; ok {
				e.probeRouterSession(r, p, e.routers[owner])
			} else if inj, ok := e.injectors[cfg.Addr]; ok {
				// External feeds start only after the whole network is up,
				// matching the paper's procedure (configure, then inject
				// recorded routes); this also makes the measured
				// convergence-after-startup time reflect route processing.
				if e.startupDone > 0 {
					inj.probe(r, p)
				}
			}
		}
	}
}

// stuckProbeLimit is how many consecutive probes a session may sit in
// OpenSent/OpenConfirm before its transport is reset and retried.
const stuckProbeLimit = 3

func (e *Emulator) probeRouterSession(r *vrouter.Router, p *bgp.Peer, remote *vrouter.Router) {
	cfg := p.Config()
	up := !e.bgpHeld[r.Name] && !e.bgpHeld[remote.Name] &&
		r.CanReach(cfg.Addr) && remote.CanReach(cfg.LocalAddr) && !remote.Crashed()
	st := p.State()
	switch {
	case up && st == bgp.StateIdle:
		delete(e.stuck, p)
		local, src := r, cfg.LocalAddr
		p.TransportUp(func(msg []byte) {
			e.sendRouted(local, cfg.Addr, protoBGP, src, msg, maxTTL)
		})
	case !up && st != bgp.StateIdle:
		delete(e.stuck, p)
		p.TransportDown()
	case up && (st == bgp.StateOpenSent || st == bgp.StateOpenConfirm):
		// Reachable but the handshake is parked: the OPEN (or its reply)
		// was lost in flight — e.g. sent while the link was down. Reset
		// the transport; the next probe re-attempts establishment.
		if e.stuck[p]++; e.stuck[p] >= stuckProbeLimit {
			delete(e.stuck, p)
			p.TransportDown()
		}
	default:
		delete(e.stuck, p)
	}
}

// StartupDone returns the virtual time at which all pods reached Running
// (zero until then).
func (e *Emulator) StartupDone() time.Duration { return e.startupDone }

// activityMark returns a cheap monotonic digest of dataplane-relevant
// state: the sum of all RIB versions plus the last activity timestamp.
func (e *Emulator) activityMark() uint64 {
	var total uint64
	for _, r := range e.routers {
		total += r.RIB().Version()
	}
	return total
}

// Convergence is the outcome of a convergence or settle wait.
type Convergence struct {
	// ConvergedAt is the virtual time of the last dataplane change before
	// the network went quiet (the convergence point).
	ConvergedAt time.Duration
	// Degraded is set when the wait timed out and partial results were
	// accepted instead of failing the run, or when any router was
	// quarantined: its forwarding state is absent, so the verdict covers
	// only the surviving routers.
	Degraded bool
	// Stragglers lists (sorted) the routers that never settled: pod not
	// Running, or RIB still churning inside the hold window.
	Stragglers []string
	// Quarantined lists (sorted) the routers contained after hostile input.
	Quarantined []string
}

// RunUntilConverged advances virtual time until the dataplane has been
// stable at every router for hold, or timeout elapses. It returns the
// virtual time at which the network last changed (the convergence point).
// On timeout the error names the stragglers — the routers whose RIBs
// changed most recently — with their last-activity marks.
func (e *Emulator) RunUntilConverged(hold, timeout time.Duration) (time.Duration, error) {
	c, err := e.converge(hold, timeout, true, false)
	return c.ConvergedAt, err
}

// RunUntilConvergedDegraded is the graceful-degradation variant: on timeout
// it returns the partial state reached so far with Degraded set and the
// stragglers marked, instead of an error. Extraction can then proceed on
// the routers that did settle.
func (e *Emulator) RunUntilConvergedDegraded(hold, timeout time.Duration) (Convergence, error) {
	return e.converge(hold, timeout, true, true)
}

// Settle waits for post-fault quiescence without requiring every pod to be
// Running — the chaos engine measures fault impact while a crashed pod is
// still rebooting. It never fails on timeout; unsettled routers come back
// as stragglers.
func (e *Emulator) Settle(hold, timeout time.Duration) Convergence {
	c, _ := e.converge(hold, timeout, false, true)
	return c
}

func (e *Emulator) converge(hold, timeout time.Duration, needAllRunning, degradeOK bool) (Convergence, error) {
	if !e.started {
		return Convergence{}, fmt.Errorf("kne: not started")
	}
	wallStart := time.Now()
	var bootWall time.Duration
	deadline := e.sim.Now() + timeout
	poll := hold / 4
	if poll <= 0 {
		poll = time.Second
	}
	lastMark := e.activityMark()
	stableSince := e.sim.Now()
	lastChange := e.sim.Now()
	for e.sim.Now() < deadline {
		if e.interrupted() {
			break
		}
		e.sim.RunFor(poll)
		// All pods must exist and be Running before quiet counts as
		// convergence — before infra init completes the network is silent
		// but certainly not converged. A quarantined router's pod may have
		// been deliberately left dead; it must not block convergence.
		booted := e.startupDone > 0 && (e.cluster.AllRunning() || e.allRunningExceptQuarantined())
		if booted && !e.bootRecorded {
			e.bootRecorded = true
			bootWall = time.Since(wallStart)
			e.obs.RecordPhase("boot", 0, e.startupDone, bootWall)
		}
		mark := e.activityMark()
		if mark != lastMark {
			lastMark = mark
			stableSince = e.sim.Now()
			lastChange = e.sim.Now()
			continue
		}
		if !needAllRunning && e.startupDone == 0 {
			continue // nothing ever booted: quiet is not convergence
		}
		if (booted || !needAllRunning) && e.sim.Now()-stableSince >= hold {
			e.recordSimMetrics()
			if needAllRunning {
				e.obs.RecordPhase("converge", e.startupDone, lastChange, time.Since(wallStart)-bootWall)
			}
			if e.obs.Enabled() {
				e.obs.Emit(obs.Event{At: lastChange, Type: obs.EvConverged, Value: int64(len(e.routers))})
			}
			c := Convergence{ConvergedAt: lastChange, Quarantined: e.QuarantinedRouters()}
			if len(c.Quarantined) > 0 {
				// The network settled, but quarantined routers contribute no
				// forwarding state: the verdict is degraded, same as a
				// timeout with stragglers.
				c.Degraded = true
				if e.obs.Enabled() {
					e.obs.Emit(obs.Event{Type: obs.EvDegraded, Detail: strings.Join(c.Quarantined, ","), Value: int64(len(c.Quarantined))})
				}
			}
			return c, nil
		}
	}
	e.recordSimMetrics()
	if degradeOK {
		c := Convergence{ConvergedAt: lastChange, Degraded: true, Stragglers: e.stragglers(hold), Quarantined: e.QuarantinedRouters()}
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvDegraded, Detail: strings.Join(c.Stragglers, ","), Value: int64(len(c.Stragglers))})
		}
		return c, nil
	}
	if e.interrupted() {
		return Convergence{}, fmt.Errorf("kne: convergence wait interrupted at %v: %w", e.sim.Now(), e.cfg.Ctx.Err())
	}
	return Convergence{}, fmt.Errorf("kne: no convergence within %v%s", timeout, e.stragglerSummary())
}

// interrupted reports whether the config context has expired.
func (e *Emulator) interrupted() bool {
	return e.cfg.Ctx != nil && e.cfg.Ctx.Err() != nil
}

// AwaitRunning advances virtual time until the named pod reaches Running,
// bounded by timeout and by Config.Ctx cancellation.
func (e *Emulator) AwaitRunning(name string, timeout time.Duration) error {
	deadline := e.sim.Now() + timeout
	for e.sim.Now() < deadline {
		if e.interrupted() {
			return fmt.Errorf("kne: wait for pod %s interrupted: %w", name, e.cfg.Ctx.Err())
		}
		if p, ok := e.cluster.Pod(name); ok && p.Phase == kube.PodRunning {
			return nil
		}
		e.sim.RunFor(time.Second)
	}
	return fmt.Errorf("kne: pod %s not Running within %v", name, timeout)
}

// stragglers lists the routers that have not settled: pod missing or not
// Running, or RIB changed within the trailing hold window.
func (e *Emulator) stragglers(hold time.Duration) []string {
	now := e.sim.Now()
	var out []string
	for _, r := range e.Routers() {
		if _, contained := e.quarantined[r.Name]; contained {
			continue // reported separately via Convergence.Quarantined
		}
		pod, ok := e.cluster.Pod(r.Name)
		if !ok || pod.Phase != kube.PodRunning {
			out = append(out, r.Name)
			continue
		}
		if lc, ok := e.lastChange[r.Name]; ok && now-lc < hold {
			out = append(out, r.Name)
		}
	}
	return out
}

// allRunningExceptQuarantined reports whether every non-quarantined router's
// pod is Running — the boot criterion once containment has taken a router
// permanently out of service.
func (e *Emulator) allRunningExceptQuarantined() bool {
	if len(e.quarantined) == 0 {
		return false
	}
	for name := range e.routers {
		if _, contained := e.quarantined[name]; contained {
			continue
		}
		pod, ok := e.cluster.Pod(name)
		if !ok || pod.Phase != kube.PodRunning {
			return false
		}
	}
	return true
}

// recordSimMetrics publishes simulation-effort and table-size gauges.
func (e *Emulator) recordSimMetrics() {
	if e.obs == nil {
		return
	}
	m := e.obs.Metrics()
	m.Gauge("sim_events_total").Set(int64(e.sim.Executed()))
	m.Gauge("sim_queue_peak").Set(int64(e.sim.MaxPending()))
	m.Gauge("sim_canceled_total").Set(int64(e.sim.CanceledCount()))
	var running int64
	for _, p := range e.cluster.Pods() {
		if p.Phase == kube.PodRunning {
			running++
		}
	}
	m.Gauge("pods_running").Set(running)
	// Per-router gauges are informative at demo scale and poisonous at 10k:
	// every label value is a distinct metric series, so a scale run would
	// mint tens of thousands of them on each convergence poll. Above the cap
	// only the aggregate series is published.
	const perRouterGaugeCap = 256
	perRouter := len(e.routers) <= perRouterGaugeCap
	var total int64
	for _, r := range e.Routers() {
		n := int64(r.RIB().Len())
		total += n
		if perRouter {
			m.Gauge("rib_routes", "router", r.Name).Set(n)
		}
	}
	m.Gauge("rib_routes_total").Set(total)
}

// TimelineEntry describes one router's convergence state: when its RIB last
// changed (virtual time; zero if it never did) and how many routes it holds.
type TimelineEntry struct {
	Router     string        `json:"router"`
	LastChange time.Duration `json:"last_change_ns"`
	Routes     int           `json:"routes"`
}

// ConvergenceTimeline returns one entry per router sorted by name. It is
// meaningful both after successful convergence (per-router settle times) and
// after a timeout (which routers were still churning).
func (e *Emulator) ConvergenceTimeline() []TimelineEntry {
	out := make([]TimelineEntry, 0, len(e.routers))
	for _, r := range e.Routers() {
		out = append(out, TimelineEntry{
			Router:     r.Name,
			LastChange: e.lastChange[r.Name],
			Routes:     r.RIB().Len(),
		})
	}
	return out
}

// stragglerSummary renders the most recently churning routers for timeout
// diagnostics.
func (e *Emulator) stragglerSummary() string {
	tl := e.ConvergenceTimeline()
	if len(tl) == 0 {
		return ""
	}
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].LastChange > tl[j].LastChange })
	const show = 5
	n := len(tl)
	if n > show {
		n = show
	}
	parts := make([]string, 0, n)
	for _, t := range tl[:n] {
		parts = append(parts, fmt.Sprintf("%s(last change %v, %d routes)", t.Router, t.LastChange, t.Routes))
	}
	s := "; stragglers: " + strings.Join(parts, ", ")
	if len(tl) > show {
		s += fmt.Sprintf(", and %d more", len(tl)-show)
	}
	return s
}

// GenStamp identifies one router incarnation's forwarding state: Epoch
// counts rebuilds of the named router (a crashed pod's replacement is a
// fresh Router whose counters restart from zero) and Gen is that
// incarnation's FIB generation. Two equal stamps imply the very same
// exported (cached) AFT, which is what the sweep keys its dirty-router sets
// and fingerprints on.
type GenStamp struct {
	Epoch uint64
	Gen   uint64
}

// FIBGenerations returns the current stamp for every router.
func (e *Emulator) FIBGenerations() map[string]GenStamp {
	out := make(map[string]GenStamp, len(e.routers))
	for name, r := range e.routers {
		out[name] = GenStamp{Epoch: e.epoch[name], Gen: r.FIBGeneration()}
	}
	return out
}

// AFTs extracts every router's abstract forwarding table directly (the
// in-process path; the gNMI service in internal/gnmi provides the same data
// over the management interface). Only dirty routers — those whose FIB
// generation moved since their last export — are re-rendered, in parallel
// across a worker pool; clean routers return their cached table. Trace
// events are emitted afterward in sorted router order, so the event stream
// is identical to the sequential export's.
func (e *Emulator) AFTs() map[string]*aft.AFT {
	out := make(map[string]*aft.AFT, len(e.routers))
	e.StreamAFTs(func(name string, a *aft.AFT) { out[name] = a })
	return out
}

// StreamAFTs renders every router's AFT exactly like AFTs but delivers each
// table through fn, in sorted router order, instead of accumulating a map.
// The region-sharded pipeline (internal/core) uses it to fold tables into
// the growing verification snapshot without materializing a second copy of
// the full device set. fn must not retain the emulator; the table itself is
// the router's cached export and remains valid after Stop.
func (e *Emulator) StreamAFTs(fn func(name string, a *aft.AFT)) {
	routers := e.Routers()
	var dirty []*vrouter.Router
	for _, r := range routers {
		if !r.AFTCacheValid() {
			dirty = append(dirty, r)
		}
	}
	// Each index owns one router; rendering is a pure read of the quiescent
	// RIB/MPLS state plus atomic metric updates, so the only shared writes
	// are each router's own cache fields. ExportAFT cannot fail.
	_ = par.Do(len(dirty), 0, func(i int) error {
		dirty[i].ExportAFT()
		return nil
	})
	for _, r := range routers {
		a := r.ExportAFT()
		fn(r.Name, a)
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvAFTExport, Device: r.Name, Value: int64(len(a.IPv4Entries))})
		}
	}
}

// Stop halts all protocol timers and the session prober.
func (e *Emulator) Stop() {
	if e.probe != nil {
		e.probe.Stop()
	}
	for _, r := range e.routers {
		r.Stop()
	}
}
