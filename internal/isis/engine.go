package isis

import (
	"net/netip"
	"sort"
	"time"

	"mfv/internal/obs"
	"mfv/internal/sim"
)

// Default protocol timers and metrics.
const (
	DefaultMetric     = 10
	defaultHello      = 10 * time.Second
	defaultHolding    = 30 * time.Second
	defaultSPFDelay   = 50 * time.Millisecond
	defaultLSPRefresh = 15 * time.Minute
)

// adjState is the P2P three-way handshake state.
type adjState uint8

const (
	adjDown adjState = iota
	adjInit          // heard the neighbor, it has not heard us
	adjUp
)

// String names the adjacency state for trace events.
func (s adjState) String() string {
	switch s {
	case adjInit:
		return "init"
	case adjUp:
		return "up"
	default:
		return "down"
	}
}

// Route is one SPF result installed toward the RIB.
type Route struct {
	Prefix   netip.Prefix
	Metric   uint32
	NextHops []NextHop
}

// NextHop is one ECMP leg of an IS-IS route.
type NextHop struct {
	IP        netip.Addr
	Interface string
}

// InterfaceConfig configures one IS-IS-enabled circuit.
type InterfaceConfig struct {
	Name string
	// Addr is the interface address used as the hello source (and thus the
	// neighbor's next hop).
	Addr netip.Addr
	// Prefixes advertised as IP reachability from this interface.
	Prefixes []netip.Prefix
	// Metric defaults to 10.
	Metric uint32
	// Passive advertises the prefixes without forming adjacencies
	// (loopbacks and edge links).
	Passive bool
}

// Config configures an IS-IS engine.
type Config struct {
	SystemID SystemID
	Hostname string
	Clock    *sim.Simulator
	// OnRoutes delivers the complete post-SPF route set; the receiver
	// replaces all previous IS-IS routes with it.
	OnRoutes func([]Route)
	// HelloInterval, HoldingTime, SPFDelay override protocol defaults when
	// nonzero (tests use short values).
	HelloInterval time.Duration
	HoldingTime   time.Duration
	SPFDelay      time.Duration
}

type circuit struct {
	cfg   InterfaceConfig
	send  func([]byte) // nil while link down
	state adjState
	nbr   SystemID
	nbrIP netip.Addr
	hold  *sim.Event
	hello *sim.Ticker
}

// Engine is one router's IS-IS process.
type Engine struct {
	cfg      Config
	circuits map[string]*circuit
	// lsdb maps origin system ID to its most recent LSP.
	lsdb map[SystemID]*LSP
	seq  uint32

	spfScheduled *sim.Event
	// delivered is the last route set handed to OnRoutes; SPF results equal
	// to it are suppressed (see RunSPF).
	delivered    []Route
	hasDelivered bool
	refresh      *sim.Ticker

	// Statistics.
	SPFRuns     uint64
	LSPsFlooded uint64

	// Observability (nil handles are no-ops).
	obs       *obs.Observer
	cSPFRuns  *obs.Counter
	cLSPFlood *obs.Counter
	hSPFNanos *obs.Histogram
}

// New builds an IS-IS engine. Start must be called after interfaces are
// added.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		panic("isis: engine needs a clock")
	}
	if cfg.HelloInterval == 0 {
		cfg.HelloInterval = defaultHello
	}
	if cfg.HoldingTime == 0 {
		cfg.HoldingTime = defaultHolding
	}
	if cfg.SPFDelay == 0 {
		cfg.SPFDelay = defaultSPFDelay
	}
	return &Engine{
		cfg:      cfg,
		circuits: map[string]*circuit{},
		lsdb:     map[SystemID]*LSP{},
	}
}

// SetObserver wires the engine into the observability layer: adjacency
// transitions become trace events, SPF runs and LSP floods become counters,
// and SPF compute time feeds a wall-clock histogram.
func (e *Engine) SetObserver(o *obs.Observer) {
	e.obs = o
	e.cSPFRuns = o.Counter("spf_runs_total")
	e.cLSPFlood = o.Counter("lsps_flooded_total")
	e.hSPFNanos = o.Histogram("spf_ns")
}

// emitAdjacency traces one circuit's adjacency transition.
func (e *Engine) emitAdjacency(c *circuit, st adjState) {
	if e.obs.Enabled() {
		e.obs.Emit(obs.Event{
			Type:   obs.EvISISAdjacency,
			Device: e.cfg.Hostname,
			Detail: c.cfg.Name + ":" + st.String(),
		})
	}
}

// AddInterface registers a circuit before Start.
func (e *Engine) AddInterface(cfg InterfaceConfig) {
	if cfg.Metric == 0 {
		cfg.Metric = DefaultMetric
	}
	e.circuits[cfg.Name] = &circuit{cfg: cfg}
}

// Start originates the initial LSP and begins hello transmission on all
// circuits whose transport is already attached.
func (e *Engine) Start() {
	e.originate()
	// Sorted iteration: hello timers must be armed in a deterministic order
	// so same-seed runs interleave identically.
	names := make([]string, 0, len(e.circuits))
	for name := range e.circuits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.startHellos(e.circuits[name])
	}
	e.refresh = e.cfg.Clock.NewTicker(defaultLSPRefresh, func() { e.originate() })
}

// Stop cancels all timers.
func (e *Engine) Stop() {
	for _, c := range e.circuits {
		if c.hello != nil {
			c.hello.Stop()
		}
		if c.hold != nil {
			e.cfg.Clock.Cancel(c.hold)
		}
	}
	if e.refresh != nil {
		e.refresh.Stop()
	}
	if e.spfScheduled != nil {
		e.cfg.Clock.Cancel(e.spfScheduled)
	}
}

// AttachTransport provides the transmit function for a circuit (link up).
func (e *Engine) AttachTransport(name string, send func([]byte)) {
	c, ok := e.circuits[name]
	if !ok {
		return
	}
	c.send = send
	e.startHellos(c)
}

// DetachTransport signals link down: the adjacency drops immediately.
func (e *Engine) DetachTransport(name string) {
	c, ok := e.circuits[name]
	if !ok {
		return
	}
	c.send = nil
	if c.hello != nil {
		c.hello.Stop()
		c.hello = nil
	}
	e.adjacencyDown(c)
}

func (e *Engine) startHellos(c *circuit) {
	if c.send == nil || c.cfg.Passive || c.hello != nil {
		return
	}
	sendHello := func() {
		var seen []SystemID
		if c.state != adjDown {
			seen = []SystemID{c.nbr}
		}
		c.send(EncodeHello(Hello{
			Source:      e.cfg.SystemID,
			SourceIP:    c.cfg.Addr,
			HoldingTime: uint16(e.cfg.HoldingTime / time.Second),
			Seen:        seen,
		}))
	}
	sendHello()
	// Hellos tick on the global interval grid (aligned): a router rebuilt
	// after a crash advertises on the same schedule as its previous
	// incarnation, so neighbor hold-expiry times do not depend on when the
	// rebuild happened.
	c.hello = e.cfg.Clock.NewAlignedTicker(e.cfg.HelloInterval, sendHello)
}

// HandlePDU processes one received PDU on the named circuit.
func (e *Engine) HandlePDU(intf string, data []byte) {
	c, ok := e.circuits[intf]
	if !ok || c.cfg.Passive || c.send == nil {
		// Unknown circuit, passive circuit, or a PDU that was in flight
		// when the link went down: drop it.
		return
	}
	decoded, err := Decode(data)
	if err != nil {
		return // malformed PDUs are dropped, as on real circuits
	}
	switch pdu := decoded.(type) {
	case Hello:
		e.handleHello(c, pdu)
	case LSP:
		e.handleLSP(c, pdu)
	}
}

func (e *Engine) handleHello(c *circuit, h Hello) {
	prev := c.state
	c.nbr = h.Source
	c.nbrIP = h.SourceIP
	// Three-way: we are Up once the neighbor lists us as seen.
	c.state = adjInit
	for _, s := range h.Seen {
		if s == e.cfg.SystemID {
			c.state = adjUp
			break
		}
	}
	// (Re)arm the holding timer.
	if c.hold != nil {
		e.cfg.Clock.Cancel(c.hold)
	}
	hold := time.Duration(h.HoldingTime) * time.Second
	if hold <= 0 {
		hold = e.cfg.HoldingTime
	}
	c.hold = e.cfg.Clock.After(hold, func() { e.adjacencyDown(c) })

	if prev != c.state {
		e.emitAdjacency(c, c.state)
	}
	if prev != c.state && c.send != nil {
		// State changed: answer immediately so the three-way handshake
		// completes in milliseconds instead of waiting for hello ticks.
		c.send(EncodeHello(Hello{
			Source:      e.cfg.SystemID,
			SourceIP:    c.cfg.Addr,
			HoldingTime: uint16(e.cfg.HoldingTime / time.Second),
			Seen:        []SystemID{c.nbr},
		}))
	}
	if prev != adjUp && c.state == adjUp {
		// Adjacency came up: regenerate our LSP and sync the database.
		e.originate()
		for _, lsp := range e.lsdbSorted() {
			c.send(EncodeLSP(*lsp))
			e.LSPsFlooded++
			e.cLSPFlood.Inc()
		}
		e.scheduleSPF()
	} else if prev == adjUp && c.state != adjUp {
		e.originate()
		e.scheduleSPF()
	}
}

func (e *Engine) adjacencyDown(c *circuit) {
	if c.hold != nil {
		e.cfg.Clock.Cancel(c.hold)
		c.hold = nil
	}
	if c.state == adjDown {
		return
	}
	c.state = adjDown
	e.emitAdjacency(c, adjDown)
	e.originate()
	e.scheduleSPF()
}

func (e *Engine) handleLSP(c *circuit, lsp LSP) {
	have, ok := e.lsdb[lsp.Origin]
	if lsp.Origin == e.cfg.SystemID {
		// Someone flooded our own LSP back; if it is newer than ours (e.g.
		// stale copy after restart), bump our sequence past it.
		if ok && lsp.Seq >= have.Seq {
			e.seq = lsp.Seq
			e.originate()
		}
		return
	}
	if ok && have.Seq >= lsp.Seq {
		return // old news
	}
	cp := lsp
	e.lsdb[lsp.Origin] = &cp
	e.floodExcept(&cp, c)
	if ok && lspContentEqual(have, &cp) {
		// Pure sequence-number refresh: the topology the LSP describes did
		// not change, so recomputing SPF would be wasted work — and a
		// periodic refresh wave must not read as routing activity to
		// convergence detection.
		return
	}
	e.scheduleSPF()
}

// lspContentEqual reports whether two LSPs describe the same topology —
// everything but the sequence number.
func lspContentEqual(a, b *LSP) bool {
	if a.Origin != b.Origin || a.Hostname != b.Hostname ||
		len(a.Neighbors) != len(b.Neighbors) || len(a.Prefixes) != len(b.Prefixes) {
		return false
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			return false
		}
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return false
		}
	}
	return true
}

// originate regenerates our own LSP and floods it.
func (e *Engine) originate() {
	e.seq++
	lsp := LSP{
		Origin:   e.cfg.SystemID,
		Seq:      e.seq,
		Hostname: e.cfg.Hostname,
	}
	names := make([]string, 0, len(e.circuits))
	for name := range e.circuits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := e.circuits[name]
		if c.state == adjUp {
			lsp.Neighbors = append(lsp.Neighbors, Neighbor{ID: c.nbr, Metric: c.cfg.Metric})
		}
		for _, p := range c.cfg.Prefixes {
			lsp.Prefixes = append(lsp.Prefixes, PrefixReach{Prefix: p.Masked(), Metric: 0})
		}
	}
	e.lsdb[e.cfg.SystemID] = &lsp
	e.floodExcept(&lsp, nil)
	e.scheduleSPF()
}

func (e *Engine) floodExcept(lsp *LSP, skip *circuit) {
	data := EncodeLSP(*lsp)
	names := make([]string, 0, len(e.circuits))
	for name := range e.circuits {
		names = append(names, name)
	}
	sort.Strings(names)
	flooded := 0
	for _, name := range names {
		c := e.circuits[name]
		if c == skip || c.send == nil || c.cfg.Passive || c.state != adjUp {
			continue
		}
		c.send(data)
		e.LSPsFlooded++
		flooded++
	}
	if flooded > 0 {
		e.cLSPFlood.Add(uint64(flooded))
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvLSPFlood, Device: e.cfg.Hostname, Value: int64(flooded)})
		}
	}
}

func (e *Engine) lsdbSorted() []*LSP {
	out := make([]*LSP, 0, len(e.lsdb))
	for _, lsp := range e.lsdb {
		out = append(out, lsp)
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].Origin[:]) < string(out[j].Origin[:])
	})
	return out
}

// LSDB returns a snapshot of the database for CLI-style inspection.
func (e *Engine) LSDB() []LSP {
	out := make([]LSP, 0, len(e.lsdb))
	for _, lsp := range e.lsdbSorted() {
		out = append(out, *lsp)
	}
	return out
}

// Adjacencies returns the circuits with their adjacency state, sorted by
// interface name, for CLI-style inspection.
type Adjacency struct {
	Interface string
	Neighbor  SystemID
	Up        bool
}

// Adjacencies lists non-passive circuits and their state.
func (e *Engine) Adjacencies() []Adjacency {
	var out []Adjacency
	names := make([]string, 0, len(e.circuits))
	for name := range e.circuits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := e.circuits[name]
		if c.cfg.Passive {
			continue
		}
		out = append(out, Adjacency{Interface: name, Neighbor: c.nbr, Up: c.state == adjUp})
	}
	return out
}

func (e *Engine) scheduleSPF() {
	if e.spfScheduled != nil {
		return
	}
	e.spfScheduled = e.cfg.Clock.After(e.cfg.SPFDelay, func() {
		e.spfScheduled = nil
		e.RunSPF()
	})
}

// RunSPF computes shortest paths over the LSDB and delivers routes. It is
// exported for tests and for forced recomputation.
func (e *Engine) RunSPF() {
	e.SPFRuns++
	e.cSPFRuns.Inc()
	var spfStart time.Time
	if e.obs != nil {
		spfStart = time.Now()
		defer func() { e.hSPFNanos.Observe(time.Since(spfStart).Nanoseconds()) }()
	}
	self := e.cfg.SystemID

	// Build the adjacency-verified graph: an edge A->B counts only if B
	// also reports A (two-way connectivity check).
	reports := func(from, to SystemID) (uint32, bool) {
		lsp, ok := e.lsdb[from]
		if !ok {
			return 0, false
		}
		for _, n := range lsp.Neighbors {
			if n.ID == to {
				return n.Metric, true
			}
		}
		return 0, false
	}

	type nodeDist struct {
		id   SystemID
		dist uint32
	}
	dist := map[SystemID]uint32{self: 0}
	// firstHops maps a node to the set of local next hops reaching it.
	firstHops := map[SystemID][]NextHop{}
	visited := map[SystemID]bool{}

	// Local adjacencies seed the frontier.
	localHop := map[SystemID][]NextHop{}
	names := make([]string, 0, len(e.circuits))
	for name := range e.circuits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := e.circuits[name]
		if c.state == adjUp {
			localHop[c.nbr] = append(localHop[c.nbr], NextHop{IP: c.nbrIP, Interface: name})
		}
	}

	for {
		// Extract-min over unvisited nodes (the LSDB is small enough that a
		// linear scan keeps the code simple; scale tests confirm this is
		// not the bottleneck).
		var cur nodeDist
		found := false
		for id, d := range dist {
			if visited[id] {
				continue
			}
			if !found || d < cur.dist || (d == cur.dist && string(id[:]) < string(cur.id[:])) {
				cur = nodeDist{id, d}
				found = true
			}
		}
		if !found {
			break
		}
		visited[cur.id] = true

		lsp, ok := e.lsdb[cur.id]
		if !ok {
			continue
		}
		for _, n := range lsp.Neighbors {
			// Two-way check.
			if _, ok := reports(n.ID, cur.id); !ok {
				continue
			}
			nd := cur.dist + n.Metric
			old, seen := dist[n.ID]
			if !seen || nd < old {
				dist[n.ID] = nd
				if cur.id == self {
					firstHops[n.ID] = append([]NextHop{}, localHop[n.ID]...)
				} else {
					firstHops[n.ID] = append([]NextHop{}, firstHops[cur.id]...)
				}
			} else if seen && nd == old {
				// Equal cost: merge first hops.
				var add []NextHop
				if cur.id == self {
					add = localHop[n.ID]
				} else {
					add = firstHops[cur.id]
				}
				firstHops[n.ID] = mergeHops(firstHops[n.ID], add)
			}
		}
	}

	// Collect prefix routes.
	bestByPrefix := map[netip.Prefix]*Route{}
	for id, lsp := range e.lsdb {
		if id == self {
			continue
		}
		d, reachable := dist[id]
		if !reachable {
			continue
		}
		hops := firstHops[id]
		if len(hops) == 0 {
			continue
		}
		for _, pr := range lsp.Prefixes {
			total := d + pr.Metric
			have, ok := bestByPrefix[pr.Prefix]
			switch {
			case !ok || total < have.Metric:
				bestByPrefix[pr.Prefix] = &Route{
					Prefix:   pr.Prefix,
					Metric:   total,
					NextHops: append([]NextHop{}, hops...),
				}
			case total == have.Metric:
				have.NextHops = mergeHops(have.NextHops, hops)
			}
		}
	}
	// Drop prefixes we also advertise locally (connected beats IGP anyway,
	// and real IS-IS does not install routes to its own prefixes).
	for _, c := range e.circuits {
		for _, p := range c.cfg.Prefixes {
			delete(bestByPrefix, p.Masked())
		}
	}

	routes := make([]Route, 0, len(bestByPrefix))
	for _, r := range bestByPrefix {
		sort.Slice(r.NextHops, func(i, j int) bool {
			if r.NextHops[i].IP != r.NextHops[j].IP {
				return r.NextHops[i].IP.Less(r.NextHops[j].IP)
			}
			return r.NextHops[i].Interface < r.NextHops[j].Interface
		})
		routes = append(routes, *r)
	}
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Prefix.Addr() != routes[j].Prefix.Addr() {
			return routes[i].Prefix.Addr().Less(routes[j].Prefix.Addr())
		}
		return routes[i].Prefix.Bits() < routes[j].Prefix.Bits()
	})
	if e.cfg.OnRoutes != nil && !(e.hasDelivered && routesEqual(e.delivered, routes)) {
		// Deliver only on change: an SPF whose result matches the last
		// delivery (LSP refresh waves, redundant floods) must not rewrite
		// the RIB — a rewrite bumps the FIB generation and reads as routing
		// activity to convergence detection.
		e.delivered = routes
		e.hasDelivered = true
		e.cfg.OnRoutes(routes)
	}
}

// routesEqual compares two canonically sorted SPF results.
func routesEqual(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Metric != b[i].Metric ||
			len(a[i].NextHops) != len(b[i].NextHops) {
			return false
		}
		for j := range a[i].NextHops {
			if a[i].NextHops[j] != b[i].NextHops[j] {
				return false
			}
		}
	}
	return true
}

func mergeHops(a, b []NextHop) []NextHop {
	out := append([]NextHop{}, a...)
	for _, h := range b {
		dup := false
		for _, have := range out {
			if have == h {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}
