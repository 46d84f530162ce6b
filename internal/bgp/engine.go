package bgp

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"mfv/internal/obs"
	"mfv/internal/policy"
	"mfv/internal/sim"
)

// State is the session FSM state (RFC 4271 §8, with the TCP-level Connect/
// Active states collapsed into Idle: the emulation substrate signals
// transport availability explicitly).
type State uint8

// FSM states.
const (
	StateIdle State = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Path is one candidate route in the speaker's Adj-RIB-In or local table.
type Path struct {
	Prefix netip.Prefix
	Attrs  PathAttrs
	// Local marks a locally originated path (network statement or
	// redistribution); local paths win the decision process outright,
	// mirroring the EOS weight-32768 convention.
	Local bool
	// FromIBGP records the session type the path was learned over.
	FromIBGP bool
	// FromRRClient records that the advertising iBGP peer is configured as
	// a route-reflector client, which widens re-advertisement rules.
	FromRRClient bool
	// PeerAddr / PeerRouterID identify the advertising peer for the final
	// tie-breaks.
	PeerAddr     netip.Addr
	PeerRouterID netip.Addr
}

// EffectiveLocalPref returns LocalPref with the 100 default applied.
func (p *Path) EffectiveLocalPref() uint32 {
	if p.Attrs.HasLocal {
		return p.Attrs.LocalPref
	}
	return 100
}

// NextHopResolver reports whether (and at what IGP cost) a BGP next hop is
// reachable. The virtual router backs this with its RIB.
type NextHopResolver interface {
	ResolveNextHop(nh netip.Addr) (metric uint32, ok bool)
}

// ResolverFunc adapts a function to NextHopResolver.
type ResolverFunc func(nh netip.Addr) (uint32, bool)

// ResolveNextHop implements NextHopResolver.
func (f ResolverFunc) ResolveNextHop(nh netip.Addr) (uint32, bool) { return f(nh) }

// PeerConfig configures one neighbor session.
type PeerConfig struct {
	Addr      netip.Addr
	LocalAddr netip.Addr
	RemoteAS  uint32
	// HoldTime defaults to 90 s; keepalives go out every HoldTime/3.
	HoldTime time.Duration
	// NextHopSelf rewrites the next hop to LocalAddr on iBGP export (eBGP
	// always sets self).
	NextHopSelf bool
	// RRClient marks the peer as a route-reflector client of this speaker.
	RRClient bool
	// ImportPolicy/ExportPolicy are optional route maps; Env resolves
	// prefix-list references inside them.
	ImportPolicy, ExportPolicy *policy.RouteMap
	Env                        policy.Env
	// SendCommunity propagates communities to this peer (EOS requires it
	// explicitly; without it communities are stripped on export).
	SendCommunity bool
}

// Peer is the per-neighbor session state.
type Peer struct {
	cfg   PeerConfig
	spk   *Speaker
	state State
	// routerID is the neighbor's router ID, learned from its OPEN.
	routerID netip.Addr
	// send transmits an encoded message to the neighbor; nil while the
	// transport is down.
	send func([]byte)

	holdTimer *sim.Event
	keepalive *sim.Ticker

	// adjOut tracks the attributes last advertised per prefix, so
	// withdrawals are sent only for previously advertised prefixes and
	// duplicate announcements are suppressed.
	adjOut map[netip.Prefix]string

	// dirty accumulates prefixes whose advertisement state must be
	// recomputed at the next flush.
	dirty map[netip.Prefix]bool
	flush *sim.Event

	// Statistics.
	MsgsIn, MsgsOut  uint64
	UpdatesIn        uint64
	PrefixesReceived uint64
	LastNotification *Notification
	establishedAt    time.Duration
	everEstablished  bool
}

// State returns the current FSM state.
func (p *Peer) State() State { return p.state }

// Config returns the peer configuration.
func (p *Peer) Config() PeerConfig { return p.cfg }

// IBGP reports whether this session is internal.
func (p *Peer) IBGP() bool { return p.cfg.RemoteAS == p.spk.asn }

// Speaker is one router's BGP process.
type Speaker struct {
	hostname string
	asn      uint32
	routerID netip.Addr
	clock    *sim.Simulator
	resolver NextHopResolver

	peers map[netip.Addr]*Peer
	// peerList mirrors peers sorted by address, for deterministic fan-out.
	peerList []*Peer
	// adjIn holds received paths per peer per prefix (post-import-policy).
	adjIn map[netip.Addr]map[netip.Prefix]*Path
	// nhRefs counts Adj-RIB-In paths per distinct next hop, so next-hop
	// revalidation after IGP changes is O(distinct next hops), not
	// O(prefixes).
	nhRefs map[netip.Addr]int
	// local holds locally originated paths.
	local map[netip.Prefix]*Path
	// best is the Loc-RIB: the decision-process winner per prefix.
	best map[netip.Prefix]*Path

	// onBest is invoked when the Loc-RIB changes; nil path = withdrawn.
	onBest func(prefix netip.Prefix, p *Path)

	// advDelay batches advertisement flushes (a coarse MRAI analogue).
	advDelay time.Duration

	// obs and the pre-resolved metric handles below are nil (no-op) unless
	// SetObserver wires the speaker into an observability sink.
	obs          *obs.Observer
	cMsgsIn      *obs.Counter
	cMsgsOut     *obs.Counter
	cUpdatesIn   *obs.Counter
	cPrefixesIn  *obs.Counter
	cEstablished *obs.Counter
}

// Config bundles Speaker construction parameters.
type Config struct {
	Hostname string
	ASN      uint32
	RouterID netip.Addr
	Clock    *sim.Simulator
	Resolver NextHopResolver
	// OnBestChange receives Loc-RIB transitions.
	OnBestChange func(prefix netip.Prefix, p *Path)
	// AdvertisementDelay batches outbound updates; defaults to 50 ms.
	AdvertisementDelay time.Duration
}

// NewSpeaker builds a BGP process.
func NewSpeaker(cfg Config) *Speaker {
	if cfg.ASN == 0 {
		panic("bgp: speaker needs an ASN")
	}
	if cfg.Clock == nil {
		panic("bgp: speaker needs a clock")
	}
	delay := cfg.AdvertisementDelay
	if delay == 0 {
		delay = 50 * time.Millisecond
	}
	return &Speaker{
		hostname: cfg.Hostname,
		asn:      cfg.ASN,
		routerID: cfg.RouterID,
		clock:    cfg.Clock,
		resolver: cfg.Resolver,
		peers:    map[netip.Addr]*Peer{},
		adjIn:    map[netip.Addr]map[netip.Prefix]*Path{},
		nhRefs:   map[netip.Addr]int{},
		local:    map[netip.Prefix]*Path{},
		best:     map[netip.Prefix]*Path{},
		onBest:   cfg.OnBestChange,
		advDelay: delay,
	}
}

// SetObserver wires the speaker into the observability layer: session FSM
// transitions become trace events and message/update volumes become
// counters. Metric handles are resolved once here so the hot paths stay
// allocation-free. A nil observer (the default) disables everything.
func (s *Speaker) SetObserver(o *obs.Observer) {
	s.obs = o
	s.cMsgsIn = o.Counter("bgp_msgs_in_total")
	s.cMsgsOut = o.Counter("bgp_msgs_out_total")
	s.cUpdatesIn = o.Counter("bgp_updates_total")
	s.cPrefixesIn = o.Counter("bgp_prefixes_in_total")
	s.cEstablished = o.Counter("bgp_sessions_established_total")
}

// setState performs an FSM transition, counting establishments and emitting
// the session-transition trace event.
func (p *Peer) setState(st State) {
	if st == p.state {
		return
	}
	old := p.state
	p.state = st
	if st == StateEstablished {
		p.spk.cEstablished.Inc()
	}
	if p.spk.obs.Enabled() {
		p.spk.obs.Emit(obs.Event{
			Type:   obs.EvBGPSession,
			Device: p.spk.hostname,
			Peer:   p.cfg.Addr.String(),
			Detail: old.String() + ">" + st.String(),
		})
	}
}

// ASN returns the local AS number.
func (s *Speaker) ASN() uint32 { return s.asn }

// RouterID returns the local router ID.
func (s *Speaker) RouterID() netip.Addr { return s.routerID }

// AddPeer registers a neighbor. The session stays Idle until TransportUp.
func (s *Speaker) AddPeer(cfg PeerConfig) *Peer {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90 * time.Second
	}
	p := &Peer{
		cfg:    cfg,
		spk:    s,
		adjOut: map[netip.Prefix]string{},
		dirty:  map[netip.Prefix]bool{},
	}
	s.peers[cfg.Addr] = p
	// peerList keeps a sorted view for iteration: advertisement fan-out must
	// visit peers in a deterministic order or same-seed runs diverge in
	// message (and therefore trace) ordering.
	s.peerList = append(s.peerList, p)
	sort.Slice(s.peerList, func(i, j int) bool {
		return s.peerList[i].cfg.Addr.Less(s.peerList[j].cfg.Addr)
	})
	s.adjIn[cfg.Addr] = map[netip.Prefix]*Path{}
	return p
}

// Peer returns the session for the given neighbor address.
func (s *Speaker) Peer(a netip.Addr) (*Peer, bool) {
	p, ok := s.peers[a]
	return p, ok
}

// Peers returns all sessions sorted by neighbor address.
func (s *Speaker) Peers() []*Peer {
	out := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Addr.Less(out[j].cfg.Addr) })
	return out
}

// Best returns the Loc-RIB winner for prefix.
func (s *Speaker) Best(prefix netip.Prefix) (*Path, bool) {
	p, ok := s.best[prefix.Masked()]
	return p, ok
}

// BestRoutes returns the Loc-RIB as a sorted snapshot.
func (s *Speaker) BestRoutes() []*Path {
	out := make([]*Path, 0, len(s.best))
	for _, p := range s.best {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return prefixLess(out[i].Prefix, out[j].Prefix) })
	return out
}

// LocRIBSize returns the number of prefixes with a best path.
func (s *Speaker) LocRIBSize() int { return len(s.best) }

func prefixLess(a, b netip.Prefix) bool {
	if a.Addr() != b.Addr() {
		return a.Addr().Less(b.Addr())
	}
	return a.Bits() < b.Bits()
}

// Originate installs (or replaces) a locally originated path and triggers
// the decision process. The next hop in attrs may be left invalid; export
// rewrites it per session.
func (s *Speaker) Originate(prefix netip.Prefix, attrs PathAttrs) {
	prefix = prefix.Masked()
	s.local[prefix] = &Path{Prefix: prefix, Attrs: attrs, Local: true}
	s.decide(prefix)
}

// WithdrawLocal removes a locally originated path.
func (s *Speaker) WithdrawLocal(prefix netip.Prefix) {
	prefix = prefix.Masked()
	if _, ok := s.local[prefix]; !ok {
		return
	}
	delete(s.local, prefix)
	s.decide(prefix)
}

// TransportUp signals that the substrate can carry this session (the
// analogue of the TCP connection succeeding) and provides the transmit
// function. The session proceeds to OpenSent.
func (p *Peer) TransportUp(send func([]byte)) {
	if p.state != StateIdle {
		return
	}
	p.send = send
	p.setState(StateOpenSent)
	p.transmit(EncodeOpen(Open{
		Version:  4,
		ASN:      p.spk.asn,
		HoldTime: uint16(p.cfg.HoldTime / time.Second),
		RouterID: p.spk.routerID,
	}))
}

// TransportDown signals loss of the underlying connectivity. All routes
// learned from the peer are withdrawn immediately (TCP reset semantics).
func (p *Peer) TransportDown() {
	p.teardown()
}

func (p *Peer) teardown() {
	if p.holdTimer != nil {
		p.spk.clock.Cancel(p.holdTimer)
		p.holdTimer = nil
	}
	if p.keepalive != nil {
		p.keepalive.Stop()
		p.keepalive = nil
	}
	if p.flush != nil {
		p.spk.clock.Cancel(p.flush)
		p.flush = nil
	}
	p.send = nil
	p.setState(StateIdle)
	p.adjOut = map[netip.Prefix]string{}
	p.dirty = map[netip.Prefix]bool{}
	// Flush Adj-RIB-In and rerun decision for the affected prefixes.
	in := p.spk.adjIn[p.cfg.Addr]
	p.spk.adjIn[p.cfg.Addr] = map[netip.Prefix]*Path{}
	for prefix, path := range in {
		p.spk.releaseNH(path.Attrs.NextHop)
		p.spk.decide(prefix)
	}
}

func (s *Speaker) holdNH(nh netip.Addr) { s.nhRefs[nh]++ }
func (s *Speaker) releaseNH(nh netip.Addr) {
	if s.nhRefs[nh]--; s.nhRefs[nh] <= 0 {
		delete(s.nhRefs, nh)
	}
}

// DistinctNextHops returns the set of next hops referenced by Adj-RIB-In
// paths, sorted. Its size is bounded by the number of peers times their
// attribute diversity, not by table size.
func (s *Speaker) DistinctNextHops() []netip.Addr {
	out := make([]netip.Addr, 0, len(s.nhRefs))
	for nh := range s.nhRefs {
		out = append(out, nh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (p *Peer) transmit(msg []byte) {
	if p.send != nil {
		p.MsgsOut++
		p.spk.cMsgsOut.Inc()
		p.send(msg)
	}
}

func (p *Peer) resetHoldTimer() {
	if p.holdTimer != nil {
		p.spk.clock.Cancel(p.holdTimer)
	}
	p.holdTimer = p.spk.clock.After(p.cfg.HoldTime, func() {
		p.transmit(EncodeNotification(Notification{Code: NotifHoldTimerExpired}))
		p.teardown()
	})
}

// HandleMessage processes one encoded message from the neighbor. Malformed
// messages elicit a NOTIFICATION and tear the session down, per RFC 4271.
func (s *Speaker) HandleMessage(from netip.Addr, data []byte) {
	p, ok := s.peers[from]
	if !ok {
		return // message from an unconfigured neighbor: ignore
	}
	p.MsgsIn++
	s.cMsgsIn.Inc()
	decoded, err := Decode(data)
	if err != nil {
		var n Notification
		if errors.As(err, &n) {
			p.transmit(EncodeNotification(n))
		} else {
			p.transmit(EncodeNotification(Notification{Code: NotifUpdateMessageError}))
		}
		p.teardown()
		return
	}
	switch m := decoded.(type) {
	case Open:
		p.handleOpen(m)
	case Update:
		p.handleUpdate(m)
	case Notification:
		n := m
		p.LastNotification = &n
		p.teardown()
	case struct{}: // keepalive
		p.handleKeepalive()
	}
}

func (p *Peer) fsmError() {
	p.transmit(EncodeNotification(Notification{Code: NotifFSMError}))
	p.teardown()
}

func (p *Peer) handleOpen(o Open) {
	if p.state != StateOpenSent {
		p.fsmError()
		return
	}
	if o.ASN != p.cfg.RemoteAS {
		p.transmit(EncodeNotification(Notification{Code: NotifOpenMessageError, Subcode: 2})) // bad peer AS
		p.teardown()
		return
	}
	// Negotiate hold time: the smaller of ours and theirs.
	if theirs := time.Duration(o.HoldTime) * time.Second; theirs > 0 && theirs < p.cfg.HoldTime {
		p.cfg.HoldTime = theirs
	}
	p.peerRouterIDSet(o.RouterID)
	p.setState(StateOpenConfirm)
	p.transmit(EncodeKeepalive())
	p.resetHoldTimer()
}

// peerRouterIDSet records the neighbor's router ID from its OPEN.
func (p *Peer) peerRouterIDSet(id netip.Addr) { p.routerID = id }

func (p *Peer) handleKeepalive() {
	switch p.state {
	case StateOpenConfirm:
		p.establish()
	case StateEstablished:
		p.resetHoldTimer()
	case StateOpenSent:
		p.fsmError()
	}
}

func (p *Peer) establish() {
	p.setState(StateEstablished)
	p.everEstablished = true
	p.establishedAt = p.spk.clock.Now()
	p.resetHoldTimer()
	interval := p.cfg.HoldTime / 3
	if interval <= 0 {
		interval = 30 * time.Second
	}
	// Keepalives tick on the global interval grid (aligned), not relative to
	// the establishment instant: a session torn down and re-established keeps
	// the same keepalive schedule, so hold-timer-expiry detection times stay
	// independent of the session's establishment history.
	p.keepalive = p.spk.clock.NewAlignedTicker(interval, func() {
		p.transmit(EncodeKeepalive())
	})
	// Initial full-table advertisement.
	for prefix := range p.spk.best {
		p.markDirty(prefix)
	}
	p.scheduleFlush()
}

func (p *Peer) handleUpdate(u Update) {
	if p.state != StateEstablished {
		if p.state == StateOpenConfirm {
			// Tolerate update-before-keepalive from fast peers: implicit
			// establishment, as several real stacks do.
			p.establish()
		} else {
			p.fsmError()
			return
		}
	}
	p.UpdatesIn++
	p.spk.cUpdatesIn.Inc()
	p.spk.cPrefixesIn.Add(uint64(len(u.NLRI) + len(u.Withdrawn)))
	p.resetHoldTimer()
	in := p.spk.adjIn[p.cfg.Addr]
	changed := map[netip.Prefix]bool{}
	for _, w := range u.Withdrawn {
		if old, ok := in[w]; ok {
			p.spk.releaseNH(old.Attrs.NextHop)
			delete(in, w)
			changed[w] = true
		}
	}
	if u.Attrs != nil {
		for _, prefix := range u.NLRI {
			p.PrefixesReceived++
			path := p.acceptPath(prefix, *u.Attrs)
			if path == nil {
				// Rejected by loop check or import policy: remove any
				// previous acceptance.
				if old, ok := in[prefix]; ok {
					p.spk.releaseNH(old.Attrs.NextHop)
					delete(in, prefix)
					changed[prefix] = true
				}
				continue
			}
			if old, ok := in[prefix]; ok {
				p.spk.releaseNH(old.Attrs.NextHop)
			}
			p.spk.holdNH(path.Attrs.NextHop)
			in[prefix] = path
			changed[prefix] = true
		}
	}
	for prefix := range changed {
		p.spk.decide(prefix)
	}
}

// acceptPath runs loop detection and import policy; nil means rejected.
func (p *Peer) acceptPath(prefix netip.Prefix, attrs PathAttrs) *Path {
	ibgp := p.IBGP()
	if !ibgp {
		// eBGP loop check: our ASN in the received path means a loop.
		for _, as := range attrs.ASPath {
			if as == p.spk.asn {
				return nil
			}
		}
	}
	path := &Path{
		Prefix:       prefix,
		Attrs:        attrs,
		FromIBGP:     ibgp,
		FromRRClient: p.cfg.RRClient,
		PeerAddr:     p.cfg.Addr,
		PeerRouterID: p.routerID,
	}
	// Communities are copied to avoid aliasing the decode buffer across
	// policy mutation.
	path.Attrs.Communities = append([]policy.Community{}, attrs.Communities...)
	path.Attrs.ASPath = append([]uint32{}, attrs.ASPath...)

	if p.cfg.ImportPolicy != nil {
		subj := pathToSubject(path)
		if p.cfg.ImportPolicy.Apply(&subj, p.cfg.Env) == policy.Deny {
			return nil
		}
		subjectToPath(subj, path)
	}
	return path
}

func pathToSubject(p *Path) policy.Subject {
	return policy.Subject{
		Prefix:      p.Prefix,
		NextHop:     p.Attrs.NextHop,
		LocalPref:   p.EffectiveLocalPref(),
		MED:         p.Attrs.MED,
		Communities: append([]policy.Community{}, p.Attrs.Communities...),
		ASPath:      append([]uint32{}, p.Attrs.ASPath...),
	}
}

func subjectToPath(s policy.Subject, p *Path) {
	p.Attrs.NextHop = s.NextHop
	p.Attrs.LocalPref = s.LocalPref
	p.Attrs.HasLocal = true
	p.Attrs.MED = s.MED
	p.Attrs.Communities = s.Communities
	p.Attrs.ASPath = s.ASPath
}

// decide recomputes the best path for prefix and propagates changes.
func (s *Speaker) decide(prefix netip.Prefix) {
	var candidates []*Path
	if lp, ok := s.local[prefix]; ok {
		candidates = append(candidates, lp)
	}
	// Deterministic peer iteration order.
	addrs := make([]netip.Addr, 0, len(s.adjIn))
	for a := range s.adjIn {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	for _, a := range addrs {
		if path, ok := s.adjIn[a][prefix]; ok {
			// Next-hop viability gate.
			if !path.Local && s.resolver != nil {
				if _, ok := s.resolver.ResolveNextHop(path.Attrs.NextHop); !ok {
					continue
				}
			}
			candidates = append(candidates, path)
		}
	}
	var winner *Path
	for _, c := range candidates {
		if winner == nil || s.better(c, winner) {
			winner = c
		}
	}
	old := s.best[prefix]
	if pathsEqual(old, winner) {
		return
	}
	if winner == nil {
		delete(s.best, prefix)
	} else {
		s.best[prefix] = winner
	}
	if s.onBest != nil {
		s.onBest(prefix, winner)
	}
	for _, peer := range s.peerList {
		if peer.state == StateEstablished {
			peer.markDirty(prefix)
			peer.scheduleFlush()
		}
	}
}

func pathsEqual(a, b *Path) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Local != b.Local || a.FromIBGP != b.FromIBGP || a.PeerAddr != b.PeerAddr {
		return false
	}
	return attrsEqual(&a.Attrs, &b.Attrs)
}

func attrsEqual(a, b *PathAttrs) bool {
	if a.Origin != b.Origin || a.NextHop != b.NextHop ||
		a.HasMED != b.HasMED || a.MED != b.MED ||
		a.HasLocal != b.HasLocal || a.LocalPref != b.LocalPref ||
		len(a.ASPath) != len(b.ASPath) || len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	return true
}

// better implements the decision-process ladder: returns true when a is
// preferred over b.
func (s *Speaker) better(a, b *Path) bool {
	// 0. Locally originated wins (weight analogue).
	if a.Local != b.Local {
		return a.Local
	}
	// 1. Higher local preference.
	if la, lb := a.EffectiveLocalPref(), b.EffectiveLocalPref(); la != lb {
		return la > lb
	}
	// 2. Shorter AS path.
	if la, lb := len(a.Attrs.ASPath), len(b.Attrs.ASPath); la != lb {
		return la < lb
	}
	// 3. Lower origin.
	if a.Attrs.Origin != b.Attrs.Origin {
		return a.Attrs.Origin < b.Attrs.Origin
	}
	// 4. Lower MED when both paths enter from the same neighbor AS.
	if asA, asB := firstAS(a), firstAS(b); asA == asB {
		if ma, mb := a.Attrs.MED, b.Attrs.MED; ma != mb {
			return ma < mb
		}
	}
	// 5. Prefer eBGP over iBGP.
	if a.FromIBGP != b.FromIBGP {
		return !a.FromIBGP
	}
	// 6. Lower IGP metric to the next hop.
	if s.resolver != nil {
		ma, okA := s.resolver.ResolveNextHop(a.Attrs.NextHop)
		mb, okB := s.resolver.ResolveNextHop(b.Attrs.NextHop)
		if okA && okB && ma != mb {
			return ma < mb
		}
	}
	// 7. Lower peer router ID.
	if a.PeerRouterID != b.PeerRouterID {
		return a.PeerRouterID.Less(b.PeerRouterID)
	}
	// 8. Lower peer address.
	return a.PeerAddr.Less(b.PeerAddr)
}

func firstAS(p *Path) uint32 {
	if len(p.Attrs.ASPath) == 0 {
		return 0
	}
	return p.Attrs.ASPath[0]
}

func (p *Peer) markDirty(prefix netip.Prefix) { p.dirty[prefix] = true }

func (p *Peer) scheduleFlush() {
	if p.flush != nil || len(p.dirty) == 0 {
		return
	}
	p.flush = p.spk.clock.After(p.spk.advDelay, func() {
		p.flush = nil
		p.flushNow()
	})
}

// flushNow computes and transmits the pending advertisement state.
func (p *Peer) flushNow() {
	if p.state != StateEstablished {
		p.dirty = map[netip.Prefix]bool{}
		return
	}
	var withdraw []netip.Prefix
	groups := map[string]*advGroup{}
	// Deterministic ordering of dirty prefixes.
	prefixes := make([]netip.Prefix, 0, len(p.dirty))
	for prefix := range p.dirty {
		prefixes = append(prefixes, prefix)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixLess(prefixes[i], prefixes[j]) })
	p.dirty = map[netip.Prefix]bool{}

	for _, prefix := range prefixes {
		attrs, announce := p.exportDecision(prefix)
		key := ""
		if announce {
			key = attrsKey(attrs)
		}
		prev, had := p.adjOut[prefix]
		switch {
		case announce && (!had || prev != key):
			g, ok := groups[key]
			if !ok {
				g = &advGroup{attrs: attrs}
				groups[key] = g
			}
			g.prefixes = append(g.prefixes, prefix)
			p.adjOut[prefix] = key
		case !announce && had:
			withdraw = append(withdraw, prefix)
			delete(p.adjOut, prefix)
		}
	}

	if msgs, err := EncodeUpdates(Update{Withdrawn: withdraw}); err == nil {
		for _, m := range msgs {
			p.transmit(m)
		}
	}
	// Deterministic group order.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		attrs := g.attrs
		// An attribute set too large to leave room for NLRI is dropped rather
		// than advertised truncated; the codec reports it as an error.
		msgs, err := EncodeUpdates(Update{Attrs: &attrs, NLRI: g.prefixes})
		if err != nil {
			continue
		}
		for _, m := range msgs {
			p.transmit(m)
		}
	}
}

type advGroup struct {
	attrs    PathAttrs
	prefixes []netip.Prefix
}

func attrsKey(a PathAttrs) string {
	return string(encodeAttrs(&a))
}

// exportDecision decides whether (and with what attributes) the current best
// path for prefix is advertised to this peer.
func (p *Peer) exportDecision(prefix netip.Prefix) (PathAttrs, bool) {
	best, ok := p.spk.best[prefix]
	if !ok {
		return PathAttrs{}, false
	}
	// Never reflect a route back to the peer it was learned from.
	if !best.Local && best.PeerAddr == p.cfg.Addr {
		return PathAttrs{}, false
	}
	ibgpPeer := p.IBGP()
	if best.FromIBGP && ibgpPeer {
		// iBGP split horizon, relaxed by route reflection: reflect routes
		// from clients to everyone, and routes from non-clients to clients.
		if !best.FromRRClient && !p.cfg.RRClient {
			return PathAttrs{}, false
		}
	}
	attrs := best.Attrs
	attrs.ASPath = append([]uint32{}, best.Attrs.ASPath...)
	attrs.Communities = append([]policy.Community{}, best.Attrs.Communities...)

	if ibgpPeer {
		if !attrs.HasLocal {
			attrs.LocalPref, attrs.HasLocal = 100, true
		}
		if best.Local || p.cfg.NextHopSelf || !attrs.NextHop.IsValid() {
			attrs.NextHop = p.cfg.LocalAddr
		}
	} else {
		attrs.ASPath = append([]uint32{p.spk.asn}, attrs.ASPath...)
		attrs.HasLocal = false
		attrs.LocalPref = 0
		attrs.NextHop = p.cfg.LocalAddr
		// eBGP loop suppression on export: do not announce to a peer whose
		// AS is already in the path.
		for _, as := range attrs.ASPath[1:] {
			if as == p.cfg.RemoteAS {
				return PathAttrs{}, false
			}
		}
	}
	if !p.cfg.SendCommunity {
		attrs.Communities = nil
	}
	if p.cfg.ExportPolicy != nil {
		subj := policy.Subject{
			Prefix:      prefix,
			NextHop:     attrs.NextHop,
			LocalPref:   attrs.LocalPref,
			MED:         attrs.MED,
			Communities: attrs.Communities,
			ASPath:      attrs.ASPath,
		}
		if p.cfg.ExportPolicy.Apply(&subj, p.cfg.Env) == policy.Deny {
			return PathAttrs{}, false
		}
		attrs.NextHop = subj.NextHop
		if ibgpPeer {
			attrs.LocalPref, attrs.HasLocal = subj.LocalPref, true
		}
		attrs.MED = subj.MED
		attrs.Communities = subj.Communities
		attrs.ASPath = subj.ASPath
	}
	return attrs, true
}

// ReevaluateNextHops reruns the decision process for every known prefix,
// typically after the IGP changed next-hop reachability.
func (s *Speaker) ReevaluateNextHops() {
	seen := map[netip.Prefix]bool{}
	for _, in := range s.adjIn {
		for prefix := range in {
			seen[prefix] = true
		}
	}
	for prefix := range s.local {
		seen[prefix] = true
	}
	prefixes := make([]netip.Prefix, 0, len(seen))
	for prefix := range seen {
		prefixes = append(prefixes, prefix)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixLess(prefixes[i], prefixes[j]) })
	for _, prefix := range prefixes {
		s.decide(prefix)
	}
}
