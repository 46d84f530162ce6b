// Package aft models the Abstract Forwarding Table in the shape of the
// OpenConfig AFT data model (network-instance afts): IPv4 unicast entries
// point at next-hop groups, which reference next hops; MPLS label entries
// share the same next-hop-group indirection. The verification pipeline
// consumes only this representation, pulled over the gNMI-like management
// interface — the vendor-agnostic extraction boundary from the paper.
package aft

import (
	"encoding/binary"
	"encoding/json"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"

	"mfv/internal/diag"
	"mfv/internal/intern"
)

// NextHop is one leaf next hop.
type NextHop struct {
	// Index is the device-scoped next-hop id.
	Index uint64 `json:"index"`
	// IPAddress is the adjacent hop address; empty for drop/receive hops.
	IPAddress string `json:"ip-address,omitempty"`
	// Interface is the egress interface.
	Interface string `json:"interface,omitempty"`
	// PushedLabels is the MPLS label stack pushed on egress, outermost
	// first.
	PushedLabels []uint32 `json:"pushed-mpls-label-stack,omitempty"`
	// Drop marks a discard next hop.
	Drop bool `json:"drop,omitempty"`
	// Receive marks delivery to the local control plane (loopbacks and
	// local interface addresses).
	Receive bool `json:"receive,omitempty"`
}

// NextHopGroup is an ECMP group.
type NextHopGroup struct {
	ID       uint64   `json:"id"`
	NextHops []uint64 `json:"next-hops"`
}

// IPv4Entry maps a prefix to a next-hop group.
type IPv4Entry struct {
	Prefix       string `json:"prefix"`
	NextHopGroup uint64 `json:"next-hop-group"`
	// Origin records the installing protocol for inspection ("isis",
	// "ebgp", "connected", …).
	Origin string `json:"origin-protocol,omitempty"`
	// Metric is the winning route's metric, for inspection only.
	Metric uint32 `json:"metric,omitempty"`
}

// LabelEntry maps an incoming MPLS label to a next-hop group.
type LabelEntry struct {
	Label        uint32 `json:"label"`
	NextHopGroup uint64 `json:"next-hop-group"`
	// Pop marks a penultimate/tail pop entry.
	Pop bool `json:"pop,omitempty"`
}

// AFT is one device's abstract forwarding table.
//
// A table returned by Builder.Build or Unmarshal is sealed: immutable from
// then on, which lets snapshots, lanes and the verifier share it and lets
// Fingerprint cache its result on it. To change one, build the changed
// table. A hand-assembled literal carries no seal, may be edited freely, and
// is hashed on every Fingerprint call.
type AFT struct {
	// Device is the hostname the table was extracted from.
	Device        string         `json:"device"`
	IPv4Entries   []IPv4Entry    `json:"ipv4-unicast"`
	LabelEntries  []LabelEntry   `json:"mpls,omitempty"`
	NextHopGroups []NextHopGroup `json:"next-hop-groups"`
	NextHops      []NextHop      `json:"next-hops"`

	// seal is non-nil on sealed tables; a pointer, so copying an AFT value
	// copies no lock.
	seal *seal
}

// seal caches a sealed table's fingerprint: concurrent sweep lanes and the
// parallel export pool hash one shared base table.
type seal struct {
	once sync.Once
	fp   string
}

// Builder incrementally assembles an AFT, deduplicating next hops and
// groups. Indices and group ids are handed out in first-seen order.
type Builder struct {
	aft      *AFT
	nhIndex  map[string]uint64 // NextHop.AppendKey bytes
	nhgIndex map[string]uint64 // sorted member indices, eight bytes each
	key      []byte            // scratch: either key, or a prefix's text
	members  []uint64
}

// NewBuilder starts an AFT for the named device.
func NewBuilder(device string) *Builder {
	return &Builder{
		aft:      &AFT{Device: device},
		nhIndex:  map[string]uint64{},
		nhgIndex: map[string]uint64{},
	}
}

// AddNextHop interns a next hop and returns its index.
func (b *Builder) AddNextHop(nh NextHop) uint64 {
	b.key = nh.AppendKey(b.key[:0])
	if idx, ok := b.nhIndex[string(b.key)]; ok {
		return idx
	}
	// The same adjacent-hop address and interface name recur across every
	// router on a segment; share one canonical copy across all 10k AFTs.
	nh.IPAddress = intern.String(nh.IPAddress)
	nh.Interface = intern.String(nh.Interface)
	nh.Index = uint64(len(b.aft.NextHops) + 1)
	b.aft.NextHops = append(b.aft.NextHops, nh)
	b.nhIndex[string(b.key)] = nh.Index
	return nh.Index
}

// AddGroup interns an ECMP group over next-hop indices and returns its id.
func (b *Builder) AddGroup(nhIdx []uint64) uint64 {
	b.members = append(b.members[:0], nhIdx...)
	slices.Sort(b.members)
	b.key = b.key[:0]
	for _, idx := range b.members {
		b.key = binary.BigEndian.AppendUint64(b.key, idx)
	}
	if id, ok := b.nhgIndex[string(b.key)]; ok {
		return id
	}
	id := uint64(len(b.aft.NextHopGroups) + 1)
	b.aft.NextHopGroups = append(b.aft.NextHopGroups, NextHopGroup{ID: id, NextHops: slices.Clone(b.members)})
	b.nhgIndex[string(b.key)] = id
	return id
}

// AddIPv4 appends an IPv4 entry.
func (b *Builder) AddIPv4(prefix netip.Prefix, nhg uint64, origin string, metric uint32) {
	b.key = prefix.AppendTo(b.key[:0])
	b.aft.IPv4Entries = append(b.aft.IPv4Entries, IPv4Entry{
		Prefix:       intern.Bytes(b.key),
		NextHopGroup: nhg,
		Origin:       intern.String(origin),
		Metric:       metric,
	})
}

// AddLabel appends an MPLS entry.
func (b *Builder) AddLabel(label uint32, nhg uint64, pop bool) {
	b.aft.LabelEntries = append(b.aft.LabelEntries, LabelEntry{Label: label, NextHopGroup: nhg, Pop: pop})
}

// Build finalizes the AFT with entries in canonical order and seals it (see
// AFT): the Builder must not be used afterwards. Slices are copied down to
// exact capacity: built AFTs are retained for the life of a verification run
// (10k of them at the scale tier), and append's growth slack would otherwise
// pin up to 2x the needed memory.
func (b *Builder) Build() *AFT {
	sort.Slice(b.aft.IPv4Entries, func(i, j int) bool {
		return b.aft.IPv4Entries[i].Prefix < b.aft.IPv4Entries[j].Prefix
	})
	sort.Slice(b.aft.LabelEntries, func(i, j int) bool {
		return b.aft.LabelEntries[i].Label < b.aft.LabelEntries[j].Label
	})
	b.aft.IPv4Entries = trim(b.aft.IPv4Entries)
	b.aft.LabelEntries = trim(b.aft.LabelEntries)
	b.aft.NextHopGroups = trim(b.aft.NextHopGroups)
	b.aft.NextHops = trim(b.aft.NextHops)
	b.aft.seal = &seal{}
	return b.aft
}

// trim returns s backed by an exact-capacity array, freeing append slack.
func trim[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Sealed reports whether the table came from Build or Unmarshal and so can
// never change (see AFT).
func (a *AFT) Sealed() bool { return a.seal != nil }

// Marshal encodes the AFT as JSON (the gNMI payload format).
func (a *AFT) Marshal() ([]byte, error) { return json.Marshal(a) }

// Unmarshal decodes an AFT from JSON and seals it (see AFT). Failures —
// malformed JSON or an AFT that fails Validate — come back as *diag.Error so
// ingestion layers can attribute them to a device and contain the blast
// radius.
func Unmarshal(data []byte) (*AFT, error) {
	var a AFT
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, diag.Wrap(err, diag.SevError, "aft", "")
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	// Re-canonicalize shared strings: every device's gNMI payload spells the
	// same prefixes and adjacent addresses, and json.Unmarshal allocated a
	// private copy of each.
	for i := range a.IPv4Entries {
		a.IPv4Entries[i].Prefix = intern.String(a.IPv4Entries[i].Prefix)
		a.IPv4Entries[i].Origin = intern.String(a.IPv4Entries[i].Origin)
	}
	for i := range a.NextHops {
		a.NextHops[i].IPAddress = intern.String(a.NextHops[i].IPAddress)
		a.NextHops[i].Interface = intern.String(a.NextHops[i].Interface)
	}
	a.seal = &seal{}
	return &a, nil
}

// Validate checks referential integrity — every entry references an existing
// group, every group references existing next hops — and that every prefix
// and next-hop address is well-formed IPv4. The address checks are the
// ingestion screen for the verification tries, which only model IPv4: a
// hostile or corrupted AFT is rejected here with a structured error instead
// of reaching a forwarding structure. Errors are *diag.Error with source
// "aft" and the device name filled in.
func (a *AFT) Validate() error {
	verr := func(format string, args ...any) error {
		return diag.Newf(diag.SevError, "aft", a.Device, format, args...)
	}
	nhs := map[uint64]bool{}
	for _, nh := range a.NextHops {
		if nhs[nh.Index] {
			return verr("duplicate next-hop index %d", nh.Index)
		}
		nhs[nh.Index] = true
		if nh.IPAddress != "" {
			ip, err := netip.ParseAddr(nh.IPAddress)
			if err != nil {
				return verr("next hop %d: bad address %q", nh.Index, nh.IPAddress)
			}
			if !ip.Is4() && !ip.Is4In6() {
				return verr("next hop %d: non-IPv4 address %q", nh.Index, nh.IPAddress)
			}
		}
	}
	groups := map[uint64]bool{}
	for _, g := range a.NextHopGroups {
		if groups[g.ID] {
			return verr("duplicate group id %d", g.ID)
		}
		groups[g.ID] = true
		if len(g.NextHops) == 0 {
			return verr("group %d has no next hops", g.ID)
		}
		for _, idx := range g.NextHops {
			if !nhs[idx] {
				return verr("group %d references missing next hop %d", g.ID, idx)
			}
		}
	}
	for _, e := range a.IPv4Entries {
		p, err := netip.ParsePrefix(e.Prefix)
		if err != nil {
			return verr("bad prefix %q", e.Prefix)
		}
		if !p.Addr().Is4() && !p.Addr().Is4In6() {
			return verr("non-IPv4 prefix %q in ipv4-unicast", e.Prefix)
		}
		if !groups[e.NextHopGroup] {
			return verr("entry %s references missing group %d", e.Prefix, e.NextHopGroup)
		}
	}
	for _, e := range a.LabelEntries {
		if !groups[e.NextHopGroup] {
			return verr("label %d references missing group %d", e.Label, e.NextHopGroup)
		}
	}
	return nil
}

// GroupHops resolves one group id to its next hops; nil when there is no
// such group. Walking a table's entries, call ResolveGroups once instead.
func (a *AFT) GroupHops(id uint64) []NextHop { return a.ResolveGroups()[id] }

// ResolveGroups resolves every group of the table to its next hops in one
// pass, so that a consumer walking the entries looks each entry's group up
// instead of re-resolving it per entry. On tables Validate would reject, the
// first group or next hop carrying an id wins and dangling member indices
// are skipped.
func (a *AFT) ResolveGroups() map[uint64][]NextHop {
	byIndex := make(map[uint64]*NextHop, len(a.NextHops))
	for i := range a.NextHops {
		if _, dup := byIndex[a.NextHops[i].Index]; !dup {
			byIndex[a.NextHops[i].Index] = &a.NextHops[i]
		}
	}
	out := make(map[uint64][]NextHop, len(a.NextHopGroups))
	for _, g := range a.NextHopGroups {
		if _, dup := out[g.ID]; dup {
			continue
		}
		hops := make([]NextHop, 0, len(g.NextHops))
		for _, idx := range g.NextHops {
			if nh, ok := byIndex[idx]; ok {
				hops = append(hops, *nh)
			}
		}
		out[g.ID] = hops
	}
	return out
}

// Fingerprint returns a deterministic digest of forwarding-relevant state:
// FNV-1a 64 over each entry's prefix (or "L<label>") followed by its group's
// resolved next hops. It is a grouping key and an on-disk identity (snapshot
// dataplane hashes, the sweep journal's input hash, the replica gate), not a
// proof of equality — Equal is. Sealed tables compute it once.
func (a *AFT) Fingerprint() string {
	if a.seal == nil {
		return a.fingerprint()
	}
	a.seal.once.Do(func() { a.seal.fp = a.fingerprint() })
	return a.seal.fp
}

func (a *AFT) fingerprint() string {
	// Each group's share of the stream is rendered once, not once per entry
	// pointing at it.
	groups := a.ResolveGroups()
	keys := make(map[uint64]string, len(groups))
	var buf []byte
	for id, hops := range groups {
		buf = buf[:0]
		for i := range hops {
			buf = hops[i].AppendKey(append(buf, '|'))
		}
		keys[id] = string(buf)
	}
	h := uint64(14695981039346656037)
	for _, e := range a.IPv4Entries {
		h = fnv1a(fnv1a(fnv1a(h, e.Prefix), keys[e.NextHopGroup]), "\n")
	}
	for _, e := range a.LabelEntries {
		buf = strconv.AppendUint(append(buf[:0], 'L'), uint64(e.Label), 10)
		h = fnv1a(fnv1a(fnv1a(h, string(buf)), keys[e.NextHopGroup]), "\n")
	}
	return strconv.FormatUint(h, 16)
}

// fnv1a continues a 64-bit FNV-1a hash over s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// AppendKey appends the hop's forwarding identity — every field but Index —
// as the fingerprint stream spells it: "ip|interface|[l1 l2]|drop|receive".
func (nh *NextHop) AppendKey(b []byte) []byte {
	b = append(b, nh.IPAddress...)
	b = append(b, '|')
	b = append(b, nh.Interface...)
	b = append(b, '|', '[')
	for i, l := range nh.PushedLabels {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(l), 10)
	}
	b = append(b, ']', '|')
	b = strconv.AppendBool(b, nh.Drop)
	b = append(b, '|')
	return strconv.AppendBool(b, nh.Receive)
}

// Equal reports whether two AFTs forward identically: the same prefixes and
// labels in the same order, each pointing at the same resolved next hops.
// The comparison is structural — it does not rest on Fingerprint's 64 bits —
// and ignores what forwarding ignores (origin, metric, index numbering).
func (a *AFT) Equal(o *AFT) bool {
	if a == nil || o == nil || a == o {
		return a == o
	}
	if len(a.IPv4Entries) != len(o.IPv4Entries) || len(a.LabelEntries) != len(o.LabelEntries) {
		return false
	}
	ga, gb := a.ResolveGroups(), o.ResolveGroups()
	for i, e := range a.IPv4Entries {
		f := o.IPv4Entries[i]
		if e.Prefix != f.Prefix || !slices.EqualFunc(ga[e.NextHopGroup], gb[f.NextHopGroup], sameHop) {
			return false
		}
	}
	for i, e := range a.LabelEntries {
		f := o.LabelEntries[i]
		if e.Label != f.Label || e.Pop != f.Pop || !slices.EqualFunc(ga[e.NextHopGroup], gb[f.NextHopGroup], sameHop) {
			return false
		}
	}
	return true
}

func sameHop(x, y NextHop) bool {
	return x.IPAddress == y.IPAddress && x.Interface == y.Interface && x.Drop == y.Drop &&
		x.Receive == y.Receive && slices.Equal(x.PushedLabels, y.PushedLabels)
}
