package aft

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"testing/quick"
)

// The reference implementations below are the per-prefix code this package
// shipped before the next-hop group became the unit of work: formatted
// string keys in the Builder and a Fingerprint that re-resolves each entry's
// group, by linear scan, into one whole-table buffer. They share nothing with
// the code under test but the AFT types, and pin what must not move:
// marshalled bytes (index and id numbering included) and every fingerprint
// value, which snapshots, the sweep journal and the replica gate have on disk.

func refGroupHops(a *AFT, id uint64) []NextHop {
	for _, g := range a.NextHopGroups {
		if g.ID != id {
			continue
		}
		out := make([]NextHop, 0, len(g.NextHops))
		for _, idx := range g.NextHops {
			for _, nh := range a.NextHops {
				if nh.Index == idx {
					out = append(out, nh)
					break
				}
			}
		}
		return out
	}
	return nil
}

func refNHKey(nh NextHop) string {
	return fmt.Sprintf("%s|%s|%v|%v|%v", nh.IPAddress, nh.Interface, nh.PushedLabels, nh.Drop, nh.Receive)
}

func refFingerprint(a *AFT) string {
	var b []byte
	for _, e := range a.IPv4Entries {
		b = append(b, e.Prefix...)
		for _, nh := range refGroupHops(a, e.NextHopGroup) {
			b = append(b, '|')
			b = append(b, refNHKey(nh)...)
		}
		b = append(b, '\n')
	}
	for _, e := range a.LabelEntries {
		b = append(b, fmt.Sprintf("L%d", e.Label)...)
		for _, nh := range refGroupHops(a, e.NextHopGroup) {
			b = append(b, '|')
			b = append(b, refNHKey(nh)...)
		}
		b = append(b, '\n')
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return fmt.Sprintf("%x", h)
}

type refBuilder struct {
	aft      *AFT
	nhIndex  map[string]uint64
	nhgIndex map[string]uint64
}

func newRefBuilder(device string) *refBuilder {
	return &refBuilder{aft: &AFT{Device: device}, nhIndex: map[string]uint64{}, nhgIndex: map[string]uint64{}}
}

func (b *refBuilder) AddNextHop(nh NextHop) uint64 {
	key := refNHKey(nh)
	if idx, ok := b.nhIndex[key]; ok {
		return idx
	}
	nh.Index = uint64(len(b.aft.NextHops) + 1)
	b.aft.NextHops = append(b.aft.NextHops, nh)
	b.nhIndex[key] = nh.Index
	return nh.Index
}

func (b *refBuilder) AddGroup(nhIdx []uint64) uint64 {
	sorted := append([]uint64{}, nhIdx...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	key := fmt.Sprint(sorted)
	if id, ok := b.nhgIndex[key]; ok {
		return id
	}
	id := uint64(len(b.aft.NextHopGroups) + 1)
	b.aft.NextHopGroups = append(b.aft.NextHopGroups, NextHopGroup{ID: id, NextHops: sorted})
	b.nhgIndex[key] = id
	return id
}

func (b *refBuilder) AddIPv4(prefix netip.Prefix, nhg uint64, origin string, metric uint32) {
	b.aft.IPv4Entries = append(b.aft.IPv4Entries, IPv4Entry{Prefix: prefix.String(), NextHopGroup: nhg, Origin: origin, Metric: metric})
}

func (b *refBuilder) AddLabel(label uint32, nhg uint64, pop bool) {
	b.aft.LabelEntries = append(b.aft.LabelEntries, LabelEntry{Label: label, NextHopGroup: nhg, Pop: pop})
}

func (b *refBuilder) Build() *AFT {
	sort.Slice(b.aft.IPv4Entries, func(i, j int) bool { return b.aft.IPv4Entries[i].Prefix < b.aft.IPv4Entries[j].Prefix })
	sort.Slice(b.aft.LabelEntries, func(i, j int) bool { return b.aft.LabelEntries[i].Label < b.aft.LabelEntries[j].Label })
	return b.aft
}

// tableBuilder is what the random driver needs of either builder.
type tableBuilder interface {
	AddNextHop(NextHop) uint64
	AddGroup([]uint64) uint64
	AddIPv4(netip.Prefix, uint64, string, uint32)
	AddLabel(uint32, uint64, bool)
	Build() *AFT
}

// randomHop draws from a pool small enough that hops and groups recur, and
// adversarial where a string key could blur two hops: label stacks [1 2] /
// [12] / [1] [2], empty against absent fields, drop and receive.
func randomHop(r *rand.Rand) NextHop {
	switch r.Intn(8) {
	case 0:
		return NextHop{Drop: true}
	case 1:
		return NextHop{Receive: true}
	}
	nh := NextHop{
		IPAddress: []string{"10.0.0.1", "10.0.0.2", "10.0.1.1", ""}[r.Intn(4)],
		Interface: []string{"Ethernet1", "Ethernet2", "ge-0/0/1", ""}[r.Intn(4)],
	}
	nh.PushedLabels = [][]uint32{nil, nil, nil, {}, {1, 2}, {12}, {1}, {2}, {2, 1}, {100000, 3, 4}}[r.Intn(10)]
	return nh
}

// driveBuilder replays one seeded random construction — ECMP sets with
// repeats and permutations, prefixes that share groups, MPLS entries —
// against b.
func driveBuilder(seed int64, b tableBuilder) *AFT {
	r := rand.New(rand.NewSource(seed))
	var groups []uint64
	for n := 1 + r.Intn(12); n > 0; n-- {
		idx := make([]uint64, 1+r.Intn(4))
		for i := range idx {
			idx[i] = b.AddNextHop(randomHop(r))
		}
		groups = append(groups, b.AddGroup(idx))
	}
	for n := r.Intn(60); n > 0; n-- {
		var a [4]byte
		r.Read(a[:])
		p := netip.PrefixFrom(netip.AddrFrom4(a), r.Intn(33)).Masked()
		b.AddIPv4(p, groups[r.Intn(len(groups))], []string{"isis", "ebgp", "connected", ""}[r.Intn(4)], uint32(r.Intn(50)))
	}
	for n := r.Intn(6); n > 0; n-- {
		b.AddLabel(uint32(16+r.Intn(1000)), groups[r.Intn(len(groups))], r.Intn(2) == 0)
	}
	return b.Build()
}

// Property: the Builder numbers, orders and marshals exactly as the
// reference does, and Fingerprint — on the built table, on its decoded JSON
// and on an unsealed literal of the same content — equals the reference.
func TestQuickBuilderAndFingerprintMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		got, want := driveBuilder(seed, NewBuilder("r1")), driveBuilder(seed, newRefBuilder("r1"))
		gotJSON, err := got.Marshal()
		if err != nil {
			return false
		}
		wantJSON, err := want.Marshal()
		if err != nil {
			return false
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Logf("seed %d:\n got %s\nwant %s", seed, gotJSON, wantJSON)
			return false
		}
		fp := refFingerprint(want)
		decoded, err := Unmarshal(gotJSON)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if got.Fingerprint() != fp || decoded.Fingerprint() != fp || want.Fingerprint() != fp {
			t.Logf("seed %d: fingerprints %s %s %s, reference %s", seed, got.Fingerprint(), decoded.Fingerprint(), want.Fingerprint(), fp)
			return false
		}
		return got.Equal(want) && got.Equal(decoded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

// Property: on hand-assembled tables that Validate would reject — duplicate
// ids and indices, dangling members, entries pointing at no group — the
// streamed Fingerprint still resolves as the reference's linear scans do
// (first id wins, dangling members skipped) and equals it.
func TestQuickFingerprintMatchesReferenceOnLiterals(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := &AFT{Device: "lit"}
		for n := r.Intn(6); n > 0; n-- {
			nh := randomHop(r)
			nh.Index = uint64(1 + r.Intn(5))
			a.NextHops = append(a.NextHops, nh)
		}
		for n := r.Intn(6); n > 0; n-- {
			g := NextHopGroup{ID: uint64(1 + r.Intn(5))}
			for m := r.Intn(4); m > 0; m-- {
				g.NextHops = append(g.NextHops, uint64(1+r.Intn(7)))
			}
			a.NextHopGroups = append(a.NextHopGroups, g)
		}
		for n := r.Intn(20); n > 0; n-- {
			a.IPv4Entries = append(a.IPv4Entries, IPv4Entry{Prefix: fmt.Sprintf("10.%d.0.0/16", r.Intn(256)), NextHopGroup: uint64(1 + r.Intn(7))})
		}
		for n := r.Intn(4); n > 0; n-- {
			a.LabelEntries = append(a.LabelEntries, LabelEntry{Label: r.Uint32(), NextHopGroup: uint64(1 + r.Intn(7))})
		}
		return a.Fingerprint() == refFingerprint(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}
