package aft

import (
	"net/netip"
	"strings"
	"sync"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func sampleAFT() *AFT { return sampleAFTWith(2, "ebgp", 0) }

// sampleAFTWith builds the sample table with 10.0.0.0/8 — IPv4Entries[0] —
// pointing at the given group (1 = nh1, 2 = ECMP nh1+nh2, 3 = drop) with the
// given metadata. Built tables are sealed, so variants come from the Builder,
// never from editing a built table.
func sampleAFTWith(group uint64, origin string, metric uint32) *AFT {
	b := NewBuilder("r1")
	nh1 := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
	nh2 := b.AddNextHop(NextHop{IPAddress: "10.0.1.1", Interface: "Ethernet2"})
	drop := b.AddNextHop(NextHop{Drop: true})
	g1 := b.AddGroup([]uint64{nh1})
	b.AddGroup([]uint64{nh1, nh2})
	gd := b.AddGroup([]uint64{drop})
	b.AddIPv4(pfx("192.0.2.0/24"), g1, "isis", 20)
	b.AddIPv4(pfx("10.0.0.0/8"), group, origin, metric)
	b.AddIPv4(pfx("203.0.113.0/24"), gd, "static", 0)
	b.AddLabel(100, g1, false)
	return b.Build()
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder("r1")
	nh1 := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
	nh1again := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
	if nh1 != nh1again {
		t.Error("identical next hops not deduplicated")
	}
	nh2 := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet2"})
	if nh1 == nh2 {
		t.Error("distinct next hops merged")
	}
	g := b.AddGroup([]uint64{nh1, nh2})
	gReordered := b.AddGroup([]uint64{nh2, nh1})
	if g != gReordered {
		t.Error("group dedup not order-insensitive")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a := sampleAFT()
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(got) {
		t.Error("round trip changed forwarding semantics")
	}
	if got.Device != "r1" || len(got.IPv4Entries) != 3 || len(got.LabelEntries) != 1 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*AFT)
		want   string
	}{
		{"dup nh index", func(a *AFT) { a.NextHops = append(a.NextHops, NextHop{Index: 1}) }, "duplicate next-hop"},
		{"dup group", func(a *AFT) { a.NextHopGroups = append(a.NextHopGroups, NextHopGroup{ID: 1, NextHops: []uint64{1}}) }, "duplicate group"},
		{"empty group", func(a *AFT) { a.NextHopGroups = append(a.NextHopGroups, NextHopGroup{ID: 99}) }, "no next hops"},
		{"missing nh", func(a *AFT) { a.NextHopGroups[0].NextHops = []uint64{42} }, "missing next hop"},
		{"bad prefix", func(a *AFT) { a.IPv4Entries[0].Prefix = "zoo" }, "bad prefix"},
		{"missing group", func(a *AFT) { a.IPv4Entries[0].NextHopGroup = 42 }, "missing group"},
		{"label missing group", func(a *AFT) { a.LabelEntries[0].NextHopGroup = 42 }, "missing group"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a := sampleAFT()
			tc.mutate(a)
			err := a.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	if _, err := Unmarshal([]byte(`{`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Unmarshal([]byte(`{"device":"r1","ipv4-unicast":[{"prefix":"10.0.0.0/8","next-hop-group":5}],"next-hop-groups":[],"next-hops":[]}`)); err == nil {
		t.Error("dangling group reference accepted")
	}
}

func TestFingerprintStability(t *testing.T) {
	a, b := sampleAFT(), sampleAFT()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical AFTs have different fingerprints")
	}
	// A forwarding-relevant change must alter the fingerprint.
	b = sampleAFTWith(3, "ebgp", 0)
	if b.IPv4Entries[0].NextHopGroup != 3 || a.IPv4Entries[0].Prefix != b.IPv4Entries[0].Prefix {
		t.Fatalf("variant does not differ in IPv4Entries[0]'s group alone: %+v", b.IPv4Entries[0])
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("changed forwarding, same fingerprint")
	}
}

func TestFingerprintIgnoresMetadata(t *testing.T) {
	a, b := sampleAFT(), sampleAFTWith(2, "other", 999)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("metadata change altered fingerprint")
	}
	if !a.Equal(b) {
		t.Error("metadata change broke Equal")
	}
}

// TestSealedTableContract: tables from Build and Unmarshal cache their
// fingerprint; a hand-assembled literal is hashed on every call and so
// follows edits.
func TestSealedTableContract(t *testing.T) {
	built := sampleAFT()
	data, err := built.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if built.seal == nil || decoded.seal == nil {
		t.Fatal("Build/Unmarshal returned an unsealed table")
	}
	lit := &AFT{
		Device:        built.Device,
		IPv4Entries:   append([]IPv4Entry(nil), built.IPv4Entries...),
		LabelEntries:  built.LabelEntries,
		NextHopGroups: built.NextHopGroups,
		NextHops:      built.NextHops,
	}
	want := built.Fingerprint()
	if decoded.Fingerprint() != want || lit.Fingerprint() != want {
		t.Fatal("sealed, decoded and literal tables of equal content hash differently")
	}
	lit.IPv4Entries[0].NextHopGroup = 3
	if lit.Fingerprint() == want {
		t.Error("edited literal kept its old fingerprint")
	}
	if lit.Fingerprint() != sampleAFTWith(3, "ebgp", 0).Fingerprint() {
		t.Error("edited literal and the table built that way hash differently")
	}
}

// TestFingerprintConcurrent: lanes hash one shared base table at once; run
// under -race.
func TestFingerprintConcurrent(t *testing.T) {
	a := sampleAFT()
	want := refFingerprint(a)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := a.Fingerprint(); got != want {
				t.Errorf("Fingerprint = %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestFingerprintCachedAllocs: the second Fingerprint of a sealed table is a
// cache read.
func TestFingerprintCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := sampleAFT()
	a.Fingerprint()
	if n := testing.AllocsPerRun(100, func() { a.Fingerprint() }); n != 0 {
		t.Errorf("cached Fingerprint allocates %v per call", n)
	}
}

// TestEqualIsStructural: Equal compares contents, not fingerprints — two
// tables whose 64-bit fingerprints collide (forced here through the cache)
// are still told apart, and renumbered but identical forwarding is equal.
func TestEqualIsStructural(t *testing.T) {
	a, b := sampleAFT(), sampleAFTWith(3, "ebgp", 0)
	b.seal.once.Do(func() { b.seal.fp = a.Fingerprint() })
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("collision not staged")
	}
	if a.Equal(b) || b.Equal(a) {
		t.Error("Equal trusted a fingerprint collision")
	}
	if !a.Equal(a) {
		t.Error("a != a")
	}

	// Same forwarding, next hops and groups numbered in another order.
	x := NewBuilder("r1")
	x1 := x.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1", PushedLabels: []uint32{1, 2}})
	x2 := x.AddNextHop(NextHop{Receive: true})
	x.AddIPv4(pfx("10.0.0.0/8"), x.AddGroup([]uint64{x1}), "isis", 1)
	x.AddIPv4(pfx("1.1.1.1/32"), x.AddGroup([]uint64{x2}), "local", 0)
	x.AddLabel(7, x.AddGroup([]uint64{x1}), false)
	y := NewBuilder("r1")
	y2 := y.AddNextHop(NextHop{Receive: true})
	y1 := y.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1", PushedLabels: []uint32{1, 2}})
	y.AddIPv4(pfx("1.1.1.1/32"), y.AddGroup([]uint64{y2}), "connected", 9)
	y.AddIPv4(pfx("10.0.0.0/8"), y.AddGroup([]uint64{y1}), "ebgp", 2)
	y.AddLabel(7, y.AddGroup([]uint64{y1}), false)
	xa, ya := x.Build(), y.Build()
	if !xa.Equal(ya) {
		t.Error("renumbered identical forwarding is unequal")
	}

	// One label in a stack, a pop flag, a missing entry: all unequal.
	for name, mutate := range map[string]func(b *Builder, nh uint64){
		"label stack": func(b *Builder, _ uint64) {
			nh := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1", PushedLabels: []uint32{12}})
			b.AddIPv4(pfx("10.0.0.0/8"), b.AddGroup([]uint64{nh}), "isis", 1)
			b.AddLabel(7, b.AddGroup([]uint64{nh}), false)
		},
		"pop": func(b *Builder, nh uint64) {
			b.AddIPv4(pfx("10.0.0.0/8"), b.AddGroup([]uint64{nh}), "isis", 1)
			b.AddLabel(7, b.AddGroup([]uint64{nh}), true)
		},
		"entry count": func(b *Builder, nh uint64) {
			b.AddIPv4(pfx("10.0.0.0/8"), b.AddGroup([]uint64{nh}), "isis", 1)
		},
	} {
		z := NewBuilder("r1")
		z1 := z.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1", PushedLabels: []uint32{1, 2}})
		z2 := z.AddNextHop(NextHop{Receive: true})
		z.AddIPv4(pfx("1.1.1.1/32"), z.AddGroup([]uint64{z2}), "local", 0)
		mutate(z, z1)
		if za := z.Build(); xa.Equal(za) || za.Equal(xa) {
			t.Errorf("%s: differing tables compare equal", name)
		}
	}
}

func TestGroupHops(t *testing.T) {
	a := sampleAFT()
	// Find the ECMP entry for 10.0.0.0/8.
	var ecmpGroup uint64
	for _, e := range a.IPv4Entries {
		if e.Prefix == "10.0.0.0/8" {
			ecmpGroup = e.NextHopGroup
		}
	}
	hops := a.GroupHops(ecmpGroup)
	if len(hops) != 2 {
		t.Fatalf("hops = %+v, want 2", hops)
	}
	if a.GroupHops(999) != nil {
		t.Error("GroupHops for missing group returned entries")
	}
}

func TestEqualNil(t *testing.T) {
	var a *AFT
	if !a.Equal(nil) {
		t.Error("nil != nil")
	}
	if a.Equal(sampleAFT()) {
		t.Error("nil == non-nil")
	}
}

func BenchmarkFingerprint(b *testing.B) {
	bld := NewBuilder("r1")
	for i := 0; i < 10000; i++ {
		nh := bld.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
		g := bld.AddGroup([]uint64{nh})
		bld.AddIPv4(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), g, "ebgp", 0)
	}
	lit := *bld.Build()
	lit.seal = nil // hash on every call
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lit.Fingerprint()
	}
}
