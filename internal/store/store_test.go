package store_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mfv/internal/aft"
	"mfv/internal/diag"
	"mfv/internal/store"
	"mfv/internal/testnet"
)

// buildSnapshot assembles a small but fully valid snapshot (Fig. 2 topology,
// two hand-built AFTs) without booting an emulation.
func buildSnapshot(t testing.TB) *store.Snapshot {
	t.Helper()
	topoJSON, err := testnet.Fig2().Marshal()
	if err != nil {
		t.Fatalf("marshal topology: %v", err)
	}
	afts := map[string]*aft.AFT{
		"r1": buildAFT(t, "r1", "10.0.0.0/24"),
		"r2": buildAFT(t, "r2", "10.0.1.0/24"),
	}
	s, err := store.New(topoJSON, afts, 42, 3*time.Second, 40*time.Second)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return s
}

func buildAFT(t testing.TB, device, prefix string) *aft.AFT {
	t.Helper()
	b := aft.NewBuilder(device)
	nh := b.AddNextHop(aft.NextHop{IPAddress: "192.0.2.1", Interface: "Ethernet1"})
	g := b.AddGroup([]uint64{nh})
	b.AddIPv4(netip.MustParsePrefix(prefix), g, "BGP", 100)
	return b.Build()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := buildSnapshot(t)
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := store.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seed != 42 || got.ConvergedAt != 40*time.Second || got.StartupAt != 3*time.Second {
		t.Fatalf("scalars did not round-trip: %+v", got)
	}
	if got.TopologyHash != s.TopologyHash || got.DataplaneHash != s.DataplaneHash {
		t.Fatalf("hashes did not round-trip")
	}
	topo, err := got.Topology()
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	if len(topo.Nodes) == 0 {
		t.Fatalf("restored topology has no nodes")
	}
	afts, err := got.AFTs()
	if err != nil {
		t.Fatalf("afts: %v", err)
	}
	want, _ := s.AFTs()
	for name, a := range want {
		if afts[name] == nil || afts[name].Fingerprint() != a.Fingerprint() {
			t.Fatalf("AFT for %s did not round-trip", name)
		}
	}
	if store.HashAFTs(afts) != s.DataplaneHash {
		t.Fatalf("restored dataplane hash mismatch")
	}
}

// TestSnapshotDecodesStampedPayload: snapshots written before the FIB
// generation stamps were dropped carry a "stamps" object. Such a file must
// still decode and validate, with its content intact.
func TestSnapshotDecodesStampedPayload(t *testing.T) {
	s := buildSnapshot(t)
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	const headerLen = 24
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data[headerLen:], &fields); err != nil {
		t.Fatalf("payload: %v", err)
	}
	fields["stamps"] = json.RawMessage(`{"r1":{"epoch":1,"gen":7},"r2":{"epoch":1,"gen":9}}`)
	payload, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), data[:headerLen]...)
	binary.LittleEndian.PutUint64(old[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(old[20:24], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	got, err := store.Decode(append(old, payload...))
	if err != nil {
		t.Fatalf("decode stamped payload: %v", err)
	}
	if got.DataplaneHash != s.DataplaneHash || got.Seed != 42 {
		t.Fatalf("stamped payload decoded to different content: %+v", got)
	}
	if _, err := got.AFTs(); err != nil {
		t.Fatalf("afts: %v", err)
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	s := buildSnapshot(t)
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"short header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"version skew", func(b []byte) []byte { b[8] = 99; return b }, "version"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, "truncated"},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }, "checksum"},
		{"flipped crc byte", func(b []byte) []byte { b[20] ^= 0x01; return b }, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), data...)
			_, err := store.Decode(tc.mutate(buf))
			if err == nil {
				t.Fatalf("decode accepted %s input", tc.name)
			}
			var de *diag.Error
			if !errors.As(err, &de) {
				t.Fatalf("error is not a diagnostic: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSnapshotSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.mfvsnap")
	s := buildSnapshot(t)
	if err := s.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Saving over an existing snapshot must succeed (rename semantics).
	if err := s.Save(path); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	got, err := store.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.DataplaneHash != s.DataplaneHash {
		t.Fatalf("loaded snapshot differs")
	}
	// No temp files may survive a successful save.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "net.mfvsnap" {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory not clean after save: %v", names)
	}
	// A corrupted file on disk must fail with a diagnostic naming the path.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = store.Load(path)
	if err == nil {
		t.Fatalf("load accepted corrupt file")
	}
	if !strings.Contains(err.Error(), "net.mfvsnap") {
		t.Fatalf("load error does not name the file: %v", err)
	}
}
