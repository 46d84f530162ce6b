// Package store implements the durable artifacts of the verification
// pipeline: a versioned, checksummed, atomically-written on-disk snapshot of
// a converged dataplane, and an append-only write-ahead journal of sweep
// verdicts. Together they make verification state survive process lifetimes —
// `mfv run -from-snapshot` answers queries without re-converging, and
// `mfv sweep -resume` continues a crashed or interrupted sweep without
// repeating completed candidates.
//
// Both formats are hostile-input hardened in the PR-5 style: decode never
// panics, and corruption, truncation, and version skew come back as
// internal/diag diagnostics that name what failed.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mfv/internal/aft"
	"mfv/internal/diag"
	"mfv/internal/topology"
)

// FormatVersion is the current snapshot format version. Decoding a file
// written by a different version fails with a version-mismatch diagnostic,
// never a misparse.
const FormatVersion = 1

// snapMagic brands a snapshot file. The trailing NUL keeps the magic a full
// 8 bytes so the fixed header stays word-aligned.
var snapMagic = [8]byte{'M', 'F', 'V', 'S', 'N', 'A', 'P', 0}

// headerLen is magic(8) + version(4) + payload length(8) + crc(4).
const headerLen = 8 + 4 + 8 + 4

// crcTable is the Castagnoli polynomial, the same CRC used by modern storage
// formats; it has hardware support on every platform Go targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the durable converged-state artifact: everything needed to
// rebuild the verification network (topology with embedded configs plus every
// device's AFT) and to detect drift against a live emulation (content hashes,
// the emulation seed).
type Snapshot struct {
	// CreatedUnix is the wall-clock capture time. Informational only — it is
	// excluded from every identity check so re-captures of identical state
	// still hash-compare equal on content.
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// Seed is the emulation seed the state converged under (0 when the
	// producing run had no single emulator, e.g. region-sharded captures).
	Seed int64 `json:"seed,omitempty"`
	// TopologyJSON is the marshaled topology, configs embedded, so a
	// snapshot is self-contained: restoring needs no separate -topo file.
	TopologyJSON []byte `json:"topology"`
	// TopologyHash is the SHA-256 of TopologyJSON, for cheap input-identity
	// checks against a caller-supplied topology file.
	TopologyHash string `json:"topology_hash"`
	// DataplaneHash digests every device's AFT fingerprint in name order —
	// the content identity of the converged forwarding state. The sweep uses
	// it as its baseline-drift gate.
	DataplaneHash string `json:"dataplane_hash"`
	// StartupAt / ConvergedAt preserve the producing run's virtual timings.
	StartupAt   time.Duration `json:"startup_at_ns"`
	ConvergedAt time.Duration `json:"converged_at_ns"`
	// AFTJSON holds each device's marshaled forwarding table.
	AFTJSON map[string]json.RawMessage `json:"afts"`

	topo *topology.Topology
	afts map[string]*aft.AFT
}

// HashBytes returns the hex SHA-256 of b.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// HashAFTs digests a dataplane: every device's AFT fingerprint, in device
// name order. Two AFT sets hash equal exactly when verification would see
// identical forwarding state.
func HashAFTs(afts map[string]*aft.AFT) string {
	names := make([]string, 0, len(afts))
	for name := range afts {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%s;", name, afts[name].Fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// New builds a snapshot from live state, marshaling each AFT and computing
// the identity hashes. The topology JSON must be the canonical
// topology.Marshal output (it is re-parsed on decode).
func New(topoJSON []byte, afts map[string]*aft.AFT, seed int64, startupAt, convergedAt time.Duration) (*Snapshot, error) {
	if _, err := topology.Parse(topoJSON); err != nil {
		return nil, fmt.Errorf("store: snapshot topology does not parse: %w", err)
	}
	s := &Snapshot{
		CreatedUnix:   time.Now().Unix(),
		Seed:          seed,
		TopologyJSON:  topoJSON,
		TopologyHash:  HashBytes(topoJSON),
		DataplaneHash: HashAFTs(afts),
		StartupAt:     startupAt,
		ConvergedAt:   convergedAt,
		AFTJSON:       make(map[string]json.RawMessage, len(afts)),
	}
	for name, a := range afts {
		data, err := a.Marshal()
		if err != nil {
			return nil, fmt.Errorf("store: marshaling AFT for %s: %w", name, err)
		}
		s.AFTJSON[name] = data
	}
	return s, nil
}

// Topology returns the embedded topology (parsed once, cached).
func (s *Snapshot) Topology() (*topology.Topology, error) {
	if s.topo != nil {
		return s.topo, nil
	}
	topo, err := topology.Parse(s.TopologyJSON)
	if err != nil {
		return nil, diag.Newf(diag.SevError, "store", "", "snapshot topology does not parse: %v", err)
	}
	s.topo = topo
	return topo, nil
}

// AFTs returns the embedded forwarding tables (decoded once, cached).
func (s *Snapshot) AFTs() (map[string]*aft.AFT, error) {
	if s.afts != nil {
		return s.afts, nil
	}
	out := make(map[string]*aft.AFT, len(s.AFTJSON))
	for name, raw := range s.AFTJSON {
		a, err := aft.Unmarshal(raw)
		if err != nil {
			return nil, diag.Newf(diag.SevError, "store", name, "snapshot AFT for %s does not decode: %v", name, err)
		}
		if a.Device != name {
			return nil, diag.Newf(diag.SevError, "store", name, "snapshot AFT keyed %q names device %q", name, a.Device)
		}
		out[name] = a
	}
	s.afts = out
	return out, nil
}

// Validate re-derives the identity hashes from the embedded content; a
// mismatch means the payload was assembled inconsistently (or tampered with
// in a way CRC32 happened to miss).
func (s *Snapshot) Validate() error {
	if got := HashBytes(s.TopologyJSON); got != s.TopologyHash {
		return diag.Newf(diag.SevError, "store", "", "snapshot topology hash mismatch: stored %.12s, content %.12s", s.TopologyHash, got)
	}
	if _, err := s.Topology(); err != nil {
		return err
	}
	afts, err := s.AFTs()
	if err != nil {
		return err
	}
	if got := HashAFTs(afts); got != s.DataplaneHash {
		return diag.Newf(diag.SevError, "store", "", "snapshot dataplane hash mismatch: stored %.12s, content %.12s", s.DataplaneHash, got)
	}
	return nil
}

// Encode serializes the snapshot: fixed header (magic, format version,
// payload length, CRC-32C) followed by the JSON payload.
func (s *Snapshot) Encode() ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot payload: %w", err)
	}
	out := make([]byte, headerLen, headerLen+len(payload))
	copy(out[0:8], snapMagic[:])
	binary.LittleEndian.PutUint32(out[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[20:24], crc32.Checksum(payload, crcTable))
	return append(out, payload...), nil
}

// Decode parses and fully validates an encoded snapshot. Hostile input —
// truncation, bit flips, version skew, garbage — returns an *diag.Error
// describing the failure; it never panics.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen {
		return nil, diag.Decodef("store", len(data), "snapshot truncated: %d bytes, need at least the %d-byte header", len(data), headerLen)
	}
	if !bytes.Equal(data[0:8], snapMagic[:]) {
		return nil, diag.Decodef("store", 0, "not a snapshot file (bad magic %q)", data[0:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return nil, diag.Decodef("store", 8, "snapshot format version %d unsupported (this build reads version %d)", v, FormatVersion)
	}
	payload := data[headerLen:]
	if n := binary.LittleEndian.Uint64(data[12:20]); n != uint64(len(payload)) {
		return nil, diag.Decodef("store", 12, "snapshot truncated: header promises %d payload bytes, file has %d", n, len(payload))
	}
	want := binary.LittleEndian.Uint32(data[20:24])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, diag.Decodef("store", 20, "snapshot checksum mismatch (stored %08x, content %08x): file is corrupt", want, got)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, diag.Decodef("store", headerLen, "snapshot payload does not decode: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Save writes the snapshot atomically: encode into a temp file in the target
// directory, fsync it, rename over the destination, and fsync the directory.
// A crash at any point leaves either the old file or the new one, never a
// torn write.
func (s *Snapshot) Save(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return atomicWrite(path, data)
}

// Load reads and decodes a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		var de *diag.Error
		if ok := asDiag(err, &de); ok && de.Path == "" {
			return nil, de.WithPath(path)
		}
		return nil, err
	}
	return s, nil
}

// Summary renders a one-glance description for `mfv snapshot load`.
func (s *Snapshot) Summary() string {
	created := ""
	if s.CreatedUnix != 0 {
		created = fmt.Sprintf(", captured %s", time.Unix(s.CreatedUnix, 0).UTC().Format(time.RFC3339))
	}
	return fmt.Sprintf("snapshot: %d device(s), seed %d, converged at %v (virtual)%s\n  topology  %.16s…\n  dataplane %.16s…",
		len(s.AFTJSON), s.Seed, s.ConvergedAt.Round(time.Second), created, s.TopologyHash, s.DataplaneHash)
}

// atomicWrite is the temp + fsync + rename + dir-fsync sequence shared by the
// snapshot and journal writers.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss. Best-effort:
// some filesystems reject directory fsync, and the rename itself is already
// atomic on every platform we run on.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
