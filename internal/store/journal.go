package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"mfv/internal/diag"
)

// JournalVersion is the current sweep write-ahead-log line format version.
// Version 1 journals may hold k=2 verdicts that were predicted, never
// measured, so they are refused.
const JournalVersion = 2

// SweepJournalName is the journal file a sweep keeps inside its journal
// directory.
const SweepJournalName = "sweep.wal"

// SweepJournalPath returns the journal file path for a sweep journal
// directory.
func SweepJournalPath(dir string) string {
	return filepath.Join(dir, SweepJournalName)
}

// JournalHeader is the first record of every journal: it pins the log to one
// exact sweep input. Resume refuses a journal whose header does not match the
// current invocation — silently mixing verdicts from different topologies,
// seeds, or candidate sets would corrupt the report.
type JournalHeader struct {
	Version int `json:"version"`
	// Input digests everything that determines the candidate set and each
	// candidate's verdict: topology, seed, k, kinds, brute, hold, timeout,
	// and the canonical element list.
	Input string `json:"input"`
	// Baseline is the converged dataplane hash the verdicts were measured
	// against (HashAFTs). A drifted baseline invalidates every journaled
	// verdict.
	Baseline string `json:"baseline"`
}

// JournalEntry is one durable per-candidate verdict, and the sweep's only
// per-candidate record: the engine fills it as it evaluates and verifies,
// journals it as is, and builds the report row from it. Entries are
// self-contained — resume rebuilds report rows from them without re-running
// emulation or verification.
type JournalEntry struct {
	// Index is the candidate's canonical enumeration index (k=1 candidates
	// first, then pairs), informational for humans reading the log.
	Index int `json:"i"`
	// Cand keys the entry: the candidate's canonical Describe() string.
	Cand string `json:"cand"`
	// FP is the impact fingerprint (dedup identity) of the candidate.
	FP string `json:"fp,omitempty"`
	// Rep marks entries that ran their own verification (fingerprint-dedup
	// representatives); restored Rep entries count toward Report.Verified.
	Rep bool `json:"rep,omitempty"`

	Dirty       []string `json:"dirty,omitempty"`
	ReconvNS    int64    `json:"reconv_ns,omitempty"`
	Stragglers  []string `json:"stragglers,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	Residue     int      `json:"residue,omitempty"`
	Pruned      string   `json:"pruned,omitempty"`
	Poisoned    string   `json:"poisoned,omitempty"`

	// Lost / Changed / Diffs are the verification verdict (rendered diff
	// lines, already capped for the report).
	Lost    int      `json:"lost,omitempty"`
	Changed int      `json:"changed,omitempty"`
	Diffs   []string `json:"diffs,omitempty"`
}

// Journal is an append-only CRC-per-line verdict log. Appends buffer in
// memory; Sync flushes and fsyncs — the sweep calls it at chunk barriers so
// a crash loses at most the in-flight chunk, never a torn line that poisons
// the resume parse (the parser drops a corrupt tail).
type Journal struct {
	f *os.File
	w *bufio.Writer
}

// CreateJournal starts a fresh journal at path (truncating any previous one)
// and durably writes the header.
func CreateJournal(path string, hdr JournalHeader) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	if err := j.appendJSON(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// ResumeJournal reopens an existing journal for appending and returns its
// valid entries. The header must match hdr exactly — a mismatch is a
// diagnostic, not a silent restart. A corrupt or torn tail (the crash case)
// is truncated away so appends continue from the last good line. If the file
// does not exist yet, ResumeJournal degrades to CreateJournal.
func ResumeJournal(path string, hdr JournalHeader) (*Journal, []JournalEntry, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		j, err := CreateJournal(path, hdr)
		return j, nil, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading journal: %w", err)
	}
	got, entries, validLen, err := parseJournal(data)
	if err != nil {
		var de *diag.Error
		if asDiag(err, &de) && de.Path == "" {
			return nil, nil, de.WithPath(path)
		}
		return nil, nil, err
	}
	if got.Version != hdr.Version {
		return nil, nil, diag.Newf(diag.SevError, "store", "", "journal version %d unsupported (this build writes version %d)", got.Version, hdr.Version).WithPath(path)
	}
	if got.Input != hdr.Input {
		return nil, nil, diag.Newf(diag.SevError, "store", "", "journal records a different sweep input (journal %.12s, current %.12s): topology, seed, k, kinds, or budgets changed since the interrupted run", got.Input, hdr.Input).WithPath(path)
	}
	if got.Baseline != hdr.Baseline {
		return nil, nil, diag.Newf(diag.SevError, "store", "", "journal baseline drifted (journal %.12s, current %.12s): the converged dataplane no longer matches the interrupted run", got.Baseline, hdr.Baseline).WithPath(path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: reopening journal: %w", err)
	}
	if err := f.Truncate(int64(validLen)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seeking journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, entries, nil
}

// Append buffers one verdict line. Call Sync to make a batch durable.
func (j *Journal) Append(e JournalEntry) error {
	return j.appendJSON(e)
}

// Sync flushes buffered lines and fsyncs the file.
func (j *Journal) Sync() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing journal: %w", err)
	}
	return nil
}

// Close flushes, fsyncs, and closes the journal.
func (j *Journal) Close() error {
	if err := j.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

func (j *Journal) appendJSON(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding journal line: %w", err)
	}
	if _, err := fmt.Fprintf(j.w, "%08x %s\n", crc32.Checksum(payload, crcTable), payload); err != nil {
		return fmt.Errorf("store: appending journal line: %w", err)
	}
	return nil
}

// parseJournal walks the log line by line. The first line must be a valid
// header (a corrupt header is fatal — nothing in the log can be trusted).
// After that, the first malformed, CRC-failing, or torn line ends the valid
// prefix: everything before it is returned, everything from it on is the
// crash tail the caller truncates.
func parseJournal(data []byte) (JournalHeader, []JournalEntry, int, error) {
	var hdr JournalHeader
	var entries []JournalEntry
	offset := 0
	first := true
	for offset < len(data) {
		nl := bytes.IndexByte(data[offset:], '\n')
		if nl < 0 {
			break // torn final line: no newline made it to disk
		}
		line := data[offset : offset+nl]
		payload, ok := checkLine(line)
		if !ok {
			if first {
				return hdr, nil, 0, diag.Decodef("store", offset, "journal header is corrupt: cannot resume from this journal")
			}
			break
		}
		if first {
			if err := json.Unmarshal(payload, &hdr); err != nil {
				return hdr, nil, 0, diag.Decodef("store", offset, "journal header does not decode: %v", err)
			}
			first = false
		} else {
			var e JournalEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				break // CRC passed but shape is wrong: treat as tail corruption
			}
			entries = append(entries, e)
		}
		offset += nl + 1
	}
	if first {
		return hdr, nil, 0, diag.Decodef("store", 0, "journal has no header: cannot resume from this journal")
	}
	return hdr, entries, offset, nil
}

// checkLine validates "crc8hex payload" framing and returns the payload.
func checkLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, false
	}
	return payload, true
}

// asDiag is errors.As specialized for *diag.Error (kept as a helper so the
// snapshot and journal paths attach file paths uniformly).
func asDiag(err error, target **diag.Error) bool {
	return errors.As(err, target)
}
