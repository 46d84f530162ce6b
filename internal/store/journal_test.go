package store_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mfv/internal/store"
)

func testHeader() store.JournalHeader {
	return store.JournalHeader{Version: store.JournalVersion, Input: "input-abc", Baseline: "base-def"}
}

func testEntries() []store.JournalEntry {
	return []store.JournalEntry{
		{Index: 0, Cand: "bgp r1", FP: "fp1", Rep: true, Dirty: []string{"r1", "r2"}, ReconvNS: 1500, Lost: 2, Changed: 3, Diffs: []string{"flow a", "flow b"}},
		{Index: 1, Cand: "bgp r2", FP: "fp1", Pruned: "fingerprint", Lost: 2, Changed: 3, Diffs: []string{"flow a", "flow b"}},
		{Index: 2, Cand: "link r1:Ethernet1 + bgp r2", Pruned: "fingerprint"},
		{Index: 3, Cand: "node r3", Poisoned: "panic: boom"},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := store.SweepJournalPath(t.TempDir())
	j, err := store.CreateJournal(path, testHeader())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want := testEntries()
	for _, e := range want[:2] {
		if err := j.Append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for _, e := range want[2:] {
		if err := j.Append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, got, err := store.ResumeJournal(path, testHeader())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("resumed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Cand != want[i].Cand || got[i].Lost != want[i].Lost ||
			got[i].Pruned != want[i].Pruned || got[i].Poisoned != want[i].Poisoned ||
			len(got[i].Diffs) != len(want[i].Diffs) || len(got[i].Dirty) != len(want[i].Dirty) ||
			got[i].Rep != want[i].Rep {
			t.Fatalf("entry %d did not round-trip:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// Appends after resume land after the existing entries.
	if err := j2.Append(store.JournalEntry{Index: 4, Cand: "node r4"}); err != nil {
		t.Fatalf("append after resume: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got, err = store.ResumeJournal(path, testHeader())
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if len(got) != len(want)+1 || got[len(got)-1].Cand != "node r4" {
		t.Fatalf("post-resume append lost: %d entries", len(got))
	}
}

func TestJournalResumeMissingFileCreates(t *testing.T) {
	path := store.SweepJournalPath(t.TempDir())
	j, entries, err := store.ResumeJournal(path, testHeader())
	if err != nil {
		t.Fatalf("resume on missing file: %v", err)
	}
	defer j.Close()
	if len(entries) != 0 {
		t.Fatalf("fresh journal returned %d entries", len(entries))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("resume did not create the journal: %v", err)
	}
}

func TestJournalTruncatesCorruptTail(t *testing.T) {
	path := store.SweepJournalPath(t.TempDir())
	j, err := store.CreateJournal(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range testEntries()[:2] {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	tails := map[string][]byte{
		"torn line (no newline)": []byte(`00000000 {"i":9,"cand":"node`),
		"garbage line":           []byte("not a journal line at all\n"),
		"bad crc":                []byte(`deadbeef {"i":9,"cand":"node r9"}` + "\n"),
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, append(append([]byte(nil), clean...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			j, entries, err := store.ResumeJournal(path, testHeader())
			if err != nil {
				t.Fatalf("resume with corrupt tail: %v", err)
			}
			if len(entries) != 2 {
				t.Fatalf("got %d entries, want the 2 before the corrupt tail", len(entries))
			}
			// The tail must be truncated so new appends produce a clean log.
			if err := j.Append(store.JournalEntry{Index: 2, Cand: "node r3"}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, entries, err = store.ResumeJournal(path, testHeader())
			if err != nil {
				t.Fatalf("resume after repair: %v", err)
			}
			if len(entries) != 3 || entries[2].Cand != "node r3" {
				t.Fatalf("repaired journal has %d entries", len(entries))
			}
		})
	}
}

func TestJournalHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	path := store.SweepJournalPath(dir)
	j, err := store.CreateJournal(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	cases := []struct {
		name string
		hdr  store.JournalHeader
		want string
	}{
		{"input changed", store.JournalHeader{Version: store.JournalVersion, Input: "other", Baseline: "base-def"}, "different sweep input"},
		{"baseline drifted", store.JournalHeader{Version: store.JournalVersion, Input: "input-abc", Baseline: "other"}, "baseline drifted"},
		{"version skew", store.JournalHeader{Version: 99, Input: "input-abc", Baseline: "base-def"}, "version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := store.ResumeJournal(path, tc.hdr)
			if err == nil {
				t.Fatalf("resume accepted mismatched header")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A corrupt header is fatal: nothing in the log can be trusted.
	if err := os.WriteFile(filepath.Join(dir, store.SweepJournalName), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.ResumeJournal(path, testHeader()); err == nil {
		t.Fatalf("resume accepted corrupt header")
	}
}
