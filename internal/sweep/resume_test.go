package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"mfv/internal/obs"
	"mfv/internal/store"
	"mfv/internal/testnet"
)

// truncateJournal rewrites the journal to its header plus the first keep
// entries — simulating a crash that made exactly that prefix durable.
func truncateJournal(t *testing.T, dir string, keep int) {
	t.Helper()
	path := store.SweepJournalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < keep+1 {
		t.Fatalf("journal has %d lines, cannot keep header+%d", len(lines), keep)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:keep+1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

func journalLines(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(store.SweepJournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestSweepResumeByteIdentical is the tentpole acceptance check: a journaled
// sweep truncated mid-flight (the crash) and resumed must skip every
// journaled candidate and produce a Report (JSON) and Table byte-identical
// to the uninterrupted run, at workers/replicas 1, 2, and 8.
func TestSweepResumeByteIdentical(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			if testing.Short() && k == 2 {
				t.Skip("multi-candidate settle sweep")
			}
			kinds := []Kind{KindBGP}
			coldDir := t.TempDir()
			em := boot(t, testnet.Fig2(), 42)
			cold, err := Run(em, testnet.Fig2(), Options{K: k, Kinds: kinds, Workers: 1, JournalDir: coldDir})
			if err != nil {
				t.Fatal(err)
			}
			refJSON, refTable := reportJSON(t, cold), cold.Table(0)
			total := journalLines(t, coldDir) - 1 // entries, minus the header
			if total != cold.Candidates {
				t.Fatalf("journal has %d entries, want one per candidate (%d)", total, cold.Candidates)
			}
			keep := total / 2
			if keep == 0 {
				t.Fatalf("sweep too small to truncate (%d entries)", total)
			}
			for _, workers := range []int{1, 2, 8} {
				dir := t.TempDir()
				src, err := os.ReadFile(store.SweepJournalPath(coldDir))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(store.SweepJournalPath(dir), src, 0o644); err != nil {
					t.Fatal(err)
				}
				truncateJournal(t, dir, keep)
				o := obs.NewMetricsOnly()
				em := boot(t, testnet.Fig2(), 42)
				got, err := Run(em, testnet.Fig2(), Options{
					K: k, Kinds: kinds, Workers: workers, Replicas: workers,
					JournalDir: dir, Resume: true, Obs: o,
				})
				if err != nil {
					t.Fatalf("workers=%d resume: %v", workers, err)
				}
				if gotJSON := reportJSON(t, got); gotJSON != refJSON {
					t.Errorf("workers=%d resumed JSON differs from cold run:\n%s\n%s", workers, refJSON, gotJSON)
				}
				if gotTable := got.Table(0); gotTable != refTable {
					t.Errorf("workers=%d resumed Table differs:\n%s\n%s", workers, refTable, gotTable)
				}
				if restored := o.Metrics().Counter("sweep_candidates_restored_total").Value(); restored != uint64(keep) {
					t.Errorf("workers=%d restored %d candidates, want %d", workers, restored, keep)
				}
				// The resumed journal must converge to the complete log.
				if n := journalLines(t, dir) - 1; n != total {
					t.Errorf("workers=%d resumed journal has %d entries, want %d", workers, n, total)
				}
			}
		})
	}
}

// TestSweepResumeCompletedJournal: resuming a finished journal evaluates
// nothing and reproduces the report wholesale from the log.
func TestSweepResumeCompletedJournal(t *testing.T) {
	dir := t.TempDir()
	em := boot(t, testnet.Fig2(), 42)
	cold, err := Run(em, testnet.Fig2(), Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewMetricsOnly()
	em2 := boot(t, testnet.Fig2(), 42)
	got, err := Run(em2, testnet.Fig2(), Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 1, JournalDir: dir, Resume: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, got) != reportJSON(t, cold) {
		t.Errorf("fully restored report differs from cold run")
	}
	if evals := o.Metrics().Counter("sweep_replica_candidates_total", "replica", "0").Value(); evals != 0 {
		t.Errorf("fully journaled resume still evaluated %d candidates", evals)
	}
	if restored := o.Metrics().Counter("sweep_candidates_restored_total").Value(); restored != uint64(cold.Candidates) {
		t.Errorf("restored %d, want all %d", restored, cold.Candidates)
	}
}

// TestSweepResumeInputMismatch: a journal recorded under different sweep
// inputs must be refused, not silently mixed in.
func TestSweepResumeInputMismatch(t *testing.T) {
	dir := t.TempDir()
	em := boot(t, testnet.Fig2(), 42)
	if _, err := Run(em, testnet.Fig2(), Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 1, JournalDir: dir}); err != nil {
		t.Fatal(err)
	}
	em2 := boot(t, testnet.Fig2(), 42)
	_, err := Run(em2, testnet.Fig2(), Options{K: 1, Kinds: []Kind{KindLink}, Workers: 1, JournalDir: dir, Resume: true})
	if err == nil {
		t.Fatal("resume accepted a journal from a different kinds set")
	}
	if !strings.Contains(err.Error(), "different sweep input") {
		t.Fatalf("error %q does not name the input mismatch", err)
	}
	// Resume without a journal directory is a usage error.
	em3 := boot(t, testnet.Fig2(), 42)
	if _, err := Run(em3, testnet.Fig2(), Options{K: 1, Workers: 1, Resume: true}); err == nil {
		t.Fatal("Resume without JournalDir accepted")
	}
}

// TestSweepResumeRefusesVersion1Journal: a version-1 journal may hold k=2
// pairs that were never applied, journaled with predicted zero verdicts.
// Resuming one must be an error, not a report that carries those verdicts
// forward.
func TestSweepResumeRefusesVersion1Journal(t *testing.T) {
	dir := t.TempDir()
	opts := Options{K: 2, Workers: 1, JournalDir: dir}
	if _, err := Run(boot(t, testnet.Triangle(), 42), testnet.Triangle(), opts); err != nil {
		t.Fatal(err)
	}
	// Rewrite the journal as version 1 with one pair predicted harmless,
	// keeping the input and baseline it was recorded under.
	path := store.SweepJournalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr store.JournalHeader
	if err := json.Unmarshal([]byte(strings.SplitN(string(data), "\n", 2)[0][9:]), &hdr); err != nil {
		t.Fatal(err)
	}
	j, entries, err := store.ResumeJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	hdr.Version = 1
	if j, err = store.CreateJournal(path, hdr); err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Cand == "link r1:Ethernet1 + link r1:Ethernet2" {
			ent = store.JournalEntry{Index: ent.Index, Cand: ent.Cand}
		}
		if err := j.Append(ent); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	_, err = Run(boot(t, testnet.Triangle(), 42), testnet.Triangle(), opts)
	if err == nil || !strings.Contains(err.Error(), "journal version 1 unsupported") {
		t.Fatalf("resuming a version-1 journal: err = %v, want a version refusal", err)
	}
}

// panicOnce arms testHookEvaluate to panic the first n attempts of one
// candidate description, counting attempts under a lock (lanes race here).
func panicOnce(target string, times int) (hook func(int, Candidate), attempts *int) {
	var mu sync.Mutex
	count := 0
	attempts = &count
	hook = func(lane int, c Candidate) {
		if c.Describe() != target {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		count++
		if count <= times {
			panic(fmt.Sprintf("injected fault #%d", count))
		}
	}
	return hook, attempts
}

// TestSweepLanePanicRecovery: an injected lane panic must be healed by lane
// rebuild + candidate requeue, losing and duplicating nothing — the report
// stays byte-identical to an uninjected run.
func TestSweepLanePanicRecovery(t *testing.T) {
	kinds := []Kind{KindBGP}
	em := boot(t, testnet.Fig2(), 42)
	ref, err := Run(em, testnet.Fig2(), Options{K: 1, Kinds: kinds, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		hook, attempts := panicOnce("bgp r2", 1)
		testHookEvaluate = hook
		o := obs.NewMetricsOnly()
		em := boot(t, testnet.Fig2(), 42)
		got, err := Run(em, testnet.Fig2(), Options{K: 1, Kinds: kinds, Workers: workers, Replicas: workers, Obs: o})
		testHookEvaluate = nil
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *attempts < 2 {
			t.Fatalf("workers=%d: candidate attempted %d times, want the panic plus a retry", workers, *attempts)
		}
		if reportJSON(t, got) != reportJSON(t, ref) {
			t.Errorf("workers=%d report after panic recovery differs:\n%s\n%s", workers, reportJSON(t, ref), reportJSON(t, got))
		}
		if got.Poisoned != 0 {
			t.Errorf("workers=%d poisoned %d candidates on a recoverable panic", workers, got.Poisoned)
		}
		if retried := o.Metrics().Counter("sweep_candidates_retried_total").Value(); retried != 1 {
			t.Errorf("workers=%d sweep_candidates_retried_total = %d, want 1", workers, retried)
		}
		restarts := int64(0)
		for _, m := range o.Metrics().Snapshot() {
			if m.Name == "sweep_lane_restarts_total" {
				restarts += m.Value
			}
		}
		if restarts == 0 {
			t.Errorf("workers=%d no lane restart recorded", workers)
		}
	}
}

// TestSweepPoisonedCandidate: a candidate that panics past the retry budget
// is quarantined in the report (empty verdict, POISONED status) while every
// other candidate keeps its normal verdict.
func TestSweepPoisonedCandidate(t *testing.T) {
	hook, _ := panicOnce("bgp r2", 1<<30)
	testHookEvaluate = hook
	defer func() { testHookEvaluate = nil }()
	o := obs.NewMetricsOnly()
	dir := t.TempDir()
	em := boot(t, testnet.Fig2(), 42)
	got, err := Run(em, testnet.Fig2(), Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 1, RetryBudget: 2, Obs: o, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got.Poisoned != 1 {
		t.Fatalf("Poisoned = %d, want 1", got.Poisoned)
	}
	var row *Row
	for i := range got.Rows {
		if got.Rows[i].Failure == "bgp r2" {
			row = &got.Rows[i]
		}
	}
	if row == nil || row.Poisoned == "" {
		t.Fatalf("bgp r2 row not poisoned: %+v", row)
	}
	if row.FlowsLost != 0 || row.FlowsChanged != 0 || len(row.Diffs) != 0 {
		t.Errorf("poisoned row carries a verdict: %+v", row)
	}
	if !strings.Contains(got.Table(0), "POISONED") {
		t.Errorf("table does not flag the poisoned candidate:\n%s", got.Table(0))
	}
	if poisoned := o.Metrics().Counter("sweep_candidates_poisoned_total").Value(); poisoned != 1 {
		t.Errorf("sweep_candidates_poisoned_total = %d, want 1", poisoned)
	}
	if len(got.Rows) != got.Candidates {
		t.Errorf("rows %d != candidates %d: poisoning lost rows", len(got.Rows), got.Candidates)
	}

	// The poison verdict is durable: a resume restores it without
	// re-attempting the candidate.
	testHookEvaluate = nil
	em2 := boot(t, testnet.Fig2(), 42)
	resumed, err := Run(em2, testnet.Fig2(), Options{K: 1, Kinds: []Kind{KindBGP}, Workers: 1, RetryBudget: 2, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, resumed) != reportJSON(t, got) {
		t.Errorf("resumed poisoned report differs from original")
	}
}
