// Package sweep answers the exhaustive resilience question the chaos engine
// cannot: does ANY single (k=1) or double (k=2) failure of a link, a router,
// or a router's BGP service break reachability? It enumerates every
// k-failure combination, applies each candidate to the live emulation via
// the kne fault hooks, re-settles on the virtual clock, scores the blast
// radius with the differential against the healthy baseline, and rolls
// the candidate back so the next one chains off a restored snapshot.
//
// Every candidate is applied. One prune keeps verification tractable:
// candidates whose dirty-set fingerprints match an already verified
// candidate share its verdict (symmetric failures verify once), which is
// exact because equal fingerprints mean identical forwarding state changed
// identically against an identical baseline. Verification of the
// representatives is sharded across a worker pool with a deterministic
// merge, so the ranked table is byte-identical at any worker count and with
// the prune disabled (Options.Brute).
//
// The apply→settle→rollback chain itself is also parallel: the engine forks
// the converged emulation into a pool of deterministic replicas
// (kne.Emulator.Replica) and partitions the candidate list across the lanes,
// merging outcomes back into canonical candidate slots. Because every
// periodic protocol timer ticks on a globally aligned grid and each
// candidate's injection is clock-aligned and RNG-reseeded from its identity,
// a candidate's measured timeline is a pure function of (baseline,
// candidate) — so the partition is invisible and the ranked table stays
// byte-identical at any replica count. Singles and pairs form one canonical
// candidate list (every single, then every pair) that runs as one phase.
package sweep

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mfv/internal/obs"
)

// Kind selects a failure element class.
type Kind string

const (
	// KindLink cuts one link (both endpoints detached).
	KindLink Kind = "link"
	// KindNode fails one router's pod with no replacement until rollback.
	KindNode Kind = "node"
	// KindBGP holds down every BGP session on one router.
	KindBGP Kind = "bgp"
)

// AllKinds is the default element-class set, in canonical order.
func AllKinds() []Kind { return []Kind{KindLink, KindNode, KindBGP} }

// ParseKinds parses a comma-separated kind list ("link,bgp").
func ParseKinds(csv string) ([]Kind, error) {
	var out []Kind
	seen := map[Kind]bool{}
	for _, f := range strings.Split(csv, ",") {
		k := Kind(strings.TrimSpace(f))
		switch k {
		case KindLink, KindNode, KindBGP:
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		case "":
		default:
			return nil, fmt.Errorf("sweep: unknown failure kind %q (want link, node, bgp)", k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: no failure kinds selected")
	}
	return out, nil
}

// Element is one atomic failure: a link cut, a node failure, or a BGP hold.
type Element struct {
	Kind Kind   `json:"kind"`
	Link string `json:"link,omitempty"` // "node:interface", for KindLink
	Node string `json:"node,omitempty"` // router name, for KindNode / KindBGP
}

// Describe renders the element ("link r2:Ethernet2", "node r5", "bgp r2").
func (el Element) Describe() string {
	if el.Kind == KindLink {
		return "link " + el.Link
	}
	return string(el.Kind) + " " + el.Node
}

// Candidate is one k-failure combination, elements in canonical order.
type Candidate struct {
	Elements []Element `json:"elements"`
}

// Describe renders the candidate ("link r2:Ethernet2 + node r5").
func (c Candidate) Describe() string {
	parts := make([]string, len(c.Elements))
	for i, el := range c.Elements {
		parts[i] = el.Describe()
	}
	return strings.Join(parts, " + ")
}

// Options configures a sweep.
type Options struct {
	// K is the failure depth: 1 (all singles) or 2 (singles + pairs).
	K int
	// Kinds restricts the element classes; nil means all three.
	Kinds []Kind
	// Workers sizes the verification worker pool and the emulation lane
	// pool (0 = GOMAXPROCS). The apply→settle→rollback chains run
	// concurrently, one lane per worker, capped by the failure element
	// count and by MemoryBudget. Lanes are deterministic replays of the primary
	// (kne.BuildReplicas); a failed build is non-fatal — the sweep degrades
	// to one lane and counts sweep_replica_fallback_total. The ranked table
	// is byte-identical at any value.
	Workers int
	// Brute disables the fingerprint prune: every candidate is verified.
	// The ranked table must be byte-identical to the pruned run's at any k.
	Brute bool
	// Ctx, when non-nil, interrupts the sweep between candidates: the
	// report comes back partial with Interrupted set.
	Ctx context.Context
	// Obs receives progress events and metrics. Nil disables.
	Obs *obs.Observer
	// MemoryBudget bounds the replica pool's estimated footprint in bytes
	// (default 8 GiB): at most MemoryBudget / (routers × 256 KiB) lanes.
	MemoryBudget int64
	// JournalDir, when non-empty, write-ahead-journals every candidate
	// verdict into <dir>/sweep.wal at chunk granularity (fsynced), so an
	// interrupted sweep can be resumed. The journal is keyed by an input
	// hash (topology, seed, k, kinds, canonical element list) and the
	// baseline dataplane hash.
	JournalDir string
	// Resume replays the journal in JournalDir before evaluating: candidates
	// with journaled verdicts are restored without touching the emulation,
	// and the final report is byte-identical to an uninterrupted run. A
	// missing journal file degrades to a fresh journaled run; a journal
	// recorded under a different input or baseline is an error.
	Resume bool
}

// Row is one ranked sweep result.
type Row struct {
	Rank    int    `json:"rank"`
	Failure string `json:"failure"`
	K       int    `json:"k"`
	// FlowsLost counts (source, equivalence-class) flows delivered in the
	// healthy baseline but not under the failure — the violation signal.
	FlowsLost int `json:"flows_lost"`
	// FlowsChanged counts the flows whose outcome changed, lost flows
	// included. A reroute that keeps the outcome is not counted.
	FlowsChanged int `json:"flows_changed"`
	// DirtyRouters is the blast radius in FIB terms: routers whose
	// forwarding state the failure touched.
	DirtyRouters int `json:"dirty_routers"`
	// ReconvergedIn is the virtual time from injection to quiescence.
	ReconvergedIn time.Duration `json:"reconverged_in_ns"`
	Stragglers    []string      `json:"stragglers,omitempty"`
	Quarantined   []string      `json:"quarantined,omitempty"`
	// Residue counts flows still diverging from the baseline after
	// rollback — nonzero means the candidate did not fully heal.
	Residue int `json:"restore_residue,omitempty"`
	// Pruned is "fingerprint" when the candidate shares an equivalent
	// candidate's verdict instead of running its own verification. Empty
	// for directly verified candidates.
	Pruned string `json:"pruned,omitempty"`
	// Poisoned, when non-empty, records why this candidate has no verdict:
	// its evaluation panicked on three attempts, so it was quarantined (the
	// sweep's analogue of a quarantined router) instead of killing the
	// sweep. The message is the last panic value.
	Poisoned string `json:"poisoned,omitempty"`
	// Diffs samples the per-flow outcome changes (capped).
	Diffs []string `json:"diffs,omitempty"`
}

// maxRowDiffs caps the per-row diff sample so k=2 JSON reports stay bounded.
const maxRowDiffs = 12

// Report is the full sweep outcome, rows ranked worst-first.
type Report struct {
	K          int    `json:"k"`
	Kinds      []Kind `json:"kinds"`
	Routers    int    `json:"routers"`
	Candidates int    `json:"candidates"`
	// Applied counts candidates injected into the network: every ranked
	// candidate.
	Applied int `json:"applied"`
	// Verified counts differential verifications run; fingerprint-pruned
	// candidates share a representative's and add nothing here.
	Verified          int `json:"verified"`
	PrunedFingerprint int `json:"pruned_fingerprint"`
	// Violations counts candidates that lost at least one flow.
	Violations int `json:"violations"`
	// Poisoned counts candidates quarantined after exhausting the panic
	// retry budget; their rows carry no verdict.
	Poisoned int `json:"poisoned,omitempty"`
	// Residue counts candidates that did not fully heal on rollback.
	Residue int `json:"restore_residue,omitempty"`
	// Replicas is the emulation-lane count the sweep actually ran with
	// (after candidate-count and memory-budget caps, and after any
	// replica-build fallback). Run-local, like Wall: two runs of the same
	// space may differ here while their Rows are byte-identical.
	Replicas    int           `json:"replicas"`
	StartedAt   time.Duration `json:"started_at_ns"`
	FinishedAt  time.Duration `json:"finished_at_ns"`
	Wall        time.Duration `json:"wall_ns"`
	Interrupted bool          `json:"interrupted,omitempty"`
	Rows        []Row         `json:"rows"`
}

// Table renders the ranked blast-radius table (top rows only when top > 0).
// It contains results exclusively — no prune bookkeeping, no wall times — so
// a pruned sweep and a brute-force sweep of the same space render
// byte-identical tables, at any k and any worker count.
func (r *Report) Table(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-40s %2s %6s %8s %6s %12s  %s\n",
		"RANK", "FAILURE", "K", "LOST", "CHANGED", "DIRTY", "RECONVERGED", "STATUS")
	for _, row := range r.Rows {
		if top > 0 && row.Rank > top {
			fmt.Fprintf(&b, "… %d more row(s)\n", len(r.Rows)-top)
			break
		}
		status := "ok"
		switch {
		case row.Poisoned != "":
			status = "POISONED (" + row.Poisoned + ")"
		case row.FlowsLost > 0:
			status = "VIOLATION"
		case row.FlowsChanged > 0:
			status = "rerouted"
		}
		if len(row.Stragglers) > 0 {
			status += " (stragglers: " + strings.Join(row.Stragglers, ",") + ")"
		}
		if len(row.Quarantined) > 0 {
			status += " (quarantined: " + strings.Join(row.Quarantined, ",") + ")"
		}
		if row.Residue > 0 {
			status += fmt.Sprintf(" (restore residue: %d)", row.Residue)
		}
		fmt.Fprintf(&b, "%4d  %-40s %2d %6d %8d %6d %12s  %s\n",
			row.Rank, row.Failure, row.K, row.FlowsLost, row.FlowsChanged,
			row.DirtyRouters, row.ReconvergedIn, status)
	}
	return b.String()
}

// String renders the summary header plus the full table.
func (r *Report) String() string { return r.Render(0) }

// Render is String with the table truncated to the worst top rows (0 = all).
func (r *Report) Render(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "failure sweep k=%d over %d router(s): %d candidate(s), %d applied, %d verified",
		r.K, r.Routers, r.Candidates, r.Applied, r.Verified)
	if r.PrunedFingerprint > 0 {
		fmt.Fprintf(&b, " (pruned: %d fingerprint)", r.PrunedFingerprint)
	}
	if r.Poisoned > 0 {
		fmt.Fprintf(&b, " (%d poisoned)", r.Poisoned)
	}
	fmt.Fprintf(&b, ", %d violation(s), %d replica lane(s), %v virtual, %v wall\n",
		r.Violations, r.Replicas, r.FinishedAt-r.StartedAt, r.Wall.Round(time.Millisecond))
	if r.Interrupted {
		fmt.Fprintf(&b, "sweep interrupted by wall-clock budget; %d candidate(s) ranked\n", len(r.Rows))
	}
	b.WriteString(r.Table(top))
	return b.String()
}
