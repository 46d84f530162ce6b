package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/par"
	"mfv/internal/snapchain"
	"mfv/internal/store"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// alignQuantum is the candidate-start alignment grid: the least common
// multiple of every aligned periodic timer in the stack (session probe 5s,
// ISIS hello 10s, BGP keepalive 30s, RSVP refresh 30s and 3m). Each candidate
// is injected at a multiple of this quantum, so the phase of every periodic
// timer relative to the injection instant is a constant — together with the
// per-candidate RNG reseed, a candidate's settle timeline becomes a pure
// function of (baseline content, candidate), independent of which emulator
// lane evaluates it or what was evaluated before it. That is what makes the
// replica-partitioned sweep byte-identical to the sequential one.
const alignQuantum = 3 * time.Minute

// replicaBytesPerRouter is the memory-budget model for one replica lane:
// a full emulation (control-plane state, RIBs, rendered AFTs, pod bookkeeping)
// retains roughly a quarter megabyte per router at WAN scale. The pool is
// capped at MemoryBudget / (routers × replicaBytesPerRouter) lanes.
const replicaBytesPerRouter = 256 << 10

// defaultMemoryBudget bounds the replica pool at 8 GiB unless overridden.
const defaultMemoryBudget int64 = 8 << 30

// chunkSize is the verification and durability granularity of a sweep: the
// candidate list is processed in contiguous canonical-order chunks of this
// many candidates, with verification (and, when journaled, an fsynced journal
// flush) at each chunk barrier. A crash loses at most one in-flight chunk, and
// only one chunk's settled snapshots are held at a time. Chunks are canonical
// prefixes, so the fingerprint-dedup walk (representative assignment) is
// identical to a single-barrier walk over the whole list.
const chunkSize = 32

// retryBudget caps the evaluation attempts of a candidate that keeps
// panicking: the attempt that exhausts it poisons the candidate.
const retryBudget = 3

// settleHold is the quiet window that counts as settled. Same floor as the
// chaos engine: it must outlast the BGP HoldTime (90s) or silent link cuts
// settle "harmlessly" before their withdrawals begin. settleTimeout bounds
// each settle wait on the virtual clock.
const (
	settleHold    = 2 * time.Minute
	settleTimeout = 30 * time.Minute
)

// Enumerate lists the failure elements of the requested kinds present in the
// healthy emulation, in canonical order (links, then nodes, then BGP; each
// group sorted by description). Elements that are already failed — downed
// links, down or quarantined routers — are excluded: the sweep explores
// failures of the healthy baseline, and "failing" them again would roll back
// into a state the baseline never had.
func Enumerate(em *kne.Emulator, topo *topology.Topology, kinds []Kind) []Element {
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	unusable := func(name string) bool {
		if em.RouterDown(name) {
			return true
		}
		_, q := em.QuarantineReason(name)
		return q
	}
	var out []Element
	appendSorted := func(group []Element) {
		sort.Slice(group, func(i, j int) bool { return group[i].Describe() < group[j].Describe() })
		out = append(out, group...)
	}
	if want[KindLink] {
		var group []Element
		for _, l := range topo.Links {
			if em.IsLinkDown(l.A) {
				continue
			}
			group = append(group, Element{Kind: KindLink, Link: l.A.String()})
		}
		appendSorted(group)
	}
	for _, kind := range []Kind{KindNode, KindBGP} {
		if !want[kind] {
			continue
		}
		var group []Element
		for _, r := range em.Routers() {
			if unusable(r.Name) || (kind == KindBGP && r.BGP == nil) {
				continue
			}
			group = append(group, Element{Kind: kind, Node: r.Name})
		}
		appendSorted(group)
	}
	return out
}

// outcome is one candidate's result. Its journal entry is the one record of
// it: evaluate fills the measurements, verifyChunk the verdict (the rendered,
// capped diff sample, so a resumed sweep restores rows without re-running
// emulation or verification), recordPanic a poisoning; journal restore
// supplies the entry whole. The other fields live only in this process.
type outcome struct {
	store.JournalEntry
	cand   Candidate
	base   snapchain.Snap // healthy baseline this candidate was measured against
	impact snapchain.Snap // settled degraded state
	dupOf  *outcome       // representative whose verdict this candidate shares
	// restored marks an outcome rebuilt from a journal entry (not evaluated
	// or verified in this process).
	restored bool
}

// replica is one lane of the emulation pool: an emulator (the primary, or a
// deterministic replay of it), its own snapshot chain, and its own
// baseline-epoch counter. Lanes never share mutable state; candidates are
// partitioned across lanes by canonical index and merged back by slot.
type replica struct {
	id    int
	em    *kne.Emulator
	chain *snapchain.Chain
	// epoch counts baseline content drifts observed on THIS lane. While it
	// is zero the lane's baseline is the canonical converged state shared by
	// every lane, so fingerprint verdicts may be shared across lanes; once a
	// lane drifts, its fingerprints are tagged with the lane identity and
	// never shared across lanes (see engine.fingerprint).
	epoch int
	// label is the precomputed metric label for this lane, and evaluated the
	// lane's sweep_replica_candidates_total{replica=label} series, resolved
	// once when the lane is built (nil-safe when unobserved).
	label     string
	evaluated *obs.Counter
	// owned marks emulators the engine booted (replicas, rebuilt lanes):
	// the engine stops them on teardown. The caller-owned primary is never
	// stopped.
	owned bool
	// broken condemns the lane for the rest of the current round ("panic" or
	// "drift"); healPool rebuilds or retires condemned lanes between rounds.
	// Written only by the lane's own goroutine during a round and by
	// healPool between rounds.
	broken string
	// dead removes the lane from service permanently (a panicked lane whose
	// rebuild failed — its emulator may hold half-applied faults).
	dead bool
}

type engine struct {
	em    *kne.Emulator
	topo  *topology.Topology
	obs   *obs.Observer
	chain *snapchain.Chain
	opts  Options

	// pool holds the emulation lanes; pool[0] starts as the primary (it may
	// be replaced by an owned rebuild if the primary lane fails mid-sweep).
	pool []*replica
	// baseFP is the primary's state fingerprint at the canonical converged
	// baseline, captured before any candidate runs: the gate every rebuilt
	// lane must match.
	baseFP string
	// mu guards the retry/poison bookkeeping lanes touch concurrently.
	mu sync.Mutex

	// repByFP maps fingerprint -> the verified representative outcome.
	repByFP map[string]*outcome

	// journal, when non-nil, receives every entry at chunk barriers;
	// resumed holds the journal entries of a resumed run, keyed by canonical
	// candidate description.
	journal *store.Journal
	resumed map[string]store.JournalEntry
}

// Run sweeps the emulation. The emulator must be started and converged; the
// sweep advances virtual time itself and rolls every candidate back. A
// rollback need not return to the baseline's converged state: on
// testnet.Disagree, fail-then-restore can land in the other stable BGP
// solution, so the caller's emulator may end the sweep there, with every flow
// still delivered and zero Residue (ROADMAP 17b). Residue counts only flows
// whose outcome a rollback failed to restore.
func Run(em *kne.Emulator, topo *topology.Topology, opts Options) (*Report, error) {
	if opts.K < 1 || opts.K > 2 {
		return nil, fmt.Errorf("sweep: k=%d unsupported (want 1 or 2)", opts.K)
	}
	if len(opts.Kinds) == 0 {
		opts.Kinds = AllKinds()
	}
	e := &engine{
		em:      em,
		topo:    topo,
		obs:     opts.Obs,
		chain:   snapchain.New(em, topo, opts.Obs),
		opts:    opts,
		repByFP: map[string]*outcome{},
	}
	e.chain.SetWorkers(opts.Workers)

	wallStart := time.Now()
	span := e.obs.StartPhase("sweep")
	defer span.End()

	if _, err := e.chain.Snapshot(); err != nil {
		return nil, err
	}
	e.baseFP = em.StateFingerprint()
	elems := Enumerate(em, topo, opts.Kinds)
	rep := &Report{
		K:         opts.K,
		Kinds:     opts.Kinds,
		Routers:   len(em.Routers()),
		StartedAt: em.Sim().Now(),
	}

	if err := e.openJournal(elems); err != nil {
		return nil, err
	}
	if e.journal != nil {
		defer e.journal.Close()
	}

	// The canonical candidate list: every single, then (k=2) every pair in
	// element order. Lanes apply it chained on their own emulators;
	// verification and journaling happen at chunk barriers.
	cands := make([]Candidate, 0, len(elems))
	for _, el := range elems {
		cands = append(cands, Candidate{Elements: []Element{el}})
	}
	if opts.K == 2 {
		for i := range elems {
			for j := i + 1; j < len(elems); j++ {
				if !sameTarget(elems[i], elems[j]) {
					cands = append(cands, Candidate{Elements: []Element{elems[i], elems[j]}})
				}
			}
		}
	}

	e.buildPool(len(elems))
	defer e.stopPool()
	rep.Replicas = len(e.pool)
	e.obs.Metrics().Gauge("sweep_replicas").Set(int64(len(e.pool)))

	out := make([]*outcome, len(cands))
	e.restoreSlots(cands, out)
	interrupted, err := e.runPhase(cands, out)
	if err != nil {
		return nil, err
	}
	rep.Interrupted = interrupted
	rep.FinishedAt = em.Sim().Now()
	rep.Wall = time.Since(wallStart)
	e.assemble(rep, out)
	return rep, nil
}

// buildPool sizes and constructs the emulation lanes: one per worker,
// capped by the failure element count and the memory budget. Replica
// construction failure is never fatal: the sweep degrades to the single-lane
// sequential path, which is always correct.
func (e *engine) buildPool(nElems int) {
	want := e.opts.Workers
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	if want > nElems {
		want = nElems
	}
	budget := e.opts.MemoryBudget
	if budget <= 0 {
		budget = defaultMemoryBudget
	}
	if per := int64(len(e.em.Routers())) * replicaBytesPerRouter; per > 0 {
		if max := int(budget / per); want > max {
			want = max
		}
	}
	if want < 1 {
		want = 1
	}
	e.pool = []*replica{{em: e.em, chain: e.chain}}
	if want > 1 {
		if lanes := e.fork(want - 1); lanes != nil {
			e.pool = append(e.pool, lanes...)
		} else {
			e.obs.Metrics().Counter("sweep_replica_fallback_total").Inc()
		}
	}
	for i, r := range e.pool {
		r.id, r.label = i, fmt.Sprint(i)
		r.evaluated = e.obs.Metrics().Counter("sweep_replica_candidates_total", "replica", r.label)
	}
}

// testHookBuildReplicas, when set (tests only), replaces the replica factory
// so tests can inject a deterministic build failure.
var testHookBuildReplicas func(n int) ([]*kne.Emulator, error)

// fork boots n engine-owned lanes through kne.BuildReplicas, gated on the
// canonical converged baseline fingerprint (captured before any candidate
// ran, so mid-sweep rebuilds cannot inherit primary drift), each with a
// snapshot chain forked from the primary's and snapshotted at the baseline.
// It returns all n lanes or, stopping whatever it booted, none.
func (e *engine) fork(n int) []*replica {
	var ems []*kne.Emulator
	var err error
	if testHookBuildReplicas != nil {
		ems, err = testHookBuildReplicas(n)
	} else {
		ems, err = kne.BuildReplicas(e.em, n, e.baseFP, settleHold, settleTimeout)
	}
	if err != nil {
		return nil
	}
	lanes := make([]*replica, n)
	for i, rem := range ems {
		chain := e.chain.Fork(rem)
		if _, err := chain.Snapshot(); err != nil {
			for _, x := range ems {
				x.Stop()
			}
			return nil
		}
		lanes[i] = &replica{em: rem, chain: chain, owned: true}
	}
	return lanes
}

// stopPool releases every engine-owned lane emulator: the original replay
// lanes plus any rebuilt replacements (including a rebuilt primary lane).
// The caller-owned primary and already-retired dead lanes are left alone.
func (e *engine) stopPool() {
	for _, r := range e.pool {
		if r.owned && !r.dead {
			r.em.Stop()
		}
	}
}

// runPhase drives the canonical candidate list through evaluation,
// verification, and journaling, one chunk at a time, so verdicts become
// durable incrementally and settled snapshots are released as soon as their
// chunk is verified. Chunks are contiguous canonical-order slices processed
// in order, so the fingerprint-dedup walk across chunk boundaries is
// identical to a single-barrier walk.
func (e *engine) runPhase(cands []Candidate, out []*outcome) (bool, error) {
	interrupted := false
	for lo := 0; lo < len(cands) && !interrupted; lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(cands) {
			hi = len(cands)
		}
		var err error
		interrupted, err = e.runChunk(cands[lo:hi], out[lo:hi])
		if err != nil {
			return false, err
		}
		// Verify and journal whatever the chunk produced — on interruption
		// that is a partial chunk, and journaling it means the resumed run
		// starts exactly where this one stopped.
		e.verifyChunk(out[lo:hi])
		if err := e.journalChunk(lo, out[lo:hi]); err != nil {
			return false, err
		}
	}
	return interrupted, nil
}

// runChunk evaluates the candidates whose slot in out is still nil, across
// the live replica lanes: lane r owns every pending index i with i ≡ r (mod
// lanes), evaluates its indices in increasing order chained on its own
// emulator, and writes each outcome into the candidate's canonical slot. The
// slot merge makes scheduling invisible: results are positionally identical
// to the sequential engine's. Interruption (Ctx) stops every lane at its next
// candidate boundary and leaves the remaining slots nil.
//
// Each round runs under lane supervision: a panic inside evaluation condemns
// the lane (recover boundary in evaluateGuarded), a baseline drift condemns
// it after its outcome is recorded, and healPool rebuilds condemned lanes
// from the converged baseline between rounds. Candidates a panicked lane left
// unfilled are requeued onto the healed pool under a per-candidate retry
// budget; a candidate that keeps panicking is poisoned — quarantined in the
// report with an empty verdict — instead of killing the sweep.
func (e *engine) runChunk(cands []Candidate, out []*outcome) (bool, error) {
	var todo []int
	for i := range cands {
		if out[i] == nil {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return false, nil
	}
	attempts := make(map[int]int)
	// Emit in canonical order (matching the merged slots), not apply order,
	// whether the chunk completes or is interrupted mid-round.
	defer e.emitCandidates(out, todo)
	for {
		var pending []int
		for _, i := range todo {
			if out[i] == nil {
				pending = append(pending, i)
			}
		}
		if len(pending) == 0 {
			return false, nil
		}
		if e.interrupted() {
			return true, nil
		}
		lanes := e.liveLanes()
		if len(lanes) == 0 {
			return false, fmt.Errorf("sweep: no usable emulation lanes remain (every lane failed and none could be rebuilt)")
		}
		interrupted, err := e.round(cands, out, pending, lanes, attempts)
		if err != nil {
			return false, err
		}
		e.healPool()
		if interrupted {
			return true, nil
		}
	}
}

// round makes one supervised pass, one par.Do index and one worker per lane:
// the pending chunk indices stride across the lanes. A lane stops early when
// condemned (panic or drift); its remaining indices stay nil and the next
// round requeues them. The round reports an interruption only when a lane
// saw one, so a chunk that finishes as the budget expires is complete.
func (e *engine) round(cands []Candidate, out []*outcome, pending []int, lanes []*replica, attempts map[int]int) (bool, error) {
	var interrupted, failed atomic.Bool
	err := par.Do(len(lanes), len(lanes), func(li int) error {
		lane := lanes[li]
		for j := li; j < len(pending); j += len(lanes) {
			if e.interrupted() {
				interrupted.Store(true)
				return nil
			}
			if failed.Load() {
				return nil
			}
			idx := pending[j]
			epochBefore := lane.epoch
			o, err := e.evaluateGuarded(lane, cands[idx])
			if pe, ok := err.(panicError); ok {
				lane.broken = "panic"
				e.recordPanic(cands[idx], idx, out, attempts, pe)
				return nil
			}
			if err != nil {
				if e.interrupted() {
					// Cancellation surfaced mid-candidate as an evaluation
					// error. The candidate's slot stays nil (it was never
					// verified), which is exactly the interrupted-report
					// contract: journal what finished, flag the rest.
					interrupted.Store(true)
					return nil
				}
				failed.Store(true)
				return err
			}
			out[idx] = o
			if lane.epoch > epochBefore {
				// The rollback left drifted content. The outcome stands —
				// it was measured against the pre-drift baseline — but
				// the lane needs a rebuild before taking more work.
				lane.broken = "drift"
				return nil
			}
		}
		return nil
	})
	return interrupted.Load(), err
}

// recordPanic charges one panic against a candidate's retry budget; an
// exhausted budget poisons the candidate (an empty-verdict quarantined row)
// so the sweep completes without it.
func (e *engine) recordPanic(c Candidate, idx int, out []*outcome, attempts map[int]int, pe panicError) {
	e.mu.Lock()
	defer e.mu.Unlock()
	attempts[idx]++
	m := e.obs.Metrics()
	if attempts[idx] >= retryBudget {
		out[idx] = &outcome{JournalEntry: store.JournalEntry{Cand: c.Describe(), Poisoned: pe.Error()}, cand: c}
		m.Counter("sweep_candidates_poisoned_total").Inc()
		return
	}
	m.Counter("sweep_candidates_retried_total").Inc()
}

// panicError wraps a recovered panic value from a lane's evaluation.
type panicError struct{ val any }

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// testHookEvaluate, when set (tests only), runs at the top of every guarded
// evaluation — inside the recover boundary — so tests can inject
// deterministic lane panics.
var testHookEvaluate func(lane int, c Candidate)

// evaluateGuarded is evaluate behind the per-lane recover boundary: a panic
// anywhere in apply/settle/snapshot/rollback surfaces as a panicError instead
// of killing the process, mirroring PR 5's per-router recover.
func (e *engine) evaluateGuarded(r *replica, c Candidate) (o *outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			o, err = nil, panicError{rec}
		}
	}()
	if testHookEvaluate != nil {
		testHookEvaluate(r.id, c)
	}
	return e.evaluate(r, c)
}

// liveLanes returns the lanes still in service.
func (e *engine) liveLanes() []*replica {
	var out []*replica
	for _, r := range e.pool {
		if !r.dead {
			out = append(out, r)
		}
	}
	return out
}

// healPool processes lanes condemned during the last round. Every condemned
// lane gets a rebuild attempt from the converged baseline (counted in
// sweep_lane_restarts_total). When the rebuild fails, the outcome depends on
// why the lane was condemned: a drifted lane is still internally consistent —
// it keeps serving with epoch-tagged fingerprints, exactly the pre-
// supervision behavior — but a panicked lane may hold half-applied faults
// and is retired from service.
func (e *engine) healPool() {
	for _, lane := range e.pool {
		if lane.broken == "" || lane.dead {
			lane.broken = ""
			continue
		}
		cause := lane.broken
		lane.broken = ""
		e.obs.Metrics().Counter("sweep_lane_restarts_total", "replica", lane.label, "cause", cause).Inc()
		if e.rebuildLane(lane) {
			continue
		}
		if cause == "drift" {
			continue
		}
		if lane.owned {
			lane.em.Stop()
		}
		lane.dead = true
	}
}

// rebuildLane forks a replacement emulator and chain for the lane and swaps
// them in (stopping the old emulator when the engine owned it). The lane's
// epoch resets to zero: its baseline is canonical again, so its fingerprints
// may be shared across lanes.
func (e *engine) rebuildLane(lane *replica) bool {
	fresh := e.fork(1)
	if fresh == nil {
		return false
	}
	if lane.owned {
		lane.em.Stop()
	}
	lane.em, lane.chain, lane.epoch, lane.owned = fresh[0].em, fresh[0].chain, 0, true
	return true
}

// emitCandidates publishes the per-candidate progress events for the just-
// evaluated slots in canonical candidate order. Emission is deferred to the
// phase barrier so the trace stays deterministic at any lane count.
func (e *engine) emitCandidates(out []*outcome, todo []int) {
	if !e.obs.Enabled() {
		return
	}
	for _, i := range todo {
		if o := out[i]; o != nil {
			e.obs.Emit(obs.Event{Type: obs.EvSweepCandidate, Detail: o.Cand, Value: int64(len(o.Dirty))})
		}
	}
}

// sameTarget excludes degenerate pairs: failing a node and holding the same
// node's BGP is just the node failure.
func sameTarget(a, b Element) bool {
	return a.Node != "" && a.Node == b.Node
}

func (e *engine) interrupted() bool {
	return e.opts.Ctx != nil && e.opts.Ctx.Err() != nil
}

// candSeed derives the per-candidate RNG seed: a pure function of the
// candidate identity, so every lane (and the sequential engine) draws the
// same jitter stream while evaluating it.
func candSeed(c Candidate) int64 {
	h := fnv.New64a()
	for _, el := range c.Elements {
		io.WriteString(h, el.Describe())
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// evaluate applies one candidate on the given lane, settles, snapshots the
// degraded state, rolls the failure back, and verifies the rollback healed.
// The verification of the impact itself is deferred to the parallel phase.
//
// Before injection the lane's clock is advanced to the alignment grid and
// its RNG reseeded from the candidate identity, which (together with the
// globally aligned protocol timers) makes everything measured here a pure
// function of (baseline, candidate) — independent of lane and history.
func (e *engine) evaluate(r *replica, c Candidate) (*outcome, error) {
	r.em.AlignClock(alignQuantum)
	clk := r.em.Sim()
	clk.Reseed(candSeed(c))
	r.evaluated.Inc()

	o := &outcome{JournalEntry: store.JournalEntry{Cand: c.Describe()}, cand: c, base: *r.chain.Last()}
	injected := clk.Now()
	applied := 0
	var err error
	for _, el := range c.Elements {
		if err = e.apply(r, el); err != nil {
			break
		}
		applied++
	}
	if err != nil {
		for i := applied - 1; i >= 0; i-- {
			if rbErr := e.rollback(r, c.Elements[i]); rbErr != nil {
				return nil, fmt.Errorf("sweep: %s failed (%v); rollback also failed: %w", c.Describe(), err, rbErr)
			}
		}
		return nil, fmt.Errorf("sweep: applying %s: %w", c.Describe(), err)
	}

	conv := r.em.Settle(settleHold, settleTimeout)
	if o.impact, err = r.chain.Snapshot(); err != nil {
		return nil, err
	}
	o.Dirty = snapchain.DiffStamps(o.base.Stamps, o.impact.Stamps)
	o.ReconvNS = int64(max(conv.ConvergedAt-injected, 0))
	o.Stragglers = conv.Stragglers
	o.Quarantined = conv.Quarantined
	o.FP = e.fingerprint(r, o)

	// Roll back in reverse order and verify the heal: the lane's next
	// candidate baseline is whatever state the rollback actually reached.
	for i := len(c.Elements) - 1; i >= 0; i-- {
		if err := e.rollback(r, c.Elements[i]); err != nil {
			return nil, fmt.Errorf("sweep: rolling back %s: %w", c.Describe(), err)
		}
	}
	r.em.Settle(settleHold, settleTimeout)
	restored, err := r.chain.Snapshot()
	if err != nil {
		return nil, err
	}
	// Content check: any router whose restored AFT does not forward exactly
	// as its baseline did (compared structurally, not by fingerprint)
	// invalidates fingerprint sharing across this boundary (see
	// replica.epoch). Outcome check: flows still diverging are real residue,
	// reported per row.
	drifted := false
	for _, name := range snapchain.DiffStamps(o.base.Stamps, restored.Stamps) {
		ba, ra := o.base.AFTs[name], restored.AFTs[name]
		if ba == nil || ra == nil || !ba.Equal(ra) {
			drifted = true
			break
		}
	}
	if drifted {
		r.epoch++
		o.Residue = len(r.chain.Differential(o.base, restored))
	}
	return o, nil
}

func (e *engine) apply(r *replica, el Element) error {
	switch el.Kind {
	case KindLink:
		ep, err := topology.ParseEndpoint(el.Link)
		if err != nil {
			return err
		}
		return r.em.SetLinkDown(ep)
	case KindNode:
		return r.em.FailRouter(el.Node)
	case KindBGP:
		return r.em.HoldBGP(el.Node)
	}
	return fmt.Errorf("sweep: unknown element kind %q", el.Kind)
}

func (e *engine) rollback(r *replica, el Element) error {
	switch el.Kind {
	case KindLink:
		ep, err := topology.ParseEndpoint(el.Link)
		if err != nil {
			return err
		}
		return r.em.SetLinkUp(ep)
	case KindNode:
		if err := r.em.RestoreRouter(el.Node); err != nil {
			return err
		}
		return r.em.AwaitRunning(el.Node, settleTimeout)
	case KindBGP:
		return r.em.ReleaseBGP(el.Node)
	}
	return fmt.Errorf("sweep: unknown element kind %q", el.Kind)
}

// fingerprint keys the candidate's equivalence group: the baseline identity
// plus, for every dirty router, its baseline and impact forwarding
// fingerprints. Two candidates with equal fingerprints perturb identical
// forwarding state identically against identical baselines, so their
// differentials are equal and one verification serves both. While a lane's
// epoch is zero its baseline is the canonical converged content every lane
// shares ("epoch=0"); after a drift the group key is tagged with the lane
// identity, so candidates measured against drifted baselines never share
// verdicts across lanes.
func (e *engine) fingerprint(r *replica, o *outcome) string {
	h := sha256.New()
	if r.epoch == 0 {
		fmt.Fprintf(h, "epoch=0;")
	} else {
		fmt.Fprintf(h, "epoch=r%d.%d;", r.id, r.epoch)
	}
	for _, name := range o.Dirty {
		var bf, impf string
		if a := o.base.AFTs[name]; a != nil {
			bf = a.Fingerprint()
		}
		if a := o.impact.AFTs[name]; a != nil {
			impf = a.Fingerprint()
		}
		fmt.Fprintf(h, "%s:%s>%s;", name, bf, impf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyChunk runs the deferred differentials for one canonical-order chunk:
// fingerprint-duplicate candidates adopt their representative's verdict, the
// representatives shard across the worker pool. Each result lands in its
// candidate's own slot, so worker count and scheduling order never affect
// output. Restored outcomes carry their journaled verdicts already; they only
// re-register their representative role (so later candidates dedup against
// them exactly as they did in the interrupted run). Because chunks are
// canonical prefixes processed in order, the repByFP state at every decision
// point is identical to a single-barrier walk's.
func (e *engine) verifyChunk(pend []*outcome) {
	var reps []*outcome
	for _, o := range pend {
		if o == nil || o.Poisoned != "" {
			continue
		}
		if o.restored {
			if !e.opts.Brute && o.Pruned == "" && o.FP != "" {
				if _, ok := e.repByFP[o.FP]; !ok {
					e.repByFP[o.FP] = o
				}
			}
			continue
		}
		if !e.opts.Brute {
			if r, ok := e.repByFP[o.FP]; ok {
				o.Pruned = "fingerprint"
				o.dupOf = r
				continue
			}
			e.repByFP[o.FP] = o
		}
		o.Rep = true
		reps = append(reps, o)
	}
	g := e.obs.Metrics().Gauge("sweep_inflight")
	// A differential cannot fail, so par.Do has no error to report.
	_ = par.Do(len(reps), e.opts.Workers, func(i int) error {
		g.Add(1)
		defer g.Add(-1)
		o := reps[i]
		// One worker per candidate; the per-query pool stays at 1 so the
		// sharding happens across candidates, not within them.
		diffs := verify.Queries{Workers: 1}.Differential(o.base.Net, o.impact.Net)
		// The entry keeps the counts and the diff sample capped at
		// maxRowDiffs, as the report displays it.
		o.Lost, o.Changed = len(snapchain.LostFlows(diffs)), len(diffs)
		for j, d := range diffs {
			if j == maxRowDiffs {
				o.Diffs = append(o.Diffs, fmt.Sprintf("… (+%d more)", len(diffs)-maxRowDiffs))
				break
			}
			o.Diffs = append(o.Diffs, d.String())
		}
		return nil
	})
	for _, o := range pend {
		if o == nil {
			continue
		}
		if r := o.dupOf; r != nil {
			o.Lost, o.Changed, o.Diffs = r.Lost, r.Changed, r.Diffs
		}
		// The verdict is all the report needs: release the settled snapshots.
		o.base, o.impact = snapchain.Snap{}, snapchain.Snap{}
	}
}

// openJournal wires the write-ahead journal per Options: create fresh for
// JournalDir, replay-and-continue for Resume. The header pins the journal to
// this exact sweep input and baseline.
func (e *engine) openJournal(elems []Element) error {
	if e.opts.JournalDir == "" {
		if e.opts.Resume {
			return fmt.Errorf("sweep: Resume requires JournalDir")
		}
		return nil
	}
	hdr := store.JournalHeader{
		Version:  store.JournalVersion,
		Input:    e.inputHash(elems),
		Baseline: store.HashAFTs(e.chain.Last().AFTs),
	}
	path := store.SweepJournalPath(e.opts.JournalDir)
	if !e.opts.Resume {
		j, err := store.CreateJournal(path, hdr)
		if err != nil {
			return err
		}
		e.journal = j
		return nil
	}
	j, entries, err := store.ResumeJournal(path, hdr)
	if err != nil {
		return err
	}
	e.journal = j
	e.resumed = make(map[string]store.JournalEntry, len(entries))
	for _, ent := range entries {
		e.resumed[ent.Cand] = ent
	}
	return nil
}

// inputHash digests everything that determines the candidate set and each
// candidate's verdict: topology, emulation seed, sweep shape, budgets, and
// the canonical element list. Journals are only resumable under an equal
// hash.
func (e *engine) inputHash(elems []Element) string {
	h := sha256.New()
	if b, err := e.topo.Marshal(); err == nil {
		h.Write(b)
	}
	fmt.Fprintf(h, ";seed=%d;k=%d;kinds=%v;brute=%v;hold=%v;timeout=%v;",
		e.em.Sim().Seed(), e.opts.K, e.opts.Kinds, e.opts.Brute, settleHold, settleTimeout)
	for _, el := range elems {
		fmt.Fprintf(h, "%s;", el.Describe())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// restoreSlots pre-fills candidate slots from the resumed journal. Because
// the journal is a canonical prefix, the restored set is exactly "everything
// the interrupted run completed".
func (e *engine) restoreSlots(cands []Candidate, out []*outcome) {
	if len(e.resumed) == 0 {
		return
	}
	for i, c := range cands {
		if ent, ok := e.resumed[c.Describe()]; ok {
			out[i] = &outcome{JournalEntry: ent, cand: c, restored: true}
			e.obs.Metrics().Counter("sweep_candidates_restored_total").Inc()
		}
	}
}

// journalChunk appends the chunk's newly produced entries (canonical order,
// restored entries excluded) and fsyncs — the chunk's durability barrier. lo
// is the chunk's offset into the canonical candidate list.
func (e *engine) journalChunk(lo int, pend []*outcome) error {
	if e.journal == nil {
		return nil
	}
	wrote := false
	for i, o := range pend {
		if o == nil || o.restored {
			continue
		}
		o.Index = lo + i
		if err := e.journal.Append(o.JournalEntry); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return nil
	}
	return e.journal.Sync()
}

// assemble ranks the outcomes worst-first into the report, skipping the
// slots an interruption left unevaluated, and emits the final metrics and
// verdict events in rank order.
func (e *engine) assemble(rep *Report, out []*outcome) {
	m := e.obs.Metrics()
	for _, o := range out {
		if o == nil {
			continue
		}
		rep.Candidates++
		if o.Rep {
			rep.Verified++
		}
		label := "none"
		if o.Pruned == "fingerprint" {
			label = "fingerprint"
			rep.PrunedFingerprint++
		}
		m.Counter("sweep_candidates_total", "pruned", label).Inc()
		if o.Poisoned == "" {
			m.Histogram("sweep_reconverge_ns", "k", fmt.Sprint(len(o.cand.Elements))).Observe(o.ReconvNS)
		}
		row := Row{
			Failure:       o.Cand,
			K:             len(o.cand.Elements),
			FlowsLost:     o.Lost,
			FlowsChanged:  o.Changed,
			DirtyRouters:  len(o.Dirty),
			ReconvergedIn: time.Duration(o.ReconvNS),
			Stragglers:    o.Stragglers,
			Quarantined:   o.Quarantined,
			Residue:       o.Residue,
			Pruned:        o.Pruned,
			Poisoned:      o.Poisoned,
			Diffs:         o.Diffs,
		}
		if row.Poisoned != "" {
			rep.Poisoned++
		}
		if row.FlowsLost > 0 {
			rep.Violations++
			m.Counter("sweep_violations_total").Inc()
		}
		if row.Residue > 0 {
			rep.Residue++
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Applied = rep.Candidates
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.FlowsLost != b.FlowsLost {
			return a.FlowsLost > b.FlowsLost
		}
		if a.FlowsChanged != b.FlowsChanged {
			return a.FlowsChanged > b.FlowsChanged
		}
		if a.DirtyRouters != b.DirtyRouters {
			return a.DirtyRouters > b.DirtyRouters
		}
		if a.ReconvergedIn != b.ReconvergedIn {
			return a.ReconvergedIn > b.ReconvergedIn
		}
		return a.Failure < b.Failure
	})
	for i := range rep.Rows {
		rep.Rows[i].Rank = i + 1
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvSweepVerdict, Detail: rep.Rows[i].Failure, Value: int64(rep.Rows[i].FlowsLost)})
		}
	}
}
