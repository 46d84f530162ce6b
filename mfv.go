// Package mfv is the public API of the model-free verification toolkit, a
// reproduction of "Towards Accessible Model-Free Verification" (HotNets
// '25). It verifies network configurations by emulating the control plane
// to convergence with real protocol engines, extracting the dataplane as
// OpenConfig-style AFTs, and running exhaustive dataplane verification
// queries — plus a deliberately partial model-based baseline for
// comparison.
//
// The minimal flow:
//
//	topo := mfv.Fig2()                           // or your own topology+configs
//	res, err := mfv.Run(mfv.Snapshot{Topology: topo}, mfv.Options{})
//	if err != nil { ... }
//	ok := res.Network.Reachable("r1", netip.MustParseAddr("2.2.2.4"))
//
// Differential reachability across two snapshots (the paper's E1):
//
//	before, _ := mfv.Run(mfv.Snapshot{Topology: mfv.Fig2()}, mfv.Options{})
//	after, _ := mfv.Run(mfv.Snapshot{Topology: mfv.Fig2Buggy()}, mfv.Options{})
//	for _, d := range mfv.DifferentialReachability(before, after) {
//	    fmt.Println(d)
//	}
package mfv

import (
	"fmt"
	"net/netip"

	"mfv/internal/aft"
	"mfv/internal/chaos"
	"mfv/internal/core"
	"mfv/internal/diag"
	"mfv/internal/kne"
	"mfv/internal/lint"
	"mfv/internal/obs"
	"mfv/internal/obshttp"
	"mfv/internal/routegen"
	"mfv/internal/store"
	"mfv/internal/sweep"
	"mfv/internal/testnet"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// Core pipeline types.
type (
	// Snapshot is one verification input: topology with embedded vendor
	// configs, optional injected BGP feeds, and link-state context.
	Snapshot = core.Snapshot
	// Options tunes a pipeline run (backend, convergence hold, gNMI
	// extraction).
	Options = core.Options
	// Result is a completed run: AFTs, the queryable Network, and timing.
	Result = core.Result
	// Backend selects emulation (model-free) or the model baseline.
	Backend = core.Backend
	// InjectedFeed attaches an external BGP peer announcing routes.
	InjectedFeed = core.InjectedFeed
)

// Backend values.
const (
	// BackendEmulation is the model-free path (the paper's contribution).
	BackendEmulation = core.BackendEmulation
	// BackendModel is the reference-model baseline (Batfish analogue).
	BackendModel = core.BackendModel
	// BackendSnapshot restores a previously saved converged dataplane from
	// disk (RunFromSnapshot) — no emulation, no convergence wait.
	BackendSnapshot = core.BackendSnapshot
)

// Topology types, re-exported so callers can build networks without
// touching internal packages.
type (
	// Topology is the device + link input description.
	Topology = topology.Topology
	// Node is one device with its vendor dialect and configuration.
	Node = topology.Node
	// Link wires two endpoints.
	Link = topology.Link
	// Endpoint names node:interface.
	Endpoint = topology.Endpoint
)

// Vendor dialects.
const (
	// VendorEOS selects the Arista-EOS-like dialect.
	VendorEOS = topology.VendorEOS
	// VendorJunosLike selects the hierarchical Junos-like dialect.
	VendorJunosLike = topology.VendorJunosLike
)

// Verification query types.
type (
	// BatchQueries is the parallel batch-query engine: it shards
	// (source, equivalence-class) flows across a worker pool with
	// per-device memoization. The zero value uses GOMAXPROCS workers;
	// results are byte-identical at any worker count. The Network query
	// methods and DifferentialReachability use it implicitly (sized by
	// Options.Workers); construct one directly to override per query.
	BatchQueries = verify.Queries
	// Network answers dataplane queries over a set of AFTs.
	Network = verify.Network
	// Trace is a multipath forwarding walk result.
	Trace = verify.Trace
	// Path is one branch of a trace.
	Path = verify.Path
	// Diff is one differential-reachability finding.
	Diff = verify.Diff
	// Disposition classifies a packet's fate.
	Disposition = verify.Disposition
)

// Dispositions.
const (
	Delivered    = verify.Delivered
	ExitsNetwork = verify.ExitsNetwork
	Dropped      = verify.Dropped
	NoRoute      = verify.NoRoute
	Loop         = verify.Loop
)

// Run executes the verification pipeline on a snapshot: emulate (or model)
// the control plane, extract the converged dataplane, and return a
// queryable Result.
func Run(snap Snapshot, opts Options) (*Result, error) { return core.Run(snap, opts) }

// DifferentialReachability exhaustively compares forwarding outcomes for
// every packet equivalence class from every device across two completed
// runs, returning the flows whose fate changed.
func DifferentialReachability(before, after *Result) []Diff {
	return core.Differential(before, after)
}

// ParseTopology decodes a JSON topology file.
func ParseTopology(data []byte) (*Topology, error) { return topology.Parse(data) }

// Scenario constructors from the paper's evaluation.

// Fig2 returns the paper's 6-node, three-AS test network (iBGP + eBGP +
// IS-IS, production-complexity configs).
func Fig2() *Topology { return testnet.Fig2() }

// Fig2Buggy returns Fig2 with the r2–r3 eBGP session removed (E1's buggy
// variant).
func Fig2Buggy() *Topology { return testnet.Fig2Buggy() }

// Fig3 returns the 3-node line with the misordered interface configuration
// that exposes the reference-model bug (E3).
func Fig3() *Topology { return testnet.Fig3() }

// WAN returns an n-router backbone replica with an eBGP injection edge on
// its first router, used by the convergence experiment (E6).
func WAN(n int, multiVendor bool) *Topology { return testnet.WAN(n, multiVendor) }

// MultiRegionTopology returns the region-sharded scale shape: regions
// disconnected rings of per routers each, fully configured for IS-IS with
// globally unique addressing (the fixture behind `topogen -shape regions`).
// Run it with Options.ShardRegions to converge the regions in parallel.
func MultiRegionTopology(regions, per int) *Topology {
	return testnet.MultiRegionFabric(regions, per)
}

// ScaleLoopback returns the loopback address the generated IS-IS fabrics
// (MultiRegionTopology, topogen) assign to node index i (0-based).
func ScaleLoopback(i int) netip.Addr { return testnet.ScaleLoopback(i) }

// FeedGenerator builds synthetic BGP route feeds for injection.
type FeedGenerator = routegen.Generator

// NewFeedGenerator returns a deterministic feed generator.
func NewFeedGenerator(seed int64) *FeedGenerator { return routegen.New(seed) }

// LineTopology returns a bare n-node chain (configs must be filled in).
func LineTopology(n int, vendor topology.Vendor) *Topology { return topology.Line(n, vendor) }

// What-if exploration (§6 of the paper). "Any single link cut" is RunSweep
// with K: 1 and Kinds: SweepLink.
type (
	// OrderingReport compares dataplanes across event orderings.
	OrderingReport = core.OrderingReport
	// Invariant is a named predicate over a verification network.
	Invariant = core.Invariant
)

// ExploreOrderings re-emulates a snapshot under several event orderings and
// reports whether the converged dataplanes agree (the paper's
// non-determinism check).
func ExploreOrderings(snap Snapshot, opts Options, seeds []int64) (*OrderingReport, error) {
	return core.ExploreOrderings(snap, opts, seeds)
}

// Performance checking on the produced dataplane (§6).
type (
	// Demand is one traffic intent for utilization checking.
	Demand = verify.Demand
	// UtilizationReport carries per-link loads and undelivered demands.
	UtilizationReport = verify.UtilizationReport
)

// Observability: traces, metrics, and phase timing.
type (
	// Observer collects virtual-time trace events, metrics, and phase
	// timings from a pipeline run. Attach via Options.Obs; nil disables
	// observability at near-zero cost.
	Observer = obs.Observer
	// TraceEvent is one virtual-time trace record.
	TraceEvent = obs.Event
	// PhaseRecord is one completed pipeline phase (virtual + wall timing).
	PhaseRecord = obs.PhaseRecord
	// TimelineEntry is one router's convergence state (last RIB change,
	// route count), from Result.Emulator.ConvergenceTimeline().
	TimelineEntry = kne.TimelineEntry
)

// Trace event types (TraceEvent.Type values).
const (
	EvPodReady       = obs.EvPodReady
	EvStartupDone    = obs.EvStartupDone
	EvLinkUp         = obs.EvLinkUp
	EvLinkDown       = obs.EvLinkDown
	EvBGPSession     = obs.EvBGPSession
	EvISISAdjacency  = obs.EvISISAdjacency
	EvLSPFlood       = obs.EvLSPFlood
	EvRouteChurn     = obs.EvRouteChurn
	EvCrash          = obs.EvCrash
	EvConverged      = obs.EvConverged
	EvAFTExport      = obs.EvAFTExport
	EvSpanStart      = obs.EvSpanStart
	EvSpanEnd        = obs.EvSpanEnd
	EvPodCrash       = obs.EvPodCrash
	EvNodeDown       = obs.EvNodeDown
	EvNodeUp         = obs.EvNodeUp
	EvBGPReset       = obs.EvBGPReset
	EvDegraded       = obs.EvDegraded
	EvFaultInject    = obs.EvFaultInject
	EvFaultClear     = obs.EvFaultClear
	EvChaosVerdict   = obs.EvChaosVerdict
	EvQuarantine     = obs.EvQuarantine
	EvSweepCandidate = obs.EvSweepCandidate
	EvSweepVerdict   = obs.EvSweepVerdict
)

// NewObserver returns an observer collecting the full trace, metrics, and
// phase records. Same-seed runs produce byte-identical traces.
func NewObserver() *Observer { return obs.New() }

// NewMetricsObserver returns an observer recording metrics and phases but
// discarding trace events — the right sink for large runs. Live event
// subscribers (Observer.Subscribe, the HTTP /events stream) still receive
// events: the bus delivers without retaining.
func NewMetricsObserver() *Observer { return obs.NewMetricsOnly() }

// Live telemetry: the observer's streaming/serving face.
type (
	// ObsServer serves an observer over HTTP: /metrics (Prometheus text),
	// /metrics.json, /events (SSE), /phases, /healthz, /readyz, and an
	// embedded live dashboard at /. Readiness flips automatically when the
	// run's `converged` event passes the bus.
	ObsServer = obshttp.Server
	// ObsSubscription is one live event consumer attached with
	// Observer.Subscribe: a bounded stream with slow-client drop accounting
	// (see Dropped and the obs_dropped_events_total counter).
	ObsSubscription = obs.Subscription
	// MetricSnapshot is one metric series in a registry snapshot.
	MetricSnapshot = obs.Metric
)

// NewObsServer returns an HTTP server over the observer. Call Start(addr)
// to listen (":0" picks a free port and returns the bound address) and
// Close to tear down; Handler() exposes the mux for embedding.
func NewObsServer(o *Observer) *ObsServer { return obshttp.New(o) }

// Chaos engineering: deterministic fault injection with differential
// verification after every fault (set Options.Chaos, or drive the engine
// directly against Result.Emulator).
type (
	// ChaosScenario is a named, seeded fault timeline (JSON-serializable).
	ChaosScenario = chaos.Scenario
	// ChaosFault is one timed fault: link cut/flap/degrade, pod crash,
	// kube-node failure, or BGP session reset.
	ChaosFault = chaos.Fault
	// ChaosReport is the executed timeline with per-fault verdicts.
	ChaosReport = chaos.Report
	// ChaosVerdict scores one fault: flows lost, recovered, and the
	// reconvergence time on the virtual clock.
	ChaosVerdict = chaos.Verdict
	// Convergence is the outcome of a degraded or post-fault settle wait.
	Convergence = kne.Convergence
)

// Hardening & input validation: typed diagnostics and the preflight linter
// behind `mfv lint`.
type (
	// Diagnostic is one structured finding: severity, producing subsystem,
	// device, source path, input offset, and message. It implements error.
	Diagnostic = diag.Error
	// DiagnosticList is a sorted lint report; empty means clean.
	DiagnosticList = diag.List
	// Severity classifies a diagnostic (ordered: Info < Warning < Error <
	// Fatal, so comparisons like sev >= SevError are meaningful).
	Severity = diag.Severity
	// AFT is one device's extracted forwarding table (Result.AFTs values).
	AFT = aft.AFT
)

// Severities.
const (
	SevInfo    = diag.SevInfo
	SevWarning = diag.SevWarning
	SevError   = diag.SevError
	SevFatal   = diag.SevFatal
)

// LintSnapshot validates a snapshot before the expensive emulation boots:
// topology referential integrity, per-device config parses, duplicate
// router IDs and addresses, unresolvable static next hops, and MPLS LSP
// consistency. Findings are collected per device, never aborting the walk.
func LintSnapshot(topo *Topology) DiagnosticList { return lint.ValidateSnapshot(topo) }

// LintAFTs audits extracted forwarding state: per-device AFT integrity and
// cross-device MPLS label-table consistency.
func LintAFTs(topo *Topology, afts map[string]*AFT) DiagnosticList {
	return lint.ValidateAFTs(topo, afts)
}

// LintLive cross-checks each running router's exported AFT against its RIB
// on a completed run's emulator (Result.Emulator). Quarantined routers are
// skipped: their empty table is the containment contract.
func LintLive(em *kne.Emulator) DiagnosticList { return lint.ValidateLive(em) }

// Failure sweep: exhaustive k-failure resilience exploration with
// fingerprint-shared verification and ranked blast radii (run after a
// pipeline run, against Result.Emulator).
type (
	// SweepOptions configures a failure sweep: depth (k=1 or 2), element
	// kinds, worker pool, and the Brute switch disabling the prune.
	SweepOptions = sweep.Options
	// SweepReport is the full sweep outcome, rows ranked worst-first.
	SweepReport = sweep.Report
	// SweepRow is one ranked blast-radius result.
	SweepRow = sweep.Row
	// SweepKind selects a failure element class.
	SweepKind = sweep.Kind
	// SweepElement is one atomic failure in a candidate.
	SweepElement = sweep.Element
)

// Sweep element kinds.
const (
	SweepLink = sweep.KindLink
	SweepNode = sweep.KindNode
	SweepBGP  = sweep.KindBGP
)

// RunSweep enumerates every k-failure combination of the given kinds on a
// completed emulation run, applies each candidate, scores its blast radius
// against the healthy baseline with the delta differential, and rolls it
// back — returning the ranked report. Requires an emulation-backend result
// (Result.Emulator non-nil). With more than one lane the replica pool boots
// deterministic replays of the emulation, each gated on state-fingerprint
// equality with the converged baseline.
func RunSweep(res *Result, topo *Topology, opts SweepOptions) (*SweepReport, error) {
	if res.Emulator == nil {
		return nil, fmt.Errorf("mfv: RunSweep needs an emulation result (BackendEmulation)")
	}
	return sweep.Run(res.Emulator, topo, opts)
}

// ParseSweepKinds parses a comma-separated kind list ("link,node,bgp").
func ParseSweepKinds(csv string) ([]SweepKind, error) { return sweep.ParseKinds(csv) }

// Crash safety: durable snapshots of converged state (internal/store).
type (
	// StoredSnapshot is the on-disk converged-state artifact: versioned,
	// CRC-checksummed, atomically written. It embeds the topology and every
	// device's AFT, so it is self-contained — restore needs no topology
	// file, and `mfv run -from-snapshot` skips convergence entirely.
	StoredSnapshot = store.Snapshot
)

// CaptureSnapshot packages a completed emulation run into a durable
// snapshot (AFTs, topology hash, seed).
func CaptureSnapshot(topo *Topology, res *Result) (*StoredSnapshot, error) {
	return core.CaptureSnapshot(topo, res)
}

// RunFromSnapshot rebuilds a verification-ready Result from a stored
// snapshot without emulating: reachability, differential, and sweep-baseline
// use are all available; chaos and gNMI need a live emulation and are
// rejected.
func RunFromSnapshot(s *StoredSnapshot, opts Options) (*Result, error) {
	return core.RunFromSnapshot(s, opts)
}

// SaveSnapshot writes a snapshot atomically (temp + fsync + rename).
func SaveSnapshot(s *StoredSnapshot, path string) error { return s.Save(path) }

// LoadSnapshot reads and fully validates a snapshot file. Corruption,
// truncation, and version skew return Diagnostics — never a panic.
func LoadSnapshot(path string) (*StoredSnapshot, error) { return store.Load(path) }

// DataplaneHash digests a set of AFTs into the content identity stored in
// StoredSnapshot.DataplaneHash; use it to check a live run against a saved
// snapshot before trusting resumed artifacts.
func DataplaneHash(afts map[string]*AFT) string { return store.HashAFTs(afts) }

// HashBytes digests raw bytes into the hex identity used by
// StoredSnapshot.TopologyHash (compare against a re-marshaled topology to
// detect drift between a snapshot and a topology file).
func HashBytes(b []byte) string { return store.HashBytes(b) }

// ParseChaosScenario decodes and validates a scenario JSON file.
func ParseChaosScenario(data []byte) (*ChaosScenario, error) { return chaos.Parse(data) }

// ChaosBuiltin returns the named built-in scenario (a private copy).
func ChaosBuiltin(name string) (*ChaosScenario, bool) { return chaos.Builtin(name) }

// ChaosBuiltins lists the built-in scenarios, sorted by name.
func ChaosBuiltins() []*ChaosScenario { return chaos.Builtins() }
