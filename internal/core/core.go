// Package core implements the paper's primary contribution: the model-free
// verification pipeline. A Snapshot (configs + topology + external route
// context) is run through either backend —
//
//   - BackendEmulation: full control-plane emulation under the KNE-like
//     orchestrator until the dataplane stabilizes, then AFT extraction
//     (in-process or over the gNMI service), or
//   - BackendModel: the partial-parser + reference-model baseline
//     (internal/model), standing in for Batfish's native IBDP path —
//
// and the resulting dataplanes feed the verification engine
// (internal/verify). Because both backends emit the same AFT format, the
// differential-reachability question runs unchanged across backends, which
// is how the paper surfaces model bugs (experiment E3).
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"mfv/internal/aft"
	"mfv/internal/chaos"
	"mfv/internal/diag"
	"mfv/internal/gnmi"
	"mfv/internal/kne"
	"mfv/internal/model"
	"mfv/internal/obs"
	"mfv/internal/par"
	"mfv/internal/routegen"
	"mfv/internal/sim"
	"mfv/internal/topology"
	"mfv/internal/verify"
	"mfv/internal/vrouter"
)

// Backend selects how the dataplane is produced.
type Backend int

// Backends.
const (
	// BackendEmulation is the model-free path: real protocol engines under
	// emulation.
	BackendEmulation Backend = iota
	// BackendModel is the reference-model baseline (Batfish-analogue).
	BackendModel
	// BackendSnapshot restores a previously captured converged dataplane
	// from a durable store.Snapshot — no control-plane emulation, no
	// convergence wait, just the stored AFTs rebuilt into a verification
	// network (RunFromSnapshot).
	BackendSnapshot
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendModel:
		return "model"
	case BackendSnapshot:
		return "snapshot"
	default:
		return "emulation"
	}
}

// InjectedFeed attaches an external BGP peer feeding routes into the
// snapshot (the paper's production-route injection).
type InjectedFeed struct {
	// Router is the device that has the peer configured.
	Router string
	// PeerAddr is the external peer's address (must match a neighbor
	// statement on Router).
	PeerAddr netip.Addr
	// PeerAS is the external AS.
	PeerAS uint32
	// Feeds are the announcements.
	Feeds []routegen.Feed
}

// Snapshot is one verification input: the paper's "configs + topology +
// context".
type Snapshot struct {
	Topology *topology.Topology
	Feeds    []InjectedFeed
	// DownLinks fails the named links before convergence (what-if context).
	DownLinks []topology.Endpoint
}

// Options tunes a pipeline run.
type Options struct {
	Backend Backend
	// ConvergenceHold is how long the dataplane must stay unchanged to be
	// considered converged (default 30 s of virtual time).
	ConvergenceHold time.Duration
	// Timeout bounds the virtual-time wait for convergence (default 2 h).
	Timeout time.Duration
	// Seed fixes the emulation's randomness.
	Seed int64
	// UseGNMI extracts AFTs over the TCP gNMI service instead of reading
	// them in-process, exercising the full management-plane boundary.
	UseGNMI bool
	// Retry governs gNMI extraction retries; the zero value uses
	// gnmi.DefaultRetry. Only consulted when UseGNMI is set.
	Retry gnmi.RetryPolicy
	// Obs collects trace events, metrics, and phase timings from the whole
	// pipeline. Nil disables observability.
	Obs *obs.Observer
	// Chaos, when set, executes the fault scenario after initial
	// convergence and verifies reachability across every fault (emulation
	// backend only). A non-zero scenario Seed overrides Seed.
	Chaos *chaos.Scenario
	// Degraded converges in graceful-degradation mode: if the timeout
	// expires, the run proceeds with partial AFTs and the straggler
	// devices recorded in Result.DegradedRouters instead of failing.
	Degraded bool
	// Workers sizes the worker pool the batch verification queries
	// (differential, all-pairs, loop and black-hole sweeps) shard flows
	// across. Zero selects runtime.GOMAXPROCS; one forces sequential
	// evaluation. Output is byte-identical at any setting.
	Workers int
	// Ctx, when non-nil, bounds the run in wall-clock time: convergence
	// waits stop advancing virtual time once it expires, and a chaos
	// scenario returns a partial, Interrupted report.
	Ctx context.Context
	// ShardRegions runs the emulation backend region-by-region: each
	// connected component of the topology (topology.Regions) gets its own
	// emulator with a deterministically derived seed, the regions converge
	// in parallel, and each finished region's AFTs stream into the
	// accumulating verification snapshot. Because no link crosses a region,
	// the per-region fixed points are identical to the whole-network run's.
	// Incompatible with Chaos and UseGNMI (both need one emulator spanning
	// the network); Result.Emulator is nil on sharded runs.
	ShardRegions bool
}

func (o *Options) fill() {
	if o.ConvergenceHold == 0 {
		o.ConvergenceHold = 30 * time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Hour
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Chaos != nil && o.Chaos.Seed != 0 {
		o.Seed = o.Chaos.Seed
	}
}

// Result is a completed pipeline run.
type Result struct {
	Backend Backend
	// AFTs is the extracted dataplane, per device.
	AFTs map[string]*aft.AFT
	// Network is the verification view over the AFTs.
	Network *verify.Network
	// StartupAt is the virtual time when all pods were Running (emulation
	// backend only).
	StartupAt time.Duration
	// ConvergedAt is the virtual time of the last dataplane change
	// (emulation backend only).
	ConvergedAt time.Duration
	// Coverage is the parsing coverage report (model backend only — the
	// emulation backend's vendor parsers accept the full dialect).
	Coverage map[string]model.Coverage
	// Emulator stays alive for poking at routers (emulation backend only).
	Emulator *kne.Emulator
	// Chaos is the fault-injection report when Options.Chaos was set.
	Chaos *chaos.Report
	// DegradedRouters lists devices that had not settled when a degraded
	// run's timeout expired; their AFTs may be mid-churn.
	DegradedRouters []string
	// QuarantinedRouters lists devices contained after hostile input — a
	// corrupted config, an undecodable AFT, or a handler panic caught by the
	// per-router recover boundary. A quarantined router contributes an empty
	// AFT; the rest of the network is verified around it.
	QuarantinedRouters []string
}

// Run executes the pipeline on a snapshot.
func Run(snap Snapshot, opts Options) (*Result, error) {
	opts.fill()
	if snap.Topology == nil {
		return nil, fmt.Errorf("core: snapshot has no topology")
	}
	switch opts.Backend {
	case BackendModel:
		return runModel(snap, opts)
	case BackendEmulation:
		return runEmulation(snap, opts)
	default:
		return nil, fmt.Errorf("core: unknown backend %d", opts.Backend)
	}
}

func runModel(snap Snapshot, opts Options) (*Result, error) {
	if opts.Chaos != nil {
		// Fault injection needs live protocol engines to react; the static
		// model computes one fixed point and has nothing to perturb.
		return nil, fmt.Errorf("core: the model backend does not support chaos scenarios")
	}
	if len(snap.Feeds) > 0 {
		// The reference model has no route-injection path in this
		// reproduction — one more coverage limitation of the baseline.
		return nil, fmt.Errorf("core: the model backend does not support injected feeds")
	}
	sp := opts.Obs.StartPhase("parse")
	res, err := model.Run(snap.Topology)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opts.Obs.StartPhase("verify")
	network, err := verify.NewNetwork(snap.Topology, res.AFTs)
	sp.End()
	if err != nil {
		return nil, err
	}
	network.SetObserver(opts.Obs)
	network.SetWorkers(opts.Workers)
	return &Result{
		Backend:  BackendModel,
		AFTs:     res.AFTs,
		Network:  network,
		Coverage: res.Coverage,
	}, nil
}

func runEmulation(snap Snapshot, opts Options) (*Result, error) {
	if opts.ShardRegions {
		return runEmulationSharded(snap, opts)
	}
	spare := 0
	if opts.Chaos != nil {
		spare = opts.Chaos.SpareNodes
	}
	em, conv, err := bootEmulation(kne.Config{Topology: snap.Topology, Sim: sim.New(opts.Seed), Obs: opts.Obs, SpareNodes: spare, Ctx: opts.Ctx}, snap.Feeds, snap.DownLinks, opts)
	if err != nil {
		return nil, err
	}
	var chaosRep *chaos.Report
	if opts.Chaos != nil {
		sp := opts.Obs.StartPhase("chaos")
		chaosRep, err = chaos.NewEngine(em, snap.Topology, opts.Obs).WithWorkers(opts.Workers).WithContext(opts.Ctx).Execute(opts.Chaos)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	sp := opts.Obs.StartPhase("extract")
	var afts map[string]*aft.AFT
	if opts.UseGNMI {
		afts, err = extractViaGNMI(em, opts.Retry, opts.Obs)
	} else {
		afts = em.AFTs()
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opts.Obs.StartPhase("verify")
	network, err := verify.NewNetwork(snap.Topology, afts)
	sp.End()
	if err != nil {
		return nil, err
	}
	network.SetObserver(opts.Obs)
	network.SetWorkers(opts.Workers)
	if opts.Obs != nil {
		// Populate ec_count (and the traces counter baseline) eagerly so a
		// metrics dump right after Run already shows the EC population.
		network.EquivalenceClasses()
	}
	return &Result{
		Backend:            BackendEmulation,
		AFTs:               afts,
		Network:            network,
		StartupAt:          em.StartupDone(),
		ConvergedAt:        conv.ConvergedAt,
		Emulator:           em,
		Chaos:              chaosRep,
		DegradedRouters:    conv.Stragglers,
		QuarantinedRouters: em.QuarantinedRouters(),
	}, nil
}

// runEmulationSharded is the 10k-router path: one emulator per topology
// region (connected component), converged in parallel across a worker pool,
// with each finished region's AFTs streamed into a growing verify.Network
// via UpdateFrom. Exactness: no link crosses a region, so no adjacency, RIB
// route, or forwarding walk in the whole-network run could cross one either
// — every region computes the same fixed point it would inside the single
// emulator, and the merge below reassembles the same Result surface.
// Region emulators run without the observer (it binds a single virtual
// clock; hundreds of concurrent region clocks would interleave nonsense);
// the sharded run records aggregate phases on opts.Obs instead, and each
// emulator is stopped and released as soon as its tables are folded, so
// peak memory is one region's control plane plus the shared AFTs.
func runEmulationSharded(snap Snapshot, opts Options) (*Result, error) {
	if opts.Chaos != nil {
		return nil, fmt.Errorf("core: sharded runs do not support chaos scenarios (faults need one emulator spanning the network)")
	}
	if opts.UseGNMI {
		return nil, fmt.Errorf("core: sharded runs extract in-process; gNMI extraction needs one management plane")
	}
	regions := snap.Topology.Regions()
	if len(regions) <= 1 {
		o := opts
		o.ShardRegions = false
		return runEmulation(snap, o)
	}
	// Route injected feeds and what-if link failures to their owning region.
	nodeRegion := make(map[string]int, len(snap.Topology.Nodes))
	for i, names := range regions {
		for _, name := range names {
			nodeRegion[name] = i
		}
	}
	feeds := make([][]InjectedFeed, len(regions))
	for _, f := range snap.Feeds {
		i, ok := nodeRegion[f.Router]
		if !ok {
			return nil, fmt.Errorf("core: feed router %q not in topology", f.Router)
		}
		feeds[i] = append(feeds[i], f)
	}
	downs := make([][]topology.Endpoint, len(regions))
	for _, ep := range snap.DownLinks {
		i, ok := nodeRegion[ep.Node]
		if !ok {
			return nil, fmt.Errorf("core: down-link endpoint node %q not in topology", ep.Node)
		}
		downs[i] = append(downs[i], ep)
	}

	type regionOut struct {
		startup     time.Duration
		converged   time.Duration
		stragglers  []string
		quarantined []string
	}
	network, err := verify.NewNetwork(snap.Topology, nil)
	if err != nil {
		return nil, err
	}
	var (
		outs    = make([]regionOut, len(regions))
		allAFTs = map[string]*aft.AFT{}
		foldMu  sync.Mutex // guards allAFTs and network
	)
	runRegion := func(i int) error {
		names := regions[i]
		em, conv, err := bootEmulation(kne.Config{
			Topology: snap.Topology.Subtopology(names),
			// Seeds are derived, not shared: every region must draw its own
			// deterministic stream regardless of scheduling order.
			Sim: sim.New(opts.Seed + int64(i)),
			Ctx: opts.Ctx,
		}, feeds[i], downs[i], opts)
		if err != nil {
			return fmt.Errorf("core: region %s: %w", names[0], err)
		}
		defer em.Stop()
		outs[i] = regionOut{em.StartupDone(), conv.ConvergedAt, conv.Stragglers, em.QuarantinedRouters()}
		regionAFTs := make(map[string]*aft.AFT, len(names))
		em.StreamAFTs(func(name string, a *aft.AFT) { regionAFTs[name] = a })
		// Fold this region into the accumulating snapshot. UpdateFrom reuses
		// every already-built device, so the fold costs one region's AFT
		// indexing plus a map copy, not a rebuild of the whole network.
		foldMu.Lock()
		defer foldMu.Unlock()
		for name, a := range regionAFTs {
			allAFTs[name] = a
		}
		next, err := network.UpdateFrom(allAFTs)
		if err != nil {
			return err
		}
		network = next
		return nil
	}

	wallStart := time.Now()
	if err := par.Do(len(regions), 0, runRegion); err != nil {
		return nil, err
	}

	var startupAt, convergedAt time.Duration
	var stragglers, quarantined []string
	for _, o := range outs {
		startupAt = max(startupAt, o.startup)
		convergedAt = max(convergedAt, o.converged)
		stragglers = append(stragglers, o.stragglers...)
		quarantined = append(quarantined, o.quarantined...)
	}
	sort.Strings(stragglers)
	sort.Strings(quarantined)
	opts.Obs.RecordPhase("converge", 0, convergedAt, time.Since(wallStart))

	sp := opts.Obs.StartPhase("verify")
	network.SetObserver(opts.Obs)
	network.SetWorkers(opts.Workers)
	if opts.Obs != nil {
		network.EquivalenceClasses()
	}
	sp.End()
	return &Result{
		Backend:            BackendEmulation,
		AFTs:               allAFTs,
		Network:            network,
		StartupAt:          startupAt,
		ConvergedAt:        convergedAt,
		DegradedRouters:    stragglers,
		QuarantinedRouters: quarantined,
	}, nil
}

// bootEmulation is the one boot path: build the emulator, attach and replay
// the injected feeds, start it, fail the what-if links, and wait for
// convergence (degraded or strict per opts). The "parse" and "schedule"
// phases land on cfg.Obs; boot and converge are recorded inside the wait,
// where the startup/churn boundary is actually observed. On error the
// emulator is stopped and not returned.
func bootEmulation(cfg kne.Config, feeds []InjectedFeed, downs []topology.Endpoint, opts Options) (em *kne.Emulator, conv kne.Convergence, err error) {
	sp := cfg.Obs.StartPhase("parse")
	em, err = kne.New(cfg)
	sp.End()
	if err != nil {
		return nil, conv, err
	}
	defer func() {
		if err != nil {
			em.Stop()
			em = nil
		}
	}()
	sp = cfg.Obs.StartPhase("schedule")
	for _, f := range feeds {
		inj, err := em.AddInjector(f.Router, f.PeerAddr, f.PeerAS)
		if err != nil {
			return em, conv, err
		}
		for _, feed := range f.Feeds {
			inj.Announce(feed.Prefixes, feed.Attrs)
		}
	}
	if err := em.Start(); err != nil {
		return em, conv, err
	}
	for _, ep := range downs {
		if err := em.SetLinkDown(ep); err != nil {
			return em, conv, err
		}
	}
	sp.End()
	if opts.Degraded {
		conv, err = em.RunUntilConvergedDegraded(opts.ConvergenceHold, opts.Timeout)
	} else {
		conv.ConvergedAt, err = em.RunUntilConverged(opts.ConvergenceHold, opts.Timeout)
	}
	return em, conv, err
}

// BuildReplicas forwards to kne.BuildReplicas, the one replica factory. It
// stays because the bench/e2e harness calls it by this name and signature.
func BuildReplicas(primary *kne.Emulator, n int, wantFP string, hold, timeout time.Duration) ([]*kne.Emulator, error) {
	return kne.BuildReplicas(primary, n, wantFP, hold, timeout)
}

// routerTarget adapts a virtual router to the gNMI Target interface.
type routerTarget struct{ r *vrouter.Router }

func (t routerTarget) Hostname() string { return t.r.Name }
func (t routerTarget) AFT() *aft.AFT    { return t.r.ExportAFT() }
func (t routerTarget) RouteSummary() map[string]int {
	out := map[string]int{}
	for _, rt := range t.r.RIB().Routes() {
		out[rt.Protocol.String()]++
	}
	return out
}

// extractViaGNMI spins up the management service on loopback TCP, connects
// a client, and pulls every device's AFT through it — the full extraction
// boundary from the paper's Fig. 1. Pulls run under the retry policy so a
// transiently unresponsive target costs backoff, not the run.
func extractViaGNMI(em *kne.Emulator, retry gnmi.RetryPolicy, o *obs.Observer) (map[string]*aft.AFT, error) {
	srv := gnmi.NewServer()
	srv.SetObserver(o)
	for _, r := range em.Routers() {
		srv.AddTarget(routerTarget{r})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: gnmi listen: %w", err)
	}
	srv.Serve(ln)
	defer srv.Close()

	client, err := gnmi.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if retry.Attempts == 0 {
		retry = gnmi.DefaultRetry
	}
	return pullAFTs(em, func(name string) (*aft.AFT, error) {
		return retry.GetAFT(client, name)
	})
}

// pullAFTs drains every router's table through pull. A payload that arrives
// but fails to decode or validate (a *diag.Error) is hostile output from
// one device, not a broken extraction path: the device is quarantined and
// contributes an empty AFT so the rest of the network still gets verified.
// Transport errors abort the extraction as before.
func pullAFTs(em *kne.Emulator, pull func(name string) (*aft.AFT, error)) (map[string]*aft.AFT, error) {
	out := map[string]*aft.AFT{}
	for _, r := range em.Routers() {
		a, err := pull(r.Name)
		if err != nil {
			var de *diag.Error
			if errors.As(err, &de) {
				_ = em.QuarantineRouter(r.Name, de.Error())
				out[r.Name] = &aft.AFT{Device: r.Name}
				continue
			}
			return nil, fmt.Errorf("core: pulling AFT for %s: %w", r.Name, err)
		}
		out[r.Name] = a
	}
	return out, nil
}

// Differential runs differential reachability between two completed runs —
// between two emulated snapshots (E1) or across backends on the same
// snapshot (E3).
func Differential(before, after *Result) []verify.Diff {
	return verify.Differential(before.Network, after.Network)
}

// RouteCount sums installed RIB routes per protocol across the emulated
// network, for reporting.
func (r *Result) RouteCount() map[string]int {
	out := map[string]int{}
	if r.Emulator == nil {
		for _, a := range r.AFTs {
			for _, e := range a.IPv4Entries {
				out[e.Origin]++
			}
		}
		return out
	}
	for _, rt := range r.Emulator.Routers() {
		for _, route := range rt.RIB().Routes() {
			out[route.Protocol.String()]++
		}
	}
	return out
}
