package core

import (
	"fmt"

	"mfv/internal/store"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// CaptureSnapshot packages a completed emulation run into a durable
// store.Snapshot: the topology (configs embedded), every device's AFT, the
// emulation seed, and the virtual timings. The snapshot is self-contained —
// RunFromSnapshot rebuilds the verification network from it with no
// emulation and no topology file.
func CaptureSnapshot(topo *topology.Topology, res *Result) (*store.Snapshot, error) {
	if res == nil || res.Backend != BackendEmulation {
		return nil, fmt.Errorf("core: snapshots capture emulation runs only (got backend %v)", res.Backend)
	}
	if topo == nil {
		return nil, fmt.Errorf("core: snapshot capture needs the topology")
	}
	topoJSON, err := topo.Marshal()
	if err != nil {
		return nil, fmt.Errorf("core: marshaling topology for snapshot: %w", err)
	}
	// Sharded runs keep no emulator; seed 0 records that the capture has no
	// single-emulation provenance.
	var seed int64
	if em := res.Emulator; em != nil {
		seed = em.Sim().Seed()
	}
	return store.New(topoJSON, res.AFTs, seed, res.StartupAt, res.ConvergedAt)
}

// RunFromSnapshot rebuilds a verification-ready Result from a stored
// snapshot, skipping emulation and convergence entirely. The restored Result
// has no live Emulator, so it answers reachability/differential queries and
// seeds sweeps (which re-converge their own baseline and gate it on the
// snapshot's dataplane hash) but cannot host chaos injection or gNMI
// extraction — those options are rejected up front.
func RunFromSnapshot(s *store.Snapshot, opts Options) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if opts.Chaos != nil {
		return nil, fmt.Errorf("core: chaos scenarios need a live emulation, not a restored snapshot")
	}
	if opts.UseGNMI {
		return nil, fmt.Errorf("core: gNMI extraction needs a live emulation, not a restored snapshot")
	}
	if opts.ShardRegions {
		return nil, fmt.Errorf("core: -sharded does not apply to a restored snapshot")
	}
	topo, err := s.Topology()
	if err != nil {
		return nil, err
	}
	afts, err := s.AFTs()
	if err != nil {
		return nil, err
	}
	sp := opts.Obs.StartPhase("restore")
	network, err := verify.NewNetwork(topo, afts)
	sp.End()
	if err != nil {
		return nil, err
	}
	network.SetObserver(opts.Obs)
	network.SetWorkers(opts.Workers)
	return &Result{
		Backend:     BackendSnapshot,
		AFTs:        afts,
		Network:     network,
		StartupAt:   s.StartupAt,
		ConvergedAt: s.ConvergedAt,
	}, nil
}
