package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"mfv/internal/verify"
)

// This file holds the ordering exploration and the named invariants. The
// paper's other §6 direction — properties "in the face of any single link
// cut" — is not a second engine here: it is the failure sweep at k=1 over
// link elements (internal/sweep), which chains candidates on one converged
// emulation instead of re-emulating per cut.

// OrderingReport is the result of re-running a snapshot under different
// event orderings.
type OrderingReport struct {
	Seeds int
	// Agree reports whether every run produced an identical forwarding
	// state on every device.
	Agree bool
	// DivergentDevices lists devices whose AFT differed across runs.
	DivergentDevices []string
	// ConvergedAt collects per-seed convergence times (they may differ even
	// when the final dataplane agrees).
	ConvergedAt []time.Duration
}

// ExploreOrderings addresses the paper's §6 non-determinism concern: one
// emulation run yields one converged state, so for higher confidence the
// same snapshot is emulated under several event orderings (seeds) and the
// resulting dataplanes are compared. Protocol tie-breaks that depend on
// message timing surface here as divergent devices.
func ExploreOrderings(snap Snapshot, opts Options, seeds []int64) (*OrderingReport, error) {
	if len(seeds) < 2 {
		return nil, fmt.Errorf("core: ordering exploration needs at least 2 seeds")
	}
	report := &OrderingReport{Seeds: len(seeds), Agree: true}
	var first map[string]string // device -> fingerprint
	divergent := map[string]bool{}
	for _, seed := range seeds {
		o := opts
		o.Seed = seed
		res, err := Run(snap, o)
		if err != nil {
			return nil, fmt.Errorf("core: seed %d: %w", seed, err)
		}
		report.ConvergedAt = append(report.ConvergedAt, res.ConvergedAt)
		fps := map[string]string{}
		for name, a := range res.AFTs {
			fps[name] = a.Fingerprint()
		}
		if first == nil {
			first = fps
			continue
		}
		for name, fp := range fps {
			if first[name] != fp {
				divergent[name] = true
				report.Agree = false
			}
		}
	}
	for name := range divergent {
		report.DivergentDevices = append(report.DivergentDevices, name)
	}
	sort.Strings(report.DivergentDevices)
	return report, nil
}

// Reachability invariant helpers used by explorers and the CLI.

// Invariant is a named predicate over a verification network.
type Invariant struct {
	Name  string
	Check func(*verify.Network) error
}

// AllLoopbacksReachable builds an invariant requiring every device to reach
// every address in dsts.
func AllLoopbacksReachable(dsts []netip.Addr) Invariant {
	return Invariant{
		Name: "all-loopbacks-reachable",
		Check: func(n *verify.Network) error {
			for _, src := range n.Devices() {
				for _, dst := range dsts {
					if !n.Reachable(src, dst) {
						return fmt.Errorf("%s cannot reach %v", src, dst)
					}
				}
			}
			return nil
		},
	}
}

// NoForwardingLoops is the invariant that no packet class loops.
func NoForwardingLoops() Invariant {
	return Invariant{
		Name: "no-forwarding-loops",
		Check: func(n *verify.Network) error {
			if loops := n.DetectLoops(); len(loops) > 0 {
				return fmt.Errorf("%d forwarding loops (first: dst %v from %s)",
					len(loops), loops[0].Dst, loops[0].Src)
			}
			return nil
		},
	}
}

// CheckInvariants evaluates invariants over a result, returning one error
// per violated invariant.
func CheckInvariants(res *Result, invs []Invariant) map[string]error {
	out := map[string]error{}
	for _, inv := range invs {
		if err := inv.Check(res.Network); err != nil {
			out[inv.Name] = err
		}
	}
	return out
}
