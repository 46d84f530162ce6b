// What-if exploration (the directions sketched in §6 of the paper):
//
//  1. single-link-cut tolerance — sweep every k=1 link failure of the
//     converged emulation and check the "network keeps delivering"
//     invariant exhaustively;
//
//  2. ordering exploration — re-run the same snapshot under several event
//     orderings and confirm the converged dataplanes agree;
//
//  3. performance checking — route a demand matrix over the produced
//     dataplane and report per-link utilization.
//
//     go run ./examples/whatif
package main

import (
	"fmt"
	"log"
	"net/netip"

	"mfv"
)

func main() {
	linkCuts()
	orderings()
	utilization()
}

func linkCuts() {
	fmt.Println("=== single-link-cut exploration (Fig. 2 network) ===")
	topo := mfv.Fig2()
	res, err := mfv.Run(mfv.Snapshot{Topology: topo}, mfv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mfv.RunSweep(res, topo, mfv.SweepOptions{K: 1, Kinds: []mfv.SweepKind{mfv.SweepLink}})
	if err != nil {
		log.Fatal(err)
	}
	var critical []string
	for _, row := range rep.Rows {
		verdict := "absorbed (outcomes unchanged)"
		if row.FlowsLost > 0 {
			verdict = fmt.Sprintf("LOSES %d flows", row.FlowsLost)
			critical = append(critical, row.Failure)
		}
		fmt.Printf("  cut %-23s -> %s\n", row.Failure, verdict)
	}
	fmt.Printf("survives any single cut: %v", rep.Violations == 0)
	if rep.Violations > 0 {
		fmt.Printf("  (critical links, worst first: %v)", critical)
	}
	fmt.Println()
	fmt.Println()
}

func orderings() {
	fmt.Println("=== ordering exploration (non-determinism check) ===")
	rep, err := mfv.ExploreOrderings(mfv.Snapshot{Topology: mfv.Fig2()}, mfv.Options{},
		[]int64{1, 7, 42, 1234})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeds: %d, dataplanes agree: %v\n", rep.Seeds, rep.Agree)
	for i, c := range rep.ConvergedAt {
		fmt.Printf("  run %d converged at %v (virtual)\n", i+1, c.Round(1e9))
	}
	fmt.Println()
}

func utilization() {
	fmt.Println("=== link utilization for a demand matrix (Fig. 2) ===")
	res, err := mfv.Run(mfv.Snapshot{Topology: mfv.Fig2()}, mfv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Every AS1/AS3 router sends 10 units to every AS2 loopback: the
	// inter-AS links become the hot spots.
	var demands []mfv.Demand
	for _, src := range []string{"r3", "r4", "r5", "r6"} {
		for _, dst := range []string{"2.2.2.1", "2.2.2.2"} {
			demands = append(demands, mfv.Demand{
				Src: src, Dst: netip.MustParseAddr(dst), Rate: 10,
			})
		}
	}
	rep := res.Network.Utilization(demands)
	fmt.Print(rep)
	over := rep.OverCapacity(func(mfv.Endpoint) float64 { return 50 })
	fmt.Printf("links over a 50-unit capacity: %d\n", len(over))
}
