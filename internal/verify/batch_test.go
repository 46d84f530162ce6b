package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mfv/internal/aft"
	"mfv/internal/obs"
	"mfv/internal/topology"
)

// ecmpChain builds a chain of n routers where every consecutive pair is
// wired twice and every router ECMPs 9.0.0.0/8 across both parallel links;
// the last router delivers. Branch count doubles per hop: 2^(n-1) paths.
func ecmpChain(n int) (*topology.Topology, map[string]*aft.AFT) {
	topo := &topology.Topology{Name: "ecmp-chain"}
	for i := 1; i <= n; i++ {
		topo.Nodes = append(topo.Nodes, topology.Node{Name: fmt.Sprintf("r%d", i), Vendor: topology.VendorEOS})
	}
	for i := 1; i < n; i++ {
		a, z := fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", i+1)
		topo.Links = append(topo.Links,
			topology.Link{A: topology.Endpoint{Node: a, Interface: "Ethernet1"}, Z: topology.Endpoint{Node: z, Interface: "Ethernet3"}},
			topology.Link{A: topology.Endpoint{Node: a, Interface: "Ethernet2"}, Z: topology.Endpoint{Node: z, Interface: "Ethernet4"}},
		)
	}
	afts := map[string]*aft.AFT{}
	for i := 1; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		afts[name] = buildAFT(aftSpec{device: name, routes: map[string]string{"9.0.0.0/8": "Ethernet1|Ethernet2"}})
	}
	last := fmt.Sprintf("r%d", n)
	afts[last] = buildAFT(aftSpec{device: last, routes: map[string]string{"9.0.0.0/8": "recv"}})
	return topo, afts
}

// TestTraceTruncatedSurfaced: a capped ECMP explosion must flag the trace
// and bump the truncation counter instead of silently dropping branches.
func TestTraceTruncatedSurfaced(t *testing.T) {
	topo, afts := ecmpChain(8) // 2^7 = 128 branches > maxBranches
	n := mustNet(t, topo, afts)
	o := obs.New()
	n.SetObserver(o)
	tr := n.Trace("r1", addr("9.1.1.1"))
	if !tr.Truncated {
		t.Fatalf("trace with %d paths not flagged truncated", len(tr.Paths))
	}
	if len(tr.Paths) != maxBranches {
		t.Errorf("paths = %d, want capped at %d", len(tr.Paths), maxBranches)
	}
	if v := o.Counter("verify_trace_truncated_total").Value(); v != 1 {
		t.Errorf("verify_trace_truncated_total = %d, want 1", v)
	}
	// A small trace stays unflagged.
	small := n.Trace("r7", addr("9.1.1.1"))
	if small.Truncated {
		t.Errorf("2-branch trace flagged truncated: %+v", small)
	}
	if v := o.Counter("verify_trace_truncated_total").Value(); v != 1 {
		t.Errorf("counter moved on untruncated trace: %d", v)
	}
}

// TestBatchDeterministicAcrossWorkers: every batch query must produce
// byte-identical output for workers = 1, 2, 8 and the GOMAXPROCS defaults
// (0, negative) on seeded random networks.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		_, before, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		_, after, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			diffs  string
			loops  string
			holes  string
			matrix string
		}
		var want result
		for i, workers := range []int{1, 2, 8, 0, -4} {
			q := Queries{Workers: workers}
			got := result{
				diffs:  fmt.Sprintf("%+v", q.Differential(before, after)),
				loops:  fmt.Sprintf("%+v", q.DetectLoops(before)),
				holes:  fmt.Sprintf("%+v", q.DetectBlackHoles(before)),
				matrix: fmt.Sprintf("%+v", renderMatrix(q.AllPairs(before))),
			}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d: workers=%d output differs from workers=1", seed, workers)
			}
		}
	}
}

// renderMatrix flattens a ReachMatrix into a deterministic string (map
// iteration order would otherwise leak into the comparison).
func renderMatrix(m ReachMatrix) string {
	s := ""
	for _, src := range m.Sources {
		for _, dst := range m.Dsts {
			s += fmt.Sprintf("%s>%v=%v;", src, dst, m.Reach[src][dst])
		}
	}
	return s
}

// TestBatchDifferentialMatchesSequentialOrder: the parallel merge must
// reproduce the sequential (source-major, class-minor) evaluation order.
func TestBatchDifferentialMatchesSequentialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	_, before, err := buildRandom(r, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	_, after, err := buildRandom(r, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference: the pre-engine implementation.
	var want []Diff
	for _, src := range unionStrings(before.Devices(), after.Devices()) {
		for _, rep := range unionAddrs(before.EquivalenceClasses(), after.EquivalenceClasses()) {
			a := before.Trace(src, rep).Outcome()
			b := after.Trace(src, rep).Outcome()
			if a != b {
				want = append(want, Diff{Src: src, Dst: rep, Before: a, After: b})
			}
		}
	}
	got := Queries{Workers: 4}.Differential(before, after)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel differential diverges from sequential reference:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestBatchAllPairsMatchesTraceSemantics: the memoized matrix must agree
// with per-flow Trace evaluation.
func TestBatchAllPairsMatchesTraceSemantics(t *testing.T) {
	topo, afts := lineNet()
	n := mustNet(t, topo, afts)
	m := Queries{Workers: 3}.AllPairs(n)
	for _, src := range m.Sources {
		for _, dst := range m.Dsts {
			if got, want := m.Reach[src][dst], n.Trace(src, dst).Delivered(); got != want {
				t.Errorf("Reach[%s][%v] = %v, Trace says %v", src, dst, got, want)
			}
		}
	}
}

// TestMemoMetrics: a repeated query against the same snapshot must hit the
// per-class memo — a rerun pays once — and the query/flow counters must
// advance.
func TestMemoMetrics(t *testing.T) {
	topo, afts := lineNet()
	// r2 sends 9/8 back to r1: a two-node loop.
	afts["r2"] = buildAFT(aftSpec{device: "r2", routes: map[string]string{"9.0.0.0/8": "Ethernet1", "1.1.1.2/32": "recv"}})
	n := mustNet(t, topo, afts)
	o := obs.New()
	n.SetObserver(o)

	first := n.DetectLoops()
	if len(first) == 0 {
		t.Fatal("no loop to detect")
	}
	misses := o.Counter("verify_memo_misses_total").Value()
	if misses == 0 {
		t.Fatal("first query recorded no memo misses")
	}
	if v := o.Counter("verify_queries_total").Value(); v != 1 {
		t.Errorf("verify_queries_total = %d, want 1", v)
	}
	if v := o.Counter("verify_flows_total").Value(); v == 0 {
		t.Error("verify_flows_total = 0")
	}

	second := n.DetectLoops()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized rerun changed the result")
	}
	if v := o.Counter("verify_memo_misses_total").Value(); v != misses {
		t.Errorf("rerun recomputed outcomes: misses %d -> %d", misses, v)
	}
	if v := o.Counter("verify_memo_hits_total").Value(); v == 0 {
		t.Error("rerun recorded no memo hits")
	}
	if h := o.Histogram("verify_wall_ns", "query", "loops"); h.Count() != 2 {
		t.Errorf("loops wall histogram count = %d, want 2", h.Count())
	}
}

// TestQueriesWorkerDefaults: a negative Network setting is stored as the
// zero "GOMAXPROCS" default. (That zero and negative Queries.Workers select
// GOMAXPROCS is internal/par's contract and is tested there; the 0 and -4
// arms of TestBatchDeterministicAcrossWorkers show they do not wedge a query.)
func TestQueriesWorkerDefaults(t *testing.T) {
	n := &Network{}
	n.SetWorkers(-1)
	if n.workers != 0 {
		t.Errorf("SetWorkers(-1) stored %d, want 0", n.workers)
	}
}

// TestSolverLoopLabelsAreEntryRelative: loop outcomes must name the first
// revisited device exactly as the sequential walk does, for every entry
// point into the cycle — the case naive SCC-level caching gets wrong.
func TestSolverLoopLabelsAreEntryRelative(t *testing.T) {
	// r1 -> r2 -> r1 two-node loop for 9/8; r3 feeds into it.
	topo := &topology.Topology{
		Name: "loop",
		Nodes: []topology.Node{
			{Name: "r1", Vendor: topology.VendorEOS},
			{Name: "r2", Vendor: topology.VendorEOS},
			{Name: "r3", Vendor: topology.VendorEOS},
		},
		Links: []topology.Link{
			{A: topology.Endpoint{Node: "r1", Interface: "Ethernet1"}, Z: topology.Endpoint{Node: "r2", Interface: "Ethernet1"}},
			{A: topology.Endpoint{Node: "r3", Interface: "Ethernet1"}, Z: topology.Endpoint{Node: "r1", Interface: "Ethernet2"}},
		},
	}
	afts := map[string]*aft.AFT{
		"r1": buildAFT(aftSpec{device: "r1", routes: map[string]string{"9.0.0.0/8": "Ethernet1"}}),
		"r2": buildAFT(aftSpec{device: "r2", routes: map[string]string{"9.0.0.0/8": "Ethernet1"}}),
		"r3": buildAFT(aftSpec{device: "r3", routes: map[string]string{"9.0.0.0/8": "Ethernet1"}}),
	}
	n := mustNet(t, topo, afts)
	dst := addr("9.1.1.1")
	oc := n.outcomesFor(dst)
	for _, src := range n.Devices() {
		if got, want := oc.outcome(src), n.Trace(src, dst).Outcome(); got != want {
			t.Errorf("memoized outcome from %s = %q, trace says %q", src, got, want)
		}
	}
}
