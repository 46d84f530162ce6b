// Command mfv is the model-free verification CLI: it runs the pipeline on a
// topology file (JSON, configs embedded) and answers verification queries.
//
// Usage:
//
//	mfv run       -topo net.json [-backend emulation|model] [-gnmi]
//	              [-trace out.jsonl] [-metrics] [-timeline]
//	mfv lint      -topo net.json [-live]
//	mfv reach     -topo net.json -src r1 -dst 2.2.2.4
//	mfv trace     -topo net.json -src r1 -dst 2.2.2.4
//	mfv diff      -topo before.json -topo2 after.json
//	mfv coverage  -topo net.json
//	mfv loops     -topo net.json
//	mfv show      -topo net.json -node r1 [-cmd route|isis|isis-nbr|bgp|mpls|interfaces]
//	mfv sweep     -topo net.json [-k 1|2] [-kinds link,node,bgp]
//	              (exhaustive k-failure sweep; -k 1 -kinds link answers
//	              "does the network survive any single link cut?")
//	mfv scenarios -out DIR        (write the paper's Fig2/Fig3 topologies)
//	mfv chaos     [-write DIR]    (list built-in fault scenarios)
//	mfv chaos     -topo net.json [-scenario NAME|FILE] [-listen ADDR]
//	              (execute a fault scenario, optionally watched live)
//	mfv snapshot  save -topo net.json -file snap.mfv  (converge once, persist)
//	mfv snapshot  load -file snap.mfv                 (validate + summarize)
//
// Crash safety: run, diff, reach, trace, and loops take -from-snapshot FILE
// (and diff -from-snapshot2) to restore converged state from a durable
// snapshot instead of booting the emulation; sweep -from-snapshot gates its
// baseline on the snapshot's dataplane hash. sweep -journal DIR appends each
// verdict to a write-ahead journal and sweep -resume DIR restores completed
// candidates after a crash, SIGINT, or -timeout expiry — the resumed report
// is byte-identical to an uninterrupted run. Every subcommand that boots an
// emulation honours -timeout DUR and SIGINT/SIGTERM: both cancel the run
// context, whatever partial report exists is emitted, and the exit code is 5.
//
// The run command also takes -chaos NAME|FILE to inject a deterministic
// fault scenario after convergence and -degraded to accept partial
// convergence on timeout. Every command takes -workers N to size the
// verification worker pool (default NumCPU; results are byte-identical at
// any worker count).
//
// Every emulating subcommand takes -listen ADDR to serve live telemetry over
// HTTP while the run is in flight: /metrics (Prometheus text), /metrics.json,
// /events (SSE trace stream), /phases, /healthz, /readyz (ready once
// converged), and an embedded dashboard at /. -hold-open DUR keeps the
// endpoint up after the run completes; -json emits the -metrics/-timeline
// report as one JSON document.
//
// Exit codes: 0 success, 1 operational error, 2 usage error, 3 verification
// violation (unreachable flows, differential changes, loops, critical links),
// 4 degraded run (quarantined or never-settled routers taint the result),
// 5 wall-clock budget exhausted (-timeout expired; partial report emitted).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"mfv"
)

// Exit codes.
const (
	exitOK        = 0
	exitError     = 1 // operational failure (bad input, emulation error, I/O)
	exitUsage     = 2
	exitViolation = 3 // the network is broken, not the tool
	exitDegraded  = 4 // the run completed, but quarantined/unsettled routers taint the result
	exitTimeout   = 5 // the -timeout wall-clock budget expired mid-run
)

// codedError is a command error that maps to one of the documented exit
// codes; anything else is an operational failure (exit 1).
type codedError struct {
	code int
	msg  string
}

func (e codedError) Error() string { return e.msg }

// violationf marks a verification violation — the pipeline worked and found
// the network broken — so scripts can distinguish it (exit 3) from
// operational failures (exit 1).
func violationf(format string, args ...any) error {
	return codedError{exitViolation, fmt.Sprintf(format, args...)}
}

// degradedf marks a run that completed with contained damage: routers
// quarantined after hostile input, or stragglers that never settled under
// -degraded. The verdict is trustworthy for the healthy routers but exit 4
// tells scripts the result is partial.
func degradedf(format string, args ...any) error {
	return codedError{exitDegraded, fmt.Sprintf(format, args...)}
}

// timeoutf marks a run cut short by the -timeout wall-clock budget or a
// signal. It outranks the other classes: a violation found in a partial
// sweep is still reported, but the exit code must say "incomplete" so
// scripts don't trust a truncated verdict.
func timeoutf(format string, args ...any) error {
	return codedError{exitTimeout, fmt.Sprintf(format, args...)}
}

// usagef marks an invalid flag value caught after parsing (exit 2, like
// flag-package parse failures).
func usagef(format string, args ...any) error {
	return codedError{exitUsage, fmt.Sprintf(format, args...)}
}

// subcommands is the dispatch table; usage's headline and the unknown-
// subcommand error are both derived from it.
var subcommands = []struct {
	name string
	run  func(args []string) error
}{
	{"run", cmdRun},
	{"lint", cmdLint},
	{"reach", cmdReach},
	{"trace", cmdTrace},
	{"diff", cmdDiff},
	{"coverage", cmdCoverage},
	{"loops", cmdLoops},
	{"show", cmdShow},
	{"scenarios", cmdScenarios},
	{"chaos", cmdChaos},
	{"sweep", cmdSweep},
	{"snapshot", cmdSnapshot},
}

func subcommandNames() string {
	names := make([]string, len(subcommands))
	for i, c := range subcommands {
		names[i] = c.name
	}
	return strings.Join(names, "|")
}

func dispatch(cmd string, args []string) error {
	for _, c := range subcommands {
		if c.name == cmd {
			return c.run(args)
		}
	}
	return usagef("unknown subcommand %q (want %s)", cmd, subcommandNames())
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	if err := dispatch(os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "mfv:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a command error to the documented exit code. The 5 > 4 > 3
// precedence is enforced where the errors are made: withBudget wraps any
// body error once the clock or a signal fires (a truncated run must never
// masquerade as a trustworthy verdict), and command bodies diagnose
// quarantine before they report mere flow violations.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var c codedError
	if errors.As(err, &c) {
		return c.code
	}
	return exitError
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mfv <"+subcommandNames()+`> [flags]
  run       run the pipeline, print route summary and convergence timing
  lint      preflight snapshot validation without booting the emulation
            (-live additionally runs the pipeline and audits AFTs vs RIBs)
  reach     answer one reachability question
  trace     exhaustive multipath traceroute
  diff      differential reachability between two topology files
  coverage  model-based parsing coverage report (experiment E2 style)
  loops     detect forwarding loops across all packet classes
  show      operator-style router inspection (route|isis|bgp|mpls|interfaces)
  scenarios write the paper's evaluation topologies to a directory
  chaos     list built-in fault scenarios (-write DIR emits them as JSON);
            with -topo, execute -scenario NAME|FILE against the topology
  sweep     exhaustive k-failure resilience sweep: enumerate every single
            (-k 1) or pair (-k 2) failure of links, nodes, and BGP services,
            verify each against the healthy baseline, and rank blast radii
            worst-first (-kinds link,node,bgp restricts elements, -brute
            disables the prunes, -top N truncates the table); -k 1 -kinds link
            is the "any single link cut" check
  snapshot  save: converge once and persist the result as a durable,
            CRC-checksummed snapshot file; load: validate and summarize one

robustness flags (run): -chaos NAME|FILE (inject a fault scenario after
  convergence and verify across it), -degraded (accept partial convergence
  on timeout; stragglers are reported, not fatal)
crash-safety flags: -from-snapshot FILE on run/diff/reach/trace/loops (restore
  converged state instead of booting; diff also takes -from-snapshot2) and on
  sweep (gates its baseline on the snapshot's dataplane hash); sweep
  -journal DIR (write-ahead journal of per-candidate verdicts), sweep
  -resume DIR (skip journaled candidates after a crash; the resumed report
  is byte-identical to an uninterrupted run), sweep -retry-budget N (attempts
  before a panicking candidate is poisoned in the report, default 3)
budget flags (every subcommand that boots an emulation): -timeout DUR
  (wall-clock budget; an expired budget stops the run between steps, emits
  whatever partial report exists, and exits 5); SIGINT/SIGTERM cancel the
  same context — partial report, exit 5
observability flags: -listen ADDR (every emulating subcommand; live HTTP
  telemetry: /metrics Prometheus text, /metrics.json, /events SSE stream,
  /phases, /healthz, /readyz, dashboard at /), -hold-open DUR (keep -listen
  serving after the run completes); run/diff/chaos also take -trace FILE
  (JSONL event trace, virtual time), -metrics (phase timings + metrics
  registry), -timeline (per-router convergence report), -json
  (machine-readable report instead of tables)
performance flags: -workers N (worker-pool size for verification and the
  sweep's replica lanes, default GOMAXPROCS; results are byte-identical at
  any worker count — sweep additionally takes -replicas N and -mem-budget B
  to size the emulation replica pool);
  -shard-regions (converge disconnected topology regions in parallel
  emulators and stream their tables into one verification snapshot — the
  10k-router scale path; incompatible with -chaos and -gnmi);
  every emulating subcommand takes -cpuprofile FILE / -memprofile FILE (pprof)
exit codes: 0 ok, 1 operational error, 2 usage, 3 verification violation,
  4 degraded run (quarantined or never-settled routers), 5 wall-clock
  budget exhausted (-timeout)`)
}

// common flags

type runFlags struct {
	fs        *flag.FlagSet
	topo      string
	topo2     string
	backend   string
	gnmi      bool
	src       string
	dst       string
	out       string
	node      string
	cmd       string
	trace     string
	metrics   bool
	timeline  bool
	jsonOut   bool
	listen    string
	holdOpen  time.Duration
	chaos     string
	degraded  bool
	sharded   bool
	workers   int
	budget    time.Duration
	cpuprof   string
	memprof   string
	fromSnap  string
	fromSnap2 string

	obs    *mfv.Observer
	server *mfv.ObsServer
	ctx    context.Context
}

func newFlags(name string) *runFlags {
	f := &runFlags{fs: flag.NewFlagSet(name, flag.ExitOnError)}
	f.fs.StringVar(&f.topo, "topo", "", "topology JSON file")
	f.fs.StringVar(&f.topo2, "topo2", "", "second topology JSON file (diff)")
	f.fs.StringVar(&f.backend, "backend", "emulation", "emulation | model")
	f.fs.BoolVar(&f.gnmi, "gnmi", false, "extract AFTs over the gNMI TCP service")
	f.fs.StringVar(&f.src, "src", "", "source device")
	f.fs.StringVar(&f.dst, "dst", "", "destination IPv4 address")
	f.fs.StringVar(&f.out, "out", ".", "output directory")
	f.fs.StringVar(&f.node, "node", "", "router name (show)")
	f.fs.StringVar(&f.cmd, "cmd", "route", "show command: route|isis|isis-nbr|bgp|mpls|interfaces")
	f.fs.StringVar(&f.trace, "trace", "", "write the virtual-time trace as JSONL to this file")
	f.fs.BoolVar(&f.metrics, "metrics", false, "print phase timings and the metrics registry")
	f.fs.BoolVar(&f.timeline, "timeline", false, "print the per-router convergence timeline")
	f.fs.BoolVar(&f.jsonOut, "json", false, "emit the -metrics/-timeline report as one JSON document instead of tables")
	f.fs.StringVar(&f.listen, "listen", "", "serve live telemetry over HTTP on this address (/metrics, /events, /healthz, dashboard at /)")
	f.fs.DurationVar(&f.holdOpen, "hold-open", 0, "keep the -listen endpoint serving this long after the run completes")
	f.fs.StringVar(&f.chaos, "chaos", "", "fault scenario: builtin name or JSON file (run)")
	f.fs.BoolVar(&f.degraded, "degraded", false, "accept partial convergence on timeout, report stragglers")
	f.fs.BoolVar(&f.sharded, "shard-regions", false, "converge disconnected topology regions in parallel emulators (10k-router scale; incompatible with -chaos and -gnmi)")
	f.fs.IntVar(&f.workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size for verification and the sweep replica lanes (results identical at any setting)")
	f.fs.DurationVar(&f.budget, "timeout", 0, "wall-clock budget; when it expires the run stops between steps, emits its partial report, and exits 5")
	f.fs.StringVar(&f.cpuprof, "cpuprofile", "", "write a CPU profile to this file (go tool pprof format)")
	f.fs.StringVar(&f.memprof, "memprofile", "", "write a heap profile to this file on exit")
	f.fs.StringVar(&f.fromSnap, "from-snapshot", "", "restore converged state from this snapshot file (run/diff/reach/trace/loops skip the emulation boot; sweep cross-checks its baseline against the snapshot)")
	f.fs.StringVar(&f.fromSnap2, "from-snapshot2", "", "snapshot file for the second side of diff")
	return f
}

// loadChaos resolves the -chaos flag: a builtin scenario name first, else a
// JSON scenario file.
func (f *runFlags) loadChaos() (*mfv.ChaosScenario, error) {
	if f.chaos == "" {
		return nil, nil
	}
	if sc, ok := mfv.ChaosBuiltin(f.chaos); ok {
		return sc, nil
	}
	data, err := os.ReadFile(f.chaos)
	if err != nil {
		return nil, fmt.Errorf("-chaos %q is neither a builtin scenario nor a readable file: %w", f.chaos, err)
	}
	return mfv.ParseChaosScenario(data)
}

// observer lazily builds the observer implied by the observability flags
// (nil when none are set). Trace collection is enabled only when a trace
// file is requested; -metrics/-timeline/-json/-listen use the cheaper
// metrics-only sink — the live event bus streams to HTTP subscribers even
// without trace retention.
func (f *runFlags) observer() *mfv.Observer {
	if f.obs == nil {
		switch {
		case f.trace != "":
			f.obs = mfv.NewObserver()
		case f.metrics || f.timeline || f.jsonOut || f.listen != "":
			f.obs = mfv.NewMetricsObserver()
		}
	}
	return f.obs
}

// withServe brackets a command body with the -listen observability
// endpoint: start before the run so in-flight progress is visible, keep
// serving -hold-open afterwards (scrape windows, post-mortem browsing),
// and tear down on exit. The body's error survives, so violation and
// degraded exit codes are unaffected.
func (f *runFlags) withServe(body func() error) error {
	if f.listen == "" {
		return body()
	}
	f.server = mfv.NewObsServer(f.observer())
	addr, err := f.server.Start(f.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mfv: live telemetry on http://%s/\n", addr)
	bodyErr := body()
	f.server.SetReady(true) // the run is over; nothing left to converge
	if f.holdOpen > 0 {
		fmt.Fprintf(os.Stderr, "mfv: holding telemetry endpoint open for %v\n", f.holdOpen)
		time.Sleep(f.holdOpen)
	}
	if cerr := f.server.Close(); cerr != nil && bodyErr == nil {
		return cerr
	}
	return bodyErr
}

// reportJSON writes the -json machine-readable report: the shared snapshot
// codec (metrics + phases) plus the convergence timeline when requested.
func (f *runFlags) reportJSON(res *mfv.Result, timeline []mfv.TimelineEntry) error {
	snap := f.obs.SnapshotJSON()
	doc := struct {
		Backend  string              `json:"backend"`
		Metrics  any                 `json:"metrics"`
		Phases   any                 `json:"phases,omitempty"`
		Timeline []mfv.TimelineEntry `json:"timeline,omitempty"`
		Chaos    any                 `json:"chaos,omitempty"`
	}{Backend: res.Backend.String(), Metrics: snap.Metrics, Phases: snap.Phases, Timeline: timeline}
	if res.Chaos != nil {
		doc.Chaos = res.Chaos
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// report writes the requested observability outputs for a completed run.
func (f *runFlags) report(res *mfv.Result) error {
	var timeline []mfv.TimelineEntry
	if f.timeline {
		if res.Emulator == nil {
			return fmt.Errorf("-timeline requires the emulation backend")
		}
		timeline = res.Emulator.ConvergenceTimeline()
	}
	if f.jsonOut {
		if err := f.reportJSON(res, timeline); err != nil {
			return err
		}
	} else {
		if f.timeline {
			fmt.Printf("%-12s %16s %10s\n", "router", "last-change", "routes")
			for _, t := range timeline {
				fmt.Printf("%-12s %16v %10d\n", t.Router, t.LastChange.Round(1e6), t.Routes)
			}
		}
		if f.metrics {
			fmt.Print(f.obs.PhaseTable(), f.obs.MetricsTable())
		}
	}
	if f.trace != "" {
		w, err := os.Create(f.trace)
		if err != nil {
			return err
		}
		if err := f.obs.WriteJSONL(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s\n", len(f.obs.Events()), f.trace)
	}
	return nil
}

func (f *runFlags) loadTopo(path string) (*mfv.Topology, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -topo")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return mfv.ParseTopology(data)
}

// loadSnapshot reads and validates a snapshot file. When a -topo file is
// also on the command line the two are cross-checked by topology hash: a
// snapshot silently restored against the wrong topology would verify a
// network nobody is running.
func (f *runFlags) loadSnapshot(path, topoPath string) (*mfv.StoredSnapshot, error) {
	snap, err := mfv.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	if topoPath != "" {
		topo, err := f.loadTopo(topoPath)
		if err != nil {
			return nil, err
		}
		data, err := topo.Marshal()
		if err != nil {
			return nil, err
		}
		if got := mfv.HashBytes(data); got != snap.TopologyHash {
			return nil, usagef("snapshot %s captures topology %.12s…, but %s hashes to %.12s…", path, snap.TopologyHash, topoPath, got)
		}
	}
	return snap, nil
}

// input resolves where the network comes from: the -topo file, or — when
// snapPath is set — a validated snapshot file and the topology embedded in
// it (cross-checked against topoPath when both are given).
func (f *runFlags) input(topoPath, snapPath string) (*mfv.Topology, *mfv.StoredSnapshot, error) {
	if snapPath == "" {
		topo, err := f.loadTopo(topoPath)
		return topo, nil, err
	}
	snap, err := f.loadSnapshot(snapPath, topoPath)
	if err != nil {
		return nil, nil, err
	}
	topo, err := snap.Topology()
	return topo, snap, err
}

// pipeline produces the Result: restored from snap when non-nil (no
// emulation boot), otherwise by running the -backend pipeline on topo.
func (f *runFlags) pipeline(topo *mfv.Topology, snap *mfv.StoredSnapshot) (*mfv.Result, error) {
	opts := mfv.Options{UseGNMI: f.gnmi, Obs: f.observer(), Degraded: f.degraded, ShardRegions: f.sharded, Workers: f.workers, Ctx: f.ctx}
	if f.backend == "model" {
		opts.Backend = mfv.BackendModel
	}
	var err error
	if opts.Chaos, err = f.loadChaos(); err != nil {
		return nil, err
	}
	if snap != nil {
		return mfv.RunFromSnapshot(snap, opts)
	}
	return mfv.Run(mfv.Snapshot{Topology: topo}, opts)
}

// result is the front end every querying subcommand shares: input, then
// pipeline, returning the Result together with the topology it describes.
func (f *runFlags) result(topoPath, snapPath string) (*mfv.Result, *mfv.Topology, error) {
	topo, snap, err := f.input(topoPath, snapPath)
	if err != nil {
		return nil, nil, err
	}
	res, err := f.pipeline(topo, snap)
	return res, topo, err
}

// bracket is the one wrapper every subcommand that boots an emulation runs
// its body in: the -timeout/signal budget outermost (so its verdict on the
// exit code is final), then the pprof hooks, then the -listen endpoint.
func (f *runFlags) bracket(body func() error) error {
	return f.withBudget(func() error {
		return f.withProfiles(func() error { return f.withServe(body) })
	})
}

// query is the shape of every single-network subcommand: inside the
// bracket, produce the command line's Result and ask it one question.
func (f *runFlags) query(ask func(res *mfv.Result) error) error {
	return f.bracket(func() error {
		res, _, err := f.result(f.topo, f.fromSnap)
		if err != nil {
			return err
		}
		return ask(res)
	})
}

// withBudget brackets a command body with the -timeout wall-clock budget
// and SIGINT/SIGTERM handling: the context lands in f.ctx (plumbed into
// convergence waits, the chaos engine, and the sweep loop), and an expired
// budget or a delivered signal converts the body's outcome into exit code 5
// — after the body has emitted whatever partial report it salvaged. A
// second signal falls through to the runtime's default handler and kills
// the process, so a wedged run can still be interrupted.
func (f *runFlags) withBudget(body func() error) error {
	base, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := base, context.CancelFunc(func() {})
	if f.budget > 0 {
		ctx, cancel = context.WithTimeout(base, f.budget)
	}
	defer cancel()
	f.ctx = ctx
	bodyErr := body()
	if ctx.Err() != nil {
		if base.Err() != nil {
			if bodyErr != nil {
				return timeoutf("interrupted: %v", bodyErr)
			}
			return timeoutf("interrupted; report is partial")
		}
		if bodyErr != nil {
			return timeoutf("wall-clock budget %v exhausted: %v", f.budget, bodyErr)
		}
		return timeoutf("wall-clock budget %v exhausted; report is partial", f.budget)
	}
	return bodyErr
}

// withProfiles brackets a command body with the -cpuprofile/-memprofile
// hooks, keeping the body's error (a violation exit code must survive
// profile teardown).
func (f *runFlags) withProfiles(body func() error) error {
	stop := func() error { return nil }
	if f.cpuprof != "" {
		w, err := os.Create(f.cpuprof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(w); err != nil {
			w.Close()
			return err
		}
		stop = func() error {
			pprof.StopCPUProfile()
			return w.Close()
		}
	}
	bodyErr := body()
	perr := stop()
	if perr == nil && f.memprof != "" {
		perr = writeHeapProfile(f.memprof)
	}
	if bodyErr != nil {
		return bodyErr
	}
	return perr
}

func writeHeapProfile(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // up-to-date live-object statistics
	if err := pprof.WriteHeapProfile(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func cmdRun(args []string) error {
	f := newFlags("run")
	f.fs.Parse(args)
	return f.query(f.runReport)
}

// runReport prints the run summary and maps the Result to an exit class.
func (f *runFlags) runReport(res *mfv.Result) error {
	// With -json, stdout is reserved for the JSON document — the human
	// summary moves to stderr so the output stays pipeable.
	out := os.Stdout
	if f.jsonOut {
		out = os.Stderr
	}
	fmt.Fprintf(out, "backend: %s\n", res.Backend)
	if res.Backend == mfv.BackendEmulation {
		fmt.Fprintf(out, "startup: %v (virtual)\nconverged at: %v (virtual)\n",
			res.StartupAt.Round(1e9), res.ConvergedAt.Round(1e9))
	}
	if len(res.DegradedRouters) > 0 {
		fmt.Fprintf(out, "DEGRADED: %d routers never settled: %v\n", len(res.DegradedRouters), res.DegradedRouters)
	}
	if len(res.QuarantinedRouters) > 0 {
		fmt.Fprintf(out, "QUARANTINED: %d routers contained after hostile input: %v\n",
			len(res.QuarantinedRouters), res.QuarantinedRouters)
		for _, name := range res.QuarantinedRouters {
			if reason, ok := res.Emulator.QuarantineReason(name); ok {
				fmt.Fprintf(out, "  %s: %s\n", name, reason)
			}
		}
	}
	counts := res.RouteCount()
	protos := make([]string, 0, len(counts))
	for p := range counts {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	fmt.Fprintln(out, "routes by protocol:")
	for _, p := range protos {
		fmt.Fprintf(out, "  %-10s %d\n", p, counts[p])
	}
	fmt.Fprintf(out, "devices with forwarding state: %d\n", len(res.Network.Devices()))
	if res.Chaos != nil {
		fmt.Fprint(out, res.Chaos)
	}
	if err := f.report(res); err != nil {
		return err
	}
	// Quarantine is the more specific diagnosis: the flow loss is the
	// contained router's expected blast radius, not an unexplained break.
	if len(res.QuarantinedRouters) > 0 {
		return degradedf("%d routers quarantined: %v", len(res.QuarantinedRouters), res.QuarantinedRouters)
	}
	if res.Chaos != nil && res.Chaos.PermanentFlowsLost > 0 {
		return violationf("%d flows permanently lost under chaos", res.Chaos.PermanentFlowsLost)
	}
	if len(res.DegradedRouters) > 0 {
		return degradedf("%d routers never settled: %v", len(res.DegradedRouters), res.DegradedRouters)
	}
	return nil
}

// cmdLint runs the preflight snapshot validator: parse every device config
// and cross-check the snapshot before anything expensive boots. With -live
// (and a snapshot clean enough to boot) it also runs the pipeline and audits
// the extracted AFTs against the topology and the routers' RIBs.
func cmdLint(args []string) error {
	f := newFlags("lint")
	live := f.fs.Bool("live", false, "also run the pipeline and cross-check extracted AFTs against RIBs")
	f.fs.Parse(args)
	return f.bracket(func() error {
		topo, err := f.loadTopo(f.topo)
		if err != nil {
			return err
		}
		findings := mfv.LintSnapshot(topo)
		if *live && findings.Max() < mfv.SevFatal {
			res, err := f.pipeline(topo, nil)
			if err != nil {
				return err
			}
			findings = append(findings, mfv.LintAFTs(topo, res.AFTs)...)
			if res.Emulator != nil {
				findings = append(findings, mfv.LintLive(res.Emulator)...)
			}
			findings.Sort()
		}
		if len(findings) == 0 {
			fmt.Println("lint: clean")
			return nil
		}
		errs := 0
		for _, d := range findings {
			fmt.Println(d)
			if d.Sev >= mfv.SevError {
				errs++
			}
		}
		if errs > 0 {
			return violationf("lint: %d findings at error or above (%d total)", errs, len(findings))
		}
		fmt.Printf("lint: %d warnings\n", len(findings))
		return nil
	})
}

func cmdReach(args []string) error {
	f := newFlags("reach")
	f.fs.Parse(args)
	return f.query(func(res *mfv.Result) error {
		dst, err := netip.ParseAddr(f.dst)
		if err != nil {
			return fmt.Errorf("bad -dst: %w", err)
		}
		// No -src asks the question from every device.
		srcs := []string{f.src}
		if f.src == "" {
			srcs = res.Network.Devices()
		}
		unreachable := 0
		for _, src := range srcs {
			ok := res.Network.Reachable(src, dst)
			if !ok {
				unreachable++
			}
			fmt.Printf("%s -> %v: %v\n", src, dst, ok)
		}
		switch {
		case unreachable == 0:
			return nil
		case f.src != "":
			return violationf("%s cannot reach %v", f.src, dst)
		}
		return violationf("%d sources cannot reach %v", unreachable, dst)
	})
}

func cmdTrace(args []string) error {
	f := newFlags("trace")
	f.fs.Parse(args)
	return f.query(func(res *mfv.Result) error {
		dst, err := netip.ParseAddr(f.dst)
		if err != nil {
			return fmt.Errorf("bad -dst: %w", err)
		}
		if f.src == "" {
			return fmt.Errorf("missing -src")
		}
		for _, p := range res.Network.Trace(f.src, dst).Paths {
			fmt.Println(p)
		}
		return nil
	})
}

func cmdDiff(args []string) error {
	f := newFlags("diff")
	f.fs.Parse(args)
	return f.query(func(before *mfv.Result) error {
		after, _, err := f.result(f.topo2, f.fromSnap2)
		if err != nil {
			return err
		}
		diffs := mfv.DifferentialReachability(before, after)
		// Both runs share one observer, so the report covers the pipelines and
		// the differential query (including the batch engine's memo counters).
		if err := f.report(after); err != nil {
			return err
		}
		if len(diffs) == 0 {
			fmt.Println("no forwarding differences")
			return nil
		}
		for _, d := range diffs {
			fmt.Println(d)
		}
		fmt.Printf("%d changed flows\n", len(diffs))
		return violationf("%d changed flows", len(diffs))
	})
}

func cmdCoverage(args []string) error {
	f := newFlags("coverage")
	f.fs.Parse(args)
	f.backend = "model"
	res, _, err := f.result(f.topo, "")
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Coverage))
	for n := range res.Coverage {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %8s %14s %10s\n", "device", "lines", "unrecognized", "ignored")
	for _, n := range names {
		cov := res.Coverage[n]
		fmt.Printf("%-12s %8d %14d %10d\n", n, cov.TotalLines, cov.UnrecognizedCount(), len(cov.Ignored))
	}
	return nil
}

func cmdLoops(args []string) error {
	f := newFlags("loops")
	f.fs.Parse(args)
	return f.query(func(res *mfv.Result) error {
		loops := res.Network.DetectLoops()
		if len(loops) == 0 {
			fmt.Println("no forwarding loops")
			return nil
		}
		for _, l := range loops {
			fmt.Printf("loop: dst class %v from %s: %s\n", l.Dst, l.Src, l.Path)
		}
		return violationf("%d loops found", len(loops))
	})
}

func cmdShow(args []string) error {
	f := newFlags("show")
	f.fs.Parse(args)
	return f.query(func(res *mfv.Result) error {
		if res.Emulator == nil {
			return fmt.Errorf("show requires the emulation backend")
		}
		if f.node == "" {
			return fmt.Errorf("missing -node")
		}
		r, ok := res.Emulator.Router(f.node)
		if !ok {
			return fmt.Errorf("no router %q", f.node)
		}
		switch f.cmd {
		case "route":
			fmt.Print(r.ShowIPRoute())
		case "isis":
			fmt.Print(r.ShowISISDatabase())
		case "isis-nbr":
			fmt.Print(r.ShowISISNeighbors())
		case "bgp":
			fmt.Print(r.ShowBGPSummary())
		case "mpls":
			fmt.Print(r.ShowMPLSTunnels())
		case "interfaces":
			fmt.Print(r.ShowInterfaces())
		default:
			return fmt.Errorf("unknown show command %q", f.cmd)
		}
		return nil
	})
}

func cmdScenarios(args []string) error {
	f := newFlags("scenarios")
	f.fs.Parse(args)
	write := func(name string, topo *mfv.Topology) error {
		data, err := topo.Marshal()
		if err != nil {
			return err
		}
		path := filepath.Join(f.out, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	if err := write("fig2.json", mfv.Fig2()); err != nil {
		return err
	}
	if err := write("fig2-buggy.json", mfv.Fig2Buggy()); err != nil {
		return err
	}
	if err := write("fig3.json", mfv.Fig3()); err != nil {
		return err
	}
	return write("wan30.json", mfv.WAN(30, true))
}

// cmdSweep runs the exhaustive k-failure resilience sweep: converge the
// topology, enumerate every k-combination of link cuts, node failures, and
// BGP holds, verify each candidate's blast radius against the healthy
// baseline, and print the ranked table worst-first.
func cmdSweep(args []string) error {
	f := newFlags("sweep")
	k := f.fs.Int("k", 1, "failure depth: 1 (all singles) or 2 (singles + pairs)")
	kindCSV := f.fs.String("kinds", "link,node,bgp", "comma-separated failure element kinds")
	brute := f.fs.Bool("brute", false, "disable the fingerprint prune (every candidate verified; the ranked table is unchanged)")
	top := f.fs.Int("top", 0, "print only the worst N rows (0 = all)")
	replicas := f.fs.Int("replicas", 0, "emulation replica lanes for the apply/settle/rollback chains (0 = derive from -workers; capped by the memory budget)")
	memBudget := f.fs.Int64("mem-budget", 0, "replica-pool memory budget in bytes (0 = 8 GiB; pool capped at budget / (routers × 256 KiB))")
	journal := f.fs.String("journal", "", "append each candidate verdict to a write-ahead journal in this directory (crash insurance; pair with -resume)")
	resume := f.fs.String("resume", "", "resume from the journal in this directory: already-completed candidates are restored, not re-verified (implies -journal DIR)")
	retry := f.fs.Int("retry-budget", 0, "evaluation attempts per candidate before a repeatedly panicking lane poisons it in the report (0 = default 3)")
	f.fs.Parse(args)
	if f.workers <= 0 {
		return usagef("sweep: -workers must be positive (got %d)", f.workers)
	}
	if *replicas < 0 {
		return usagef("sweep: -replicas must be non-negative (got %d)", *replicas)
	}
	if *retry < 0 {
		return usagef("sweep: -retry-budget must be non-negative (got %d)", *retry)
	}
	journalDir, resuming := *journal, false
	if *resume != "" {
		if journalDir != "" && journalDir != *resume {
			return usagef("sweep: -journal %q and -resume %q name different directories", journalDir, *resume)
		}
		journalDir, resuming = *resume, true
	}
	return f.bracket(func() error {
		kinds, err := mfv.ParseSweepKinds(*kindCSV)
		if err != nil {
			return err
		}
		// -from-snapshot supplies the topology (the snapshot embeds it) and,
		// after the baseline converges, gates the sweep on dataplane-hash
		// equality: journaled verdicts are only comparable when the healthy
		// baseline is the one the snapshot captured.
		topo, snap, err := f.input(f.topo, f.fromSnap)
		if err != nil {
			return err
		}
		res, err := f.pipeline(topo, nil)
		if err != nil {
			return err
		}
		if snap != nil {
			if got := mfv.DataplaneHash(res.AFTs); got != snap.DataplaneHash {
				return fmt.Errorf("converged dataplane %.12s… does not match snapshot %.12s… — state drifted since capture, refusing to sweep against it", got, snap.DataplaneHash)
			}
		}
		rep, err := mfv.RunSweep(res, topo, mfv.SweepOptions{
			K: *k, Kinds: kinds, Workers: f.workers, Brute: *brute,
			Replicas: *replicas, MemoryBudget: *memBudget,
			JournalDir: journalDir, Resume: resuming, RetryBudget: *retry,
			Ctx: f.ctx, Obs: f.observer(),
		})
		if err != nil {
			return err
		}
		if f.jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			fmt.Print(rep.Render(*top))
		}
		if rep.Violations > 0 {
			return violationf("%d of %d failure candidates lose flows", rep.Violations, rep.Candidates)
		}
		degraded := 0
		for _, row := range rep.Rows {
			if len(row.Stragglers) > 0 || len(row.Quarantined) > 0 || row.Residue > 0 || row.Poisoned != "" {
				degraded++
			}
		}
		if degraded > 0 {
			return degradedf("%d candidates left stragglers, quarantined routers, restore residue, or were poisoned", degraded)
		}
		return nil
	})
}

// cmdSnapshot persists and inspects converged-state artifacts. `save` runs
// the full pipeline and writes the durable snapshot; `load` validates a
// file (magic, version, CRC, embedded hashes) and prints its summary
// without booting anything.
func cmdSnapshot(args []string) error {
	if len(args) == 0 {
		return usagef("snapshot: missing subcommand (save|load)")
	}
	sub, rest := args[0], args[1:]
	f := newFlags("snapshot " + sub)
	file := f.fs.String("file", "", "snapshot file path")
	f.fs.Parse(rest)
	if *file == "" {
		return usagef("snapshot %s: missing -file", sub)
	}
	switch sub {
	case "save":
		return f.bracket(func() error {
			res, topo, err := f.result(f.topo, "")
			if err != nil {
				return err
			}
			snap, err := mfv.CaptureSnapshot(topo, res)
			if err != nil {
				return err
			}
			if err := mfv.SaveSnapshot(snap, *file); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *file)
			fmt.Println(snap.Summary())
			return nil
		})
	case "load":
		snap, err := f.loadSnapshot(*file, f.topo)
		if err != nil {
			return err
		}
		fmt.Println(snap.Summary())
		return nil
	default:
		return usagef("snapshot: unknown subcommand %q (want save|load)", sub)
	}
}

// cmdChaos has two modes. Without -topo it lists (and optionally writes)
// the built-in scenarios. With -topo it *runs* the scenario named by
// -scenario against the topology — `mfv run -chaos` with chaos-first
// ergonomics, and the natural host for -listen: a long fault timeline is
// exactly the run an operator wants to watch live.
func cmdChaos(args []string) error {
	f := newFlags("chaos")
	write := f.fs.String("write", "", "also write each scenario as <name>.json into this directory (list mode)")
	scenario := f.fs.String("scenario", "crash-reboot", "builtin scenario name or JSON file to execute (with -topo)")
	f.fs.Parse(args)
	if f.topo != "" {
		f.chaos = *scenario
		return f.query(f.runReport)
	}
	for _, sc := range mfv.ChaosBuiltins() {
		fmt.Printf("%-14s seed=%-4d faults=%d  %s\n", sc.Name, sc.Seed, len(sc.Faults), sc.Description)
		for _, f := range sc.Faults {
			fmt.Printf("    t+%-8v %s\n", f.After, f.Describe())
		}
		if *write != "" {
			data, err := sc.Marshal()
			if err != nil {
				return err
			}
			path := filepath.Join(*write, sc.Name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Println("    wrote", path)
		}
	}
	return nil
}
