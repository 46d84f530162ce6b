package chaos

import (
	"context"
	"fmt"
	"time"

	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/snapchain"
	"mfv/internal/topology"
)

// defaultCorruptConfig is the deterministic garbage payload corrupt-config
// faults push when the scenario supplies no Config of its own: no vendor
// parser accepts it, so the target router is always quarantined.
const defaultCorruptConfig = "!! flash corruption artifact\n" +
	"interface Ethernet999\n" +
	"   ip address 999.999.999.999/99\n" +
	"florble gork\n" +
	"\x00\x01\x7f garbled trailer\n"

// Engine executes scenarios against a running emulation. The emulator must
// already be started and converged; Execute advances virtual time itself.
// Snapshotting and differential scoring run on a snapchain.Chain, the same
// substrate the sweep engine chains candidates on.
type Engine struct {
	em    *kne.Emulator
	topo  *topology.Topology
	obs   *obs.Observer
	chain *snapchain.Chain
	ctx   context.Context

	hold, timeout time.Duration
}

// NewEngine builds an engine over an emulator. The observer may be nil.
func NewEngine(em *kne.Emulator, topo *topology.Topology, o *obs.Observer) *Engine {
	return &Engine{em: em, topo: topo, obs: o, chain: snapchain.New(em, topo, o)}
}

// WithWorkers sizes the worker pool the per-fault differential queries run
// on (0 = GOMAXPROCS) and returns the engine for chaining.
func (en *Engine) WithWorkers(w int) *Engine {
	en.chain.SetWorkers(w)
	return en
}

// WithIncremental toggles incremental snapshots (on by default). Disabling
// forces a scratch network rebuild per fault — the reference the
// equivalence tests and the BenchmarkChaosFaultLoop comparison run against.
func (en *Engine) WithIncremental(on bool) *Engine {
	en.chain.SetIncremental(on)
	return en
}

// WithContext bounds the scenario by a cancelable context: when it expires
// the engine stops injecting further faults and Execute returns the partial
// report with Interrupted set. A nil context means no bound.
func (en *Engine) WithContext(ctx context.Context) *Engine {
	en.ctx = ctx
	return en
}

func (en *Engine) interrupted() bool {
	return en.ctx != nil && en.ctx.Err() != nil
}

// Execute runs the scenario: for each fault, advance virtual time by its
// After offset, inject it, let the network settle, snapshot AFTs, and run
// differential reachability against the pre-fault baseline. Faults execute
// in listed order; each fault's baseline is the settled state the previous
// fault left behind, while the report's permanent-loss figure compares the
// final state against the pre-chaos network.
func (en *Engine) Execute(sc *Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	en.hold = sc.SettleHold
	if en.hold == 0 {
		// The default hold must exceed the BGP HoldTime (90s): a silently
		// cut link tears sessions down only when the hold timer expires,
		// and a shorter quiet window would snapshot "impact" before the
		// withdrawals even begin.
		en.hold = 2 * time.Minute
	}
	en.timeout = sc.SettleTimeout
	if en.timeout == 0 {
		en.timeout = 30 * time.Minute
	}
	rep := &Report{Scenario: sc.Name, Seed: sc.Seed, StartedAt: en.em.Sim().Now()}
	initial, err := en.chain.Snapshot()
	if err != nil {
		return nil, err
	}
	baseline := initial
	for _, f := range sc.Faults {
		if en.interrupted() {
			rep.Interrupted = true
			break
		}
		if f.After > 0 {
			en.em.Sim().RunFor(f.After)
		}
		v, after, err := en.runFault(f, baseline)
		if err != nil {
			if en.interrupted() {
				// The budget expired mid-fault (typically inside a settle
				// or pod wait): salvage the verdicts already scored rather
				// than discard the run.
				rep.Interrupted = true
				break
			}
			return nil, err
		}
		rep.Verdicts = append(rep.Verdicts, *v)
		baseline = after
	}
	rep.FinishedAt = en.em.Sim().Now()
	rep.PermanentFlowsLost = len(snapchain.LostFlows(en.chain.Differential(initial, baseline)))
	rep.Recovered = rep.PermanentFlowsLost == 0 && !rep.Interrupted
	return rep, nil
}

// runFault injects one fault, waits out its lifecycle, and scores the
// outcome against baseline. It returns the verdict and the settled
// post-fault snapshot, which becomes the next fault's baseline.
func (en *Engine) runFault(f Fault, baseline snapchain.Snap) (*Verdict, snapchain.Snap, error) {
	em, clk := en.em, en.em.Sim()
	v := &Verdict{Fault: f, InjectedAt: clk.Now()}
	en.emit(obs.EvFaultInject, f)
	m := en.obs.Metrics()
	m.Gauge("chaos_faults_inflight").Add(1)
	defer m.Gauge("chaos_faults_inflight").Add(-1)

	fail := func(e error) (*Verdict, snapchain.Snap, error) { return nil, snapchain.Snap{}, e }
	clear := func() {
		v.ClearedAt = clk.Now()
		en.emit(obs.EvFaultClear, f)
	}
	var impact snapchain.Snap
	var conv kne.Convergence
	var err error

	switch f.Kind {
	case KindLinkCut:
		ep, perr := topology.ParseEndpoint(f.Link)
		if perr != nil {
			return fail(perr)
		}
		if err = em.SetLinkDown(ep); err != nil {
			return fail(err)
		}
		conv = em.Settle(en.hold, en.timeout)
		if impact, err = en.chain.Snapshot(); err != nil {
			return fail(err)
		}
		// Permanent fault: the impact state is the final state.

	case KindLinkFlap:
		ep, perr := topology.ParseEndpoint(f.Link)
		if perr != nil {
			return fail(perr)
		}
		flaps := f.Flaps
		if flaps < 1 {
			flaps = 1
		}
		dwell := f.Duration
		if dwell == 0 {
			dwell = 5 * time.Second
		}
		if err = em.SetLinkDown(ep); err != nil {
			return fail(err)
		}
		em.Settle(en.hold, en.timeout)
		if impact, err = en.chain.Snapshot(); err != nil {
			return fail(err)
		}
		for i := 1; i < flaps; i++ {
			if err = em.SetLinkUp(ep); err != nil {
				return fail(err)
			}
			clk.RunFor(en.jitter(dwell))
			if err = em.SetLinkDown(ep); err != nil {
				return fail(err)
			}
			clk.RunFor(en.jitter(dwell))
		}
		if err = em.SetLinkUp(ep); err != nil {
			return fail(err)
		}
		clear()
		conv = em.Settle(en.hold, en.timeout)

	case KindPodCrash:
		if err = em.CrashRouter(f.Node); err != nil {
			return fail(err)
		}
		// Impact settles while the replacement pod is still booting: the
		// neighbors' withdrawals are the fault's blast radius. A short
		// hold is essential — withdrawal churn (prober teardown, IS-IS
		// holding expiry) ends well before the ~90s reboot, and waiting
		// the full hold would snapshot the already-recovered network.
		em.Settle(en.impactHold(), en.timeout)
		if impact, err = en.chain.Snapshot(); err != nil {
			return fail(err)
		}
		if err = em.AwaitRunning(f.Node, en.timeout); err != nil {
			return fail(err)
		}
		clear()
		conv = em.Settle(en.hold, en.timeout)

	case KindNodeFail:
		evicted, ferr := em.FailKubeNode(f.Node)
		if ferr != nil {
			return fail(ferr)
		}
		// Same short-hold reasoning as pod-crash: measure the outage
		// before the evicted pods finish rebooting elsewhere.
		em.Settle(en.impactHold(), en.timeout)
		if impact, err = en.chain.Snapshot(); err != nil {
			return fail(err)
		}
		outage := f.Duration
		if outage == 0 {
			outage = time.Minute
		}
		if down := clk.Now() - v.InjectedAt; down < outage {
			clk.RunFor(outage - down)
		}
		if err = em.RecoverKubeNode(f.Node); err != nil {
			return fail(err)
		}
		for _, name := range evicted {
			if err = em.AwaitRunning(name, en.timeout); err != nil {
				return fail(err)
			}
		}
		clear()
		conv = em.Settle(en.hold, en.timeout)

	case KindBGPReset:
		if err = em.ResetBGP(f.Node); err != nil {
			return fail(err)
		}
		// Session teardown withdraws routes synchronously; snapshot the
		// transient hole before the prober restores the sessions.
		if impact, err = en.chain.Snapshot(); err != nil {
			return fail(err)
		}
		clear()
		conv = em.Settle(en.hold, en.timeout)

	case KindLinkDegrade:
		ep, perr := topology.ParseEndpoint(f.Link)
		if perr != nil {
			return fail(perr)
		}
		imp := kne.Impairment{LossPct: f.LossPct, ExtraDelay: f.ExtraDelay}
		if err = em.SetLinkImpairment(ep, imp); err != nil {
			return fail(err)
		}
		window := f.Duration
		if window == 0 {
			window = time.Minute
		}
		clk.RunFor(window)
		// Snapshot mid-impairment: a lossy link may never settle, so the
		// impact view is time-bounded rather than quiescence-bounded.
		if impact, err = en.chain.Snapshot(); err != nil {
			return fail(err)
		}
		if err = em.ClearLinkImpairment(ep); err != nil {
			return fail(err)
		}
		clear()
		conv = em.Settle(en.hold, en.timeout)

	case KindCorruptConfig:
		cfg := f.Config
		if cfg == "" {
			cfg = defaultCorruptConfig
		}
		if err = em.CorruptConfig(f.Node, cfg); err != nil {
			return fail(err)
		}
		// Quarantine is permanent — the router never reboots, so like
		// link-cut the settled impact state is the final state. The hold
		// window lets neighbors withdraw through hold-timer expiry.
		conv = em.Settle(en.hold, en.timeout)
		if impact, err = en.chain.Snapshot(); err != nil {
			return fail(err)
		}

	default:
		return fail(fmt.Errorf("chaos: unknown fault kind %q", f.Kind))
	}

	final, err := en.chain.Snapshot()
	if err != nil {
		return fail(err)
	}
	v.SettledAt = conv.ConvergedAt
	if v.SettledAt < v.InjectedAt {
		v.SettledAt = v.InjectedAt
	}
	v.ReconvergedIn = v.SettledAt - v.InjectedAt
	v.Degraded = conv.Stragglers
	v.Quarantined = conv.Quarantined

	impactLost := snapchain.LostFlows(en.chain.Differential(baseline, impact))
	finalDiffs := en.chain.Differential(baseline, final)
	finalLost := snapchain.LostFlows(finalDiffs)
	v.FlowsLostTransient = len(impactLost)
	v.FlowsLost = len(finalLost)
	for k := range impactLost {
		if !finalLost[k] {
			v.FlowsRecovered++
		}
	}
	if lost := baseline.Routes - impact.Routes; lost > 0 {
		v.RoutesLost = lost
		perm := baseline.Routes - final.Routes
		if perm < 0 {
			perm = 0
		}
		if rec := lost - perm; rec > 0 {
			v.RoutesRecovered = rec
		}
	}
	v.Recovered = v.FlowsLost == 0
	for _, d := range finalDiffs {
		v.Diffs = append(v.Diffs, d.String())
	}
	// Per-verdict metrics, labeled by fault kind so a mixed scenario's
	// verdicts stay separable on the live endpoint (PR 2 left this gap).
	m.Counter("chaos_faults_total", "kind", string(f.Kind)).Inc()
	m.Counter("chaos_faults_completed_total").Inc()
	m.Counter("chaos_flows_lost_total").Add(uint64(v.FlowsLost))
	m.Counter("chaos_flows_transient_total").Add(uint64(v.FlowsLostTransient))
	m.Counter("chaos_flows_recovered_total").Add(uint64(v.FlowsRecovered))
	m.Histogram("chaos_reconverge_ns", "kind", string(f.Kind)).Observe(int64(v.ReconvergedIn))
	if en.obs.Enabled() {
		en.obs.Emit(obs.Event{Type: obs.EvChaosVerdict, Detail: f.Describe(), Value: int64(v.FlowsLost)})
	}
	return v, final, nil
}

// impactHold bounds the quiet window for mid-fault impact snapshots: long
// enough to ride out withdrawal churn, short enough to finish before a
// rebooting pod (90s+) comes back and erases the evidence.
func (en *Engine) impactHold() time.Duration {
	const h = 30 * time.Second
	if en.hold < h {
		return en.hold
	}
	return h
}

// jitter perturbs a dwell by up to 25% drawn from the sim RNG: flap phasing
// varies across seeds while any single seed replays identically.
func (en *Engine) jitter(d time.Duration) time.Duration {
	return d + time.Duration(en.em.Sim().Rand().Int63n(int64(d)/4+1))
}

func (en *Engine) emit(typ string, f Fault) {
	if en.obs.Enabled() {
		en.obs.Emit(obs.Event{Type: typ, Device: f.Node, Detail: f.Describe()})
	}
}
