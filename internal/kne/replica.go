package kne

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"mfv/internal/aft"
	"mfv/internal/par"
	"mfv/internal/sim"
	"mfv/internal/topology"
)

// AlignClock advances virtual time to the next multiple of quantum, firing
// everything due on the way; a clock already on the grid stays put. Every
// periodic protocol timer in the stack ticks on a globally aligned grid
// (BGP keepalives, ISIS hellos, RSVP refresh, the session prober), so after
// AlignClock the phase of each of those timers relative to now is a pure
// function of its period. The sweep engine aligns before injecting each
// candidate, which makes the candidate's settle timeline independent of what
// was evaluated before it — the property that lets replica pools partition
// candidates arbitrarily and still report byte-identical timelines.
func (e *Emulator) AlignClock(quantum time.Duration) {
	if quantum <= 0 {
		return
	}
	if rem := e.sim.Now() % quantum; rem != 0 {
		e.sim.RunFor(quantum - rem)
	}
}

// Replica builds an independent emulator that deterministically replays this
// emulator's boot: same topology and configs, same seed, same knobs, feeds
// replayed in their original order, boot-time link-downs reapplied — then
// starts it and waits for convergence with the given hold/timeout. The
// replica runs without an observer (the observer binds one virtual clock)
// and always provisions its own cluster. Callers gate on StateFingerprint
// equality before trusting the replica as a stand-in for the primary.
//
// Replication refuses when the emulator carries live fault state (downed or
// quarantined routers, held BGP, link impairments beyond boot-time downs):
// replaying the boot alone cannot reproduce a faulted history.
func (e *Emulator) Replica(hold, timeout time.Duration) (*Emulator, error) {
	if !e.started {
		return nil, fmt.Errorf("kne: replica of an emulator that never started")
	}
	if n := len(e.routerDown) + len(e.quarantined) + len(e.bgpHeld) + len(e.impair); n > 0 {
		return nil, fmt.Errorf("kne: cannot replicate a faulted emulation (%d live faults)", n)
	}
	cfg := e.cfg
	cfg.Sim = sim.New(e.sim.Seed())
	cfg.Obs = nil
	cfg.Cluster = nil // replicas provision their own substrate
	rep, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("kne: building replica: %w", err)
	}
	for _, addr := range e.injectorOrder {
		src := e.injectors[addr]
		inj, err := rep.AddInjector(src.target, addr, src.asn)
		if err != nil {
			return nil, fmt.Errorf("kne: replaying injector %v: %w", addr, err)
		}
		src.replayInto(inj)
	}
	if err := rep.Start(); err != nil {
		return nil, err
	}
	for _, key := range sortedKeys(e.linkDown) {
		if !e.linkDown[key] {
			continue
		}
		ep, err := topology.ParseEndpoint(strings.SplitN(key, "~", 2)[0])
		if err != nil {
			return nil, fmt.Errorf("kne: replaying link-down %s: %w", key, err)
		}
		if err := rep.SetLinkDown(ep); err != nil {
			return nil, err
		}
	}
	if _, err := rep.RunUntilConverged(hold, timeout); err != nil {
		return nil, fmt.Errorf("kne: replica did not converge: %w", err)
	}
	return rep, nil
}

// BuildReplicas is the one replica factory: it boots n replicas of a converged
// emulation in parallel, each a deterministic replay of the primary's boot
// (Replica) gated on StateFingerprint equality with wantFP — a replay that
// converges to different content fails the whole build rather than silently
// skewing downstream verdicts. An empty wantFP gates against the primary's
// current state; the sweep's lane supervision passes the fingerprint captured
// while the baseline was known healthy, so a rebuild mid-sweep cannot inherit
// drift from a since-perturbed primary.
func BuildReplicas(primary *Emulator, n int, wantFP string, hold, timeout time.Duration) ([]*Emulator, error) {
	if n <= 0 {
		return nil, nil
	}
	if wantFP == "" {
		wantFP = primary.StateFingerprint()
	}
	reps := make([]*Emulator, n)
	err := par.Do(n, 0, func(i int) error {
		rep, err := primary.Replica(hold, timeout)
		if err != nil {
			return err
		}
		if rep.StateFingerprint() != wantFP {
			rep.Stop()
			return fmt.Errorf("kne: replica %d replay diverged from the primary (state fingerprint mismatch)", i)
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		for _, r := range reps {
			if r != nil {
				r.Stop()
			}
		}
		return nil, err
	}
	return reps, nil
}

// StateFingerprint digests the emulator's current dataplane content plus its
// fault surface: every exported AFT fingerprint in name order, then the
// downed links and downed/quarantined/BGP-held router sets. Two emulators
// with equal fingerprints present identical forwarding state to
// verification; the sweep replica pool uses this as its replay-identity gate
// and falls back to the sequential path on any mismatch.
func (e *Emulator) StateFingerprint() string {
	h := sha256.New()
	e.StreamAFTs(func(name string, a *aft.AFT) { fmt.Fprintf(h, "%s=%s;", name, a.Fingerprint()) })
	fmt.Fprintf(h, "links=%s;", strings.Join(sortedKeys(e.linkDown), ","))
	fmt.Fprintf(h, "down=%s;", strings.Join(sortedKeys(e.routerDown), ","))
	fmt.Fprintf(h, "held=%s;", strings.Join(sortedKeys(e.bgpHeld), ","))
	fmt.Fprintf(h, "quarantined=%s;", strings.Join(e.QuarantinedRouters(), ","))
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
