package routing

import (
	"net/netip"
	"sort"
)

// RIB is a routing information base holding, per prefix, one candidate route
// from each protocol, and electing a winner by administrative distance (lower
// wins), then metric (lower wins), then protocol enum order as a final
// deterministic tie-break.
//
// Each protocol owns at most one candidate per prefix: protocols resolve
// their internal best-path decisions (BGP decision process, IS-IS SPF) before
// installing, matching how real RIBs receive only each protocol's winner.
//
// RIB is not safe for concurrent use; within the emulator every router's RIB
// is touched only from simulator events, which are single-threaded.
type RIB struct {
	trie *Trie[*ribEntry]
	// version increments on every effective change of any elected route. It
	// is the signal convergence detection watches.
	version uint64
	// onChange, when set, is invoked after each elected-route change with
	// the prefix affected and the new best route (nil when withdrawn).
	onChange func(p netip.Prefix, best *Route)
	// free pools ribEntry objects across churn: a full-table flap at 10k
	// routers otherwise allocates a fresh entry (plus candidate slice) per
	// prefix per cycle. Entries land here when their last candidate is
	// withdrawn and are revived by the next Install.
	free []*ribEntry
}

type ribEntry struct {
	candidates []Route // at most one per Protocol, unsorted
	best       *Route  // elected route, nil if none
	// spare keeps the previous best's allocation while the election is
	// empty so a route flap reuses it instead of allocating.
	spare *Route
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{trie: NewTrie[*ribEntry]()}
}

// OnChange registers a callback fired after every change to an elected
// route. Passing nil clears it.
func (r *RIB) OnChange(fn func(p netip.Prefix, best *Route)) { r.onChange = fn }

// Version returns a counter that increments whenever any elected route
// changes. Equal versions imply an identical elected route set.
func (r *RIB) Version() uint64 { return r.version }

// Install inserts or replaces proto's candidate for route.Prefix and reports
// whether the elected route for that prefix changed. Invalid or non-IPv4
// prefixes are rejected as a no-op: protocols screen their inputs (decode
// errors, config validation) before installing, so this guard only stops
// hostile input that slipped past them from corrupting the RIB.
func (r *RIB) Install(route Route) bool {
	if !route.Prefix.IsValid() || !route.Prefix.Addr().Is4() {
		return false
	}
	route.Prefix = route.Prefix.Masked()
	route.SortNextHops()
	e, ok := r.trie.Get(route.Prefix)
	if !ok {
		if n := len(r.free); n > 0 {
			e = r.free[n-1]
			r.free = r.free[:n-1]
		} else {
			e = &ribEntry{}
		}
		r.trie.Insert(route.Prefix, e)
	}
	replaced := false
	for i := range e.candidates {
		if e.candidates[i].Protocol == route.Protocol {
			if e.candidates[i].Equal(route) {
				return false // no-op reinstall
			}
			e.candidates[i] = route
			replaced = true
			break
		}
	}
	if !replaced {
		e.candidates = append(e.candidates, route)
	}
	return r.reelect(route.Prefix, e)
}

// Withdraw removes proto's candidate for prefix and reports whether the
// elected route changed.
func (r *RIB) Withdraw(prefix netip.Prefix, proto Protocol) bool {
	prefix = prefix.Masked()
	e, ok := r.trie.Get(prefix)
	if !ok {
		return false
	}
	found := false
	for i := range e.candidates {
		if e.candidates[i].Protocol == proto {
			e.candidates = append(e.candidates[:i], e.candidates[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	changed := r.reelect(prefix, e)
	if len(e.candidates) == 0 {
		r.trie.Delete(prefix)
		e.candidates = e.candidates[:0]
		r.free = append(r.free, e)
	}
	return changed
}

// WithdrawAll removes every candidate installed by proto, returning the
// number of prefixes whose elected route changed. Protocols use it on
// shutdown or full recomputation.
func (r *RIB) WithdrawAll(proto Protocol) int {
	var prefixes []netip.Prefix
	r.trie.Walk(func(p netip.Prefix, e *ribEntry) bool {
		for _, c := range e.candidates {
			if c.Protocol == proto {
				prefixes = append(prefixes, p)
				break
			}
		}
		return true
	})
	changed := 0
	for _, p := range prefixes {
		if r.Withdraw(p, proto) {
			changed++
		}
	}
	return changed
}

func (r *RIB) reelect(prefix netip.Prefix, e *ribEntry) bool {
	var best *Route
	for i := range e.candidates {
		c := &e.candidates[i]
		if best == nil || less(c, best) {
			best = c
		}
	}
	switch {
	case best == nil && e.best == nil:
		return false
	case best != nil && e.best != nil && best.Equal(*e.best):
		return false
	}
	if best == nil {
		e.spare, e.best = e.best, nil
	} else {
		if e.best == nil {
			if e.spare != nil {
				e.best, e.spare = e.spare, nil
			} else {
				e.best = new(Route)
			}
		}
		// Callers only ever see value copies of the elected route (Get,
		// Routes, Lookup dereference), so reusing the storage is invisible.
		*e.best = *best
	}
	r.version++
	if r.onChange != nil {
		r.onChange(prefix, e.best)
	}
	return true
}

// less orders candidate routes: lower admin distance, then lower metric,
// then lower protocol number for determinism.
func less(a, b *Route) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	return a.Protocol < b.Protocol
}

// Lookup performs longest-prefix match over elected routes.
func (r *RIB) Lookup(addr netip.Addr) (Route, bool) {
	// The trie may contain entries whose election is currently empty (all
	// candidates withdrawn but entry retained mid-update); walk up from the
	// longest match.
	n := addr
	for bits := 32; bits >= 0; bits-- {
		p := netip.PrefixFrom(n, bits).Masked()
		if e, ok := r.trie.Get(p); ok && e.best != nil && p.Contains(addr) {
			return *e.best, true
		}
	}
	return Route{}, false
}

// Get returns the elected route for exactly prefix.
func (r *RIB) Get(prefix netip.Prefix) (Route, bool) {
	e, ok := r.trie.Get(prefix.Masked())
	if !ok || e.best == nil {
		return Route{}, false
	}
	return *e.best, true
}

// Candidates returns all candidates for prefix, for CLI-style inspection.
func (r *RIB) Candidates(prefix netip.Prefix) []Route {
	e, ok := r.trie.Get(prefix.Masked())
	if !ok {
		return nil
	}
	out := make([]Route, len(e.candidates))
	copy(out, e.candidates)
	sort.Slice(out, func(i, j int) bool { return less(&out[i], &out[j]) })
	return out
}

// Routes returns a copy of every elected route sorted by prefix bit order.
func (r *RIB) Routes() []Route {
	var out []Route
	r.Walk(func(rt *Route) { out = append(out, *rt) })
	return out
}

// Walk visits every elected route in place, in prefix bit order. The route
// is the RIB's own storage: fn must neither modify nor retain it, and must
// not install or withdraw routes.
func (r *RIB) Walk(fn func(rt *Route)) {
	r.trie.Walk(func(_ netip.Prefix, e *ribEntry) bool {
		if e.best != nil {
			fn(e.best)
		}
		return true
	})
}

// Len returns the number of prefixes with an elected route.
func (r *RIB) Len() int {
	n := 0
	r.Walk(func(*Route) { n++ })
	return n
}
