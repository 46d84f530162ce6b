// Package intern provides a process-wide string intern table. At 10k emulated
// routers the AFT layer materializes millions of small strings — prefixes,
// next-hop addresses, interface names — whose distinct population is tiny
// (every router on a LAN renders the same "10.3.17.0/31"). Interning collapses
// the copies to one canonical string per value, so each duplicate costs a
// 16-byte header instead of a fresh allocation.
//
// The table is sharded to keep contention negligible under the parallel AFT
// export and region-sharded convergence pools, and it never evicts: the
// population is bounded by the distinct prefixes/addresses/interfaces in the
// snapshot, which is exactly the state the run must hold anyway.
package intern

import "sync"

const shards = 64

type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

var table [shards]shard

func init() {
	for i := range table {
		table[i].m = make(map[string]string)
	}
}

// fnv32 hashes s for shard selection (FNV-1a).
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// String returns the canonical copy of s. The first caller for a given value
// pays one map insert; every later caller gets the shared backing array.
func String(s string) string {
	if s == "" {
		return ""
	}
	sh := &table[fnv32(s)%shards]
	sh.mu.RLock()
	c, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	if c, ok = sh.m[s]; !ok {
		c = s
		sh.m[s] = c
	}
	sh.mu.Unlock()
	return c
}

// Bytes returns the canonical string for b without allocating when the value
// is already interned (the map probe on a []byte key does not copy).
func Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	sh := &table[fnv32b(b)%shards]
	sh.mu.RLock()
	c, ok := sh.m[string(b)] // no alloc: map probe special case
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	if c, ok = sh.m[string(b)]; !ok {
		c = string(b)
		sh.m[c] = c
	}
	sh.mu.Unlock()
	return c
}

func fnv32b(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}
