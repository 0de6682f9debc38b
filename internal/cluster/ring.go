// Package cluster implements the daemon's peer tier: a consistent-hash
// ring that assigns profile ownership across statsimd nodes, health
// probing with ejection and re-admission, hedged peer-to-peer graph
// fetches over the durable store's checksummed envelope, and a sweep
// coordinator that partitions design grids across peers and
// re-partitions deterministically when a peer dies mid-sweep.
//
// The package implements service.Cluster; the dependency is strictly
// one-directional (cluster imports service, never the reverse), and
// cmd/statsimd wires the two together.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/service"
)

// virtualNodes is how many times each peer is hashed onto the ring.
const virtualNodes = 64

// ring is a consistent-hash ring with virtual nodes. Each peer name is
// hashed onto the ring virtualNodes times; a key's owners are the first
// distinct peers clockwise from the key's hash. Peer membership is
// fixed at construction (the daemon's peer list is static
// configuration); health is layered on top by the coordinator, which
// skips ejected owners rather than re-hashing — so a peer's ownership,
// and therefore where replicas accumulate, is stable across failures.
type ring struct {
	names  []string // sorted distinct peer names
	hashes []uint64 // sorted vnode hashes
	owner  []int    // owner[i] indexes names for hashes[i]
}

// hash64 is FNV-64a run through a splitmix64 finalizer. FNV alone
// distributes near-identical strings ("…#0", "…#1") poorly across the
// high bits, which skews ring segments badly; the finalizer avalanches
// every input bit across the word. Both stages are fixed arithmetic —
// stable across processes and architectures, which matters because
// every node must compute identical ownership.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// newRing builds a ring over the given peer names (duplicates
// collapsed).
func newRing(names []string) *ring {
	seen := make(map[string]bool, len(names))
	r := &ring{}
	for _, n := range names {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.names = append(r.names, n)
	}
	sort.Strings(r.names)
	type vnode struct {
		hash  uint64
		owner int
	}
	vs := make([]vnode, 0, len(r.names)*virtualNodes)
	for oi, n := range r.names {
		for v := 0; v < virtualNodes; v++ {
			vs = append(vs, vnode{hash: hash64(fmt.Sprintf("%s#%d", n, v)), owner: oi})
		}
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].hash != vs[j].hash {
			return vs[i].hash < vs[j].hash
		}
		// Tie-break on owner so identical configurations sort
		// identically on every node.
		return vs[i].owner < vs[j].owner
	})
	r.hashes = make([]uint64, len(vs))
	r.owner = make([]int, len(vs))
	for i, v := range vs {
		r.hashes[i] = v.hash
		r.owner[i] = v.owner
	}
	return r
}

// Owners returns the first n distinct peers clockwise from key's hash —
// the replica set for the key. n is clamped to the peer count.
func (r *ring) Owners(key string, n int) []string {
	if len(r.names) == 0 {
		return nil
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	if n < 1 {
		n = 1
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		oi := r.owner[(start+i)%len(r.hashes)]
		if !taken[oi] {
			taken[oi] = true
			out = append(out, r.names[oi])
		}
	}
	return out
}

// Peers returns the ring's member names, sorted.
func (r *ring) Peers() []string { return r.names }

// profileKeyString renders a ProfileKey canonically for ring hashing.
// Every node must produce the same string for the same key.
func profileKeyString(k service.ProfileKey) string {
	return fmt.Sprintf("%s/k=%d/n=%d/seed=%d", k.Workload, k.K, k.N, k.Seed)
}
