package cluster

import (
	"fmt"
	"testing"
)

func ringPeers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://node-%d:8417", i)
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	a := newRing(ringPeers(5))
	// Same membership presented in a different order must build the
	// identical ring: ownership is what every node must agree on.
	shuffled := []string{"http://node-3:8417", "http://node-0:8417", "http://node-4:8417",
		"http://node-1:8417", "http://node-2:8417"}
	b := newRing(shuffled)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		oa, ob := a.Owners(key, 2), b.Owners(key, 2)
		if len(oa) != 2 || len(ob) != 2 || oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("key %q: owners diverge between identical rings: %v vs %v", key, oa, ob)
		}
	}
}

func TestRingDistinctReplicas(t *testing.T) {
	r := newRing(ringPeers(4))
	for i := 0; i < 200; i++ {
		owners := r.Owners(fmt.Sprintf("key-%d", i), 3)
		if len(owners) != 3 {
			t.Fatalf("want 3 owners, got %v", owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate replica owner in %v", owners)
			}
			seen[o] = true
		}
	}
}

func TestRingReplicationClamped(t *testing.T) {
	r := newRing(ringPeers(2))
	if got := r.Owners("k", 5); len(got) != 2 {
		t.Errorf("owners not clamped to peer count: %v", got)
	}
	if got := r.Owners("k", 0); len(got) != 1 {
		t.Errorf("non-positive n must mean one owner: %v", got)
	}
}

func TestRingBalance(t *testing.T) {
	const keys = 4000
	peers := ringPeers(4)
	r := newRing(peers)
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	// With 64 vnodes the split is not exact, but no peer should own
	// less than half or more than double its fair share.
	fair := keys / len(peers)
	for _, p := range peers {
		if c := counts[p]; c < fair/2 || c > fair*2 {
			t.Errorf("peer %s owns %d of %d keys (fair %d): ring badly unbalanced %v",
				p, c, keys, fair, counts)
		}
	}
}

func TestRingMinimalMovement(t *testing.T) {
	const keys = 2000
	full := newRing(ringPeers(5))
	smaller := newRing(ringPeers(4)) // node-4 removed

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owners(key, 1)[0]
		after := smaller.Owners(key, 1)[0]
		if before == "http://node-4:8417" {
			continue // must move, its owner is gone
		}
		if before != after {
			moved++
		}
	}
	// Consistent hashing's whole point: keys not owned by the removed
	// peer keep their owner.
	if moved != 0 {
		t.Errorf("%d of %d surviving-owner keys changed owner on peer removal", moved, keys)
	}
}
