// Package fed is the hub-of-hubs federation tier: a front router
// spreading home-ids across N member hub nodes by rendezvous hashing, and
// live migration of parked sessions between nodes — the detach lot
// (internal/uniserver) made a parked session a small serializable object,
// and this package ships that object so topology change (deploys,
// rebalances, node loss) is invisible to a reconnecting client: it redials
// through the router, lands on whichever node now owns its home, and
// resumes with the same incremental resync an in-place reconnect gets. As
// in the paper, the per-home stacks and the protocol stay unmodified:
// routing and migration live entirely in front of them.
//
// A Cluster has no Close. A connection it routes is joined by its member
// hub's Close (ServePreamble → Route); a migration waits on the source
// hub's pins through Hub.Release. Only the goroutines Serve starts are
// joined by nothing while they read their preamble.
package fed

import "sort"

// Ring assigns home-ids to member nodes by rendezvous (highest-random-
// weight) hashing: every (node, home) pair gets a pseudo-random score
// and the home belongs to the highest-scoring node. Unlike a mod-N hash,
// adding or removing one node moves only the homes that node wins or
// held — about 1/N of the keyspace — which is exactly the slice a
// rebalance has to migrate.
//
// A Ring is immutable; With/Without return modified copies, so a router
// can swap rings atomically while migrations drain the delta.
type Ring struct {
	nodes []string
}

// NewRing builds a ring over the given member nodes.
func NewRing(nodes ...string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	return r
}

// score is FNV-1a over "node\x00home" pushed through a 64-bit avalanche
// finalizer: cheap and allocation-free. Raw FNV is too weakly mixed for
// rendezvous comparison over short, similar keys (sequential home-ids
// skew ownership badly); the fmix64 steps restore uniform high bits.
func score(node, homeID string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	h *= prime64 // the "\x00" separator byte (XOR with zero elided)
	for i := 0; i < len(homeID); i++ {
		h ^= uint64(homeID[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the member responsible for homeID, or ("", false) on an
// empty ring. Ties (astronomically unlikely with 64-bit scores) break by
// node-name order, so every router computes the same owner.
func (r *Ring) Owner(homeID string) (string, bool) {
	if r == nil || len(r.nodes) == 0 {
		return "", false
	}
	best, bestScore := "", uint64(0)
	for _, n := range r.nodes {
		if s := score(n, homeID); best == "" || s > bestScore || (s == bestScore && n < best) {
			best, bestScore = n, s
		}
	}
	return best, true
}

// Nodes returns the members (sorted; the slice is the ring's own).
func (r *Ring) Nodes() []string {
	if r == nil {
		return nil
	}
	return r.nodes
}

// Len returns the member count.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.nodes)
}

// With returns a ring with node added (no-op copy if already a member).
func (r *Ring) With(node string) *Ring {
	for _, n := range r.Nodes() {
		if n == node {
			return NewRing(r.nodes...)
		}
	}
	return NewRing(append(append([]string(nil), r.Nodes()...), node)...)
}

// Without returns a ring with node removed.
func (r *Ring) Without(node string) *Ring {
	out := make([]string, 0, r.Len())
	for _, n := range r.Nodes() {
		if n != node {
			out = append(out, n)
		}
	}
	return NewRing(out...)
}
