// Package ring implements consistent hashing over a static set of
// peers — the ownership map of the fleet's sharded result-cache tier.
// Every simd instance is configured with the same member set (its own
// address plus its peers), so every instance derives the same ring and
// agrees on which node owns any cache key without coordination. Virtual
// nodes smooth the ownership distribution, and consistent hashing keeps
// remapping minimal when the fleet grows: adding one member moves only
// the keys that member takes over, never keys between existing members.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-member virtual-node count when New is
// given a non-positive one. 128 points per member keeps the ownership
// spread within a few percent of uniform for small fleets while the
// ring stays tiny (a handful of KB).
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring. Build one with New; all
// methods are safe for concurrent use.
type Ring struct {
	self    string
	members []string // sorted, deduplicated
	points  []point  // sorted by hash
}

// point is one virtual node: a position on the ring and the member that
// owns the arc ending there.
type point struct {
	hash   uint64
	member string
}

// New builds a ring over self plus peers with vnodes virtual nodes per
// member (<= 0: DefaultVirtualNodes). Duplicate addresses collapse to
// one member, so passing self in peers too is harmless. Member strings
// are compared literally — "http://a:8080" and "http://A:8080" are
// different members, and every instance in a fleet must be configured
// with byte-identical address spellings to agree on ownership.
func New(self string, peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	var members []string
	for _, m := range append([]string{self}, peers...) {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		members = append(members, m)
	}
	sort.Strings(members)
	r := &Ring{self: self, members: members, points: make([]point, 0, len(members)*vnodes)}
	for _, m := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: pointHash(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding points tie-break on member so every instance sorts
		// identically regardless of input order.
		return a.member < b.member
	})
	return r
}

// pointHash places virtual node i of member m on the ring.
func pointHash(member string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|vnode-%d", member, i)
	return h.Sum64()
}

// Self reports the address this instance was built with.
func (r *Ring) Self() string { return r.self }

// Members reports the deduplicated, sorted member set.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner reports the member owning key: the member of the first virtual
// node at or clockwise of the key's position, wrapping at the top. A
// ring with no members owns nothing and returns "".
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}
