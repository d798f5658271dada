// Package cluster turns a set of mixd processes into a sharded mediator
// fleet: a consistent-hash ring routes each session to the node that
// owns its (view name, canonical plan fingerprint) key, sessions landing
// elsewhere are proxied to the owner, and every node's in-process
// region cache (L1) is backed by a peer-fill L2 protocol so
// a region explored anywhere in the fleet is fetched from its owner
// before any node falls back to sources. Membership is static (the
// -peers flag); periodic health checks with timeout and backoff mark
// peers down, and a node whose peers are all down degrades to exactly
// the single-node behavior — it serves everything locally from its own
// sources.
//
// The design follows LiquidXML's adaptive content redistribution
// (PAPERS.md): hot view regions accumulate at the nodes whose clients
// navigate them, because routing sends those clients — and the L2
// flusher sends regions explored during degraded or local-mode serving
// — to the key's owner.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultReplicas is the default number of virtual nodes per member: a
// few dozen vnodes keeps the expected imbalance between members within
// a few percent while the ring stays small enough to rebuild instantly.
const DefaultReplicas = 64

// RouteKey renders the session routing key for a query: the region
// cache's (view name, canonical plan fingerprint) identity, NUL-joined
// so distinct pairs can never collide textually.
func RouteKey(name, fingerprint string) string {
	return name + "\x00" + fingerprint
}

// Ring is an immutable consistent-hash ring over the fleet's member
// addresses. Each member is placed at Replicas pseudo-random points;
// a key is owned by the member of the first point at or clockwise of
// the key's hash. When several points collide on the exact same hash
// value, the tie is broken by rendezvous (highest-random-weight)
// hashing over the tied members, so ownership stays deterministic and
// independent of member insertion order.
type Ring struct {
	replicas int
	members  []string
	points   []point
}

type point struct {
	hash   uint64
	member string
}

// NewRing builds a ring over the given member addresses (deduplicated;
// order is irrelevant). replicas <= 0 uses DefaultReplicas.
func NewRing(members []string, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(members))
	seen := map[string]bool{}
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member address")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{replicas: replicas, members: uniq}
	r.points = make([]point, 0, len(uniq)*replicas)
	for _, m := range uniq {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the ring's member addresses, sorted.
func (r *Ring) Members() []string { return r.members }

// Contains reports whether addr is a ring member.
func (r *Ring) Contains(addr string) bool {
	i := sort.SearchStrings(r.members, addr)
	return i < len(r.members) && r.members[i] == addr
}

// Owner returns the member that owns key: the member of the first
// virtual node at or clockwise of the key's hash, with rendezvous
// tie-break when several virtual nodes collide on that exact hash.
func (r *Ring) Owner(key string) string {
	if len(r.members) == 1 {
		return r.members[0]
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the ring
	}
	// Collect the run of points sharing the winning hash value; with a
	// 64-bit hash this is almost always a single point.
	end := i + 1
	for end < len(r.points) && r.points[end].hash == r.points[i].hash {
		end++
	}
	if end-i == 1 {
		return r.points[i].member
	}
	best, bestW := "", uint64(0)
	for _, p := range r.points[i:end] {
		if w := hash64(p.member + "\x00" + key); best == "" || w > bestW || (w == bestW && p.member < best) {
			best, bestW = p.member, w
		}
	}
	return best
}

// hash64 is FNV-1a over s: process-stable, allocation-free, and good
// enough for ring placement (vnode fan-out smooths any bias).
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
