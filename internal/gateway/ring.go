// Consistent-hash ring over backend shard indices. The gateway keys
// routing on "tenant/namespace", so one tenant's scans land on one
// shard (cache locality for its rule working set) while the fleet as a
// whole spreads tenants evenly. Virtual nodes smooth the distribution;
// a key's walk goes on round the ring past the owner so the router can
// fail over to the next distinct shard when a breaker has the owner
// excluded — the rebalance after a shard death is just "everyone's
// walk skips it".
package gateway

import (
	"fmt"
	"sort"
)

// ringReplicas is the default virtual-node count per backend: high
// enough that 3 backends split keys within a few percent of even.
const ringReplicas = 64

// ring is an immutable consistent-hash ring over backend indices
// [0, n). Safe for concurrent use once built.
type ring struct {
	points []ringPoint // sorted by hash
	n      int
}

type ringPoint struct {
	hash  uint64
	owner int
}

// newRing hashes replicas virtual nodes per backend (replicas <= 0
// selects ringReplicas). Vnode labels depend only on (index, replica),
// so the layout is deterministic across processes — every gateway in a
// fleet agrees on key placement.
func newRing(n, replicas int) *ring {
	if replicas <= 0 {
		replicas = ringReplicas
	}
	r := &ring{n: n, points: make([]ringPoint, 0, n*replicas)}
	for i := 0; i < n; i++ {
		for v := 0; v < replicas; v++ {
			h := fnv1a(fmt.Sprintf("shard-%d-vnode-%d", i, v))
			r.points = append(r.points, ringPoint{hash: h, owner: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		return p.owner < q.owner
	})
	return r
}

// walk starts the ring order of the key whose hash is h: the owner
// first, then each further distinct backend as the walk clockwise meets
// it. The router tries them in this order, so failover is sticky (the
// same key always spills to the same second choice) and total (every
// backend is eventually tried).
func (r *ring) walk(h uint64) ringWalk {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return ringWalk{r: r, start: i}
}

// ringWalk yields one key's ring order lazily, so routing a request
// builds no order slice. After all n backends it starts over at the
// owner: a retry budget past one pass walks the fleet again.
type ringWalk struct {
	r     *ring
	start int    // index in points of the owner's vnode
	step  int    // points visited in the current pass
	left  int    // backends still to yield in the current pass
	seen  uint64 // backends yielded in the current pass (n <= 64)
	seenX []bool // the same for fleets past 64 shards
}

// owner returns the first backend of the walk.
func (w *ringWalk) owner() int { return w.r.points[w.start].owner }

// next returns the walk's next backend.
func (w *ringWalk) next() int {
	if w.left == 0 {
		w.step, w.left, w.seen = 0, w.r.n, 0
		if w.r.n > 64 {
			w.seenX = make([]bool, w.r.n)
		}
	}
	for {
		o := w.r.points[(w.start+w.step)%len(w.r.points)].owner
		w.step++
		if w.seenX != nil {
			if w.seenX[o] {
				continue
			}
			w.seenX[o] = true
		} else {
			if w.seen&(1<<o) != 0 {
				continue
			}
			w.seen |= 1 << o
		}
		w.left--
		return o
	}
}

// keyHash is the ring hash of a request's routing key "tenant/namespace",
// computed without building the key.
func keyHash[S ~string | ~[]byte](tenant, namespace S) uint64 {
	return fnv1aMore(fnv1aMore(fnv1aMore(fnvOffset, tenant), "/"), namespace)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a is the 64-bit FNV-1a hash — stable across runs and platforms,
// unlike hash/maphash.
func fnv1a(s string) uint64 { return fnv1aMore(fnvOffset, s) }

// fnv1aMore continues an FNV-1a hash h over s.
func fnv1aMore[S ~string | ~[]byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
