package gateway

import (
	"fmt"
	"testing"

	"alveare/internal/server"
)

// ownerOf is the first backend of key's ring walk.
func ownerOf(r *ring, key string) int {
	w := r.walk(fnv1a(key))
	return w.owner()
}

// walkOrder collects one pass of key's ring walk.
func walkOrder(r *ring, key string) []int {
	w := r.walk(fnv1a(key))
	out := make([]int, r.n)
	for i := range out {
		out[i] = w.next()
	}
	return out
}

// The ring must be deterministic across constructions — every gateway
// in a fleet agrees on key placement.
func TestRingDeterministic(t *testing.T) {
	a, b := newRing(5, 0), newRing(5, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("tenant-%d/ns-%d", i%7, i%3)
		if ownerOf(a, key) != ownerOf(b, key) {
			t.Fatalf("key %q: owners diverge (%d vs %d)", key, ownerOf(a, key), ownerOf(b, key))
		}
	}
}

// Vnodes must spread keys roughly evenly: with 64 vnodes per backend
// no backend should own more than ~2x its fair share of keys.
func TestRingBalance(t *testing.T) {
	const n, keys = 3, 3000
	r := newRing(n, 0)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[ownerOf(r, fmt.Sprintf("tenant-%d/default", i))]++
	}
	fair := keys / n
	for i, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("backend %d owns %d of %d keys (fair %d): imbalanced", i, c, keys, fair)
		}
	}
}

// Order must list every backend exactly once, owner first, and stay
// stable per key (sticky failover).
func TestRingOrder(t *testing.T) {
	r := newRing(4, 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("t-%d/ns", i)
		order := walkOrder(r, key)
		if len(order) != 4 {
			t.Fatalf("key %q: order %v misses backends", key, order)
		}
		if order[0] != ownerOf(r, key) {
			t.Fatalf("key %q: order %v does not start at owner %d", key, order, ownerOf(r, key))
		}
		seen := map[int]bool{}
		for _, o := range order {
			if seen[o] {
				t.Fatalf("key %q: order %v repeats backend %d", key, order, o)
			}
			seen[o] = true
		}
		again := walkOrder(r, key)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("key %q: order not stable (%v vs %v)", key, order, again)
			}
		}
	}
}

// A single-backend ring routes everything to backend 0.
func TestRingSingle(t *testing.T) {
	r := newRing(1, 0)
	if got := ownerOf(r, "anything"); got != 0 {
		t.Fatalf("ownerOf = %d, want 0", got)
	}
	if got := walkOrder(r, "anything"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("walkOrder = %v, want [0]", got)
	}
}

// refOrder is the ring order as the router once built it, one slice per
// request: the walk must reproduce it exactly, or routing and failover
// would move keys between shards.
func refOrder(r *ring, h uint64) []int {
	start := 0
	for start < len(r.points) && r.points[start].hash < h {
		start++
	}
	if start == len(r.points) {
		start = 0
	}
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		o := r.points[(start+i)%len(r.points)].owner
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// The lazy walk yields the materialised order, pass after pass, for
// fleets on both sides of its 64-shard bitmask; and the routing key it
// hashes in place is the TENANT header's "tenant/namespace" key.
func TestRingWalkMatchesOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 64, 70} {
		r := newRing(n, 0)
		for i := 0; i < 200; i++ {
			h := keyHash(fmt.Sprintf("tenant-%d", i), "ns")
			want := refOrder(r, h)
			w := r.walk(h)
			if w.owner() != want[0] {
				t.Fatalf("n=%d key %d: owner %d, want %d", n, i, w.owner(), want[0])
			}
			for pass := 0; pass < 2; pass++ {
				for k, o := range want {
					if got := w.next(); got != o {
						t.Fatalf("n=%d key %d pass %d: step %d = %d, want %d (order %v)", n, i, pass, k, got, o, want)
					}
				}
			}
		}
	}
	h := server.TenantHeader{Tenant: "acme", Namespace: "prod"}
	if keyHash(h.Tenant, h.Namespace) != fnv1a(h.Key()) || keyHash([]byte(h.Tenant), []byte(h.Namespace)) != fnv1a(h.Key()) {
		t.Fatal("keyHash differs from the hash of TenantHeader.Key()")
	}
}
