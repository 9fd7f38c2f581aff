package gateway_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"alveare/internal/gateway"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// startHungShard listens on loopback, accepts every connection and
// never answers: a shard that is up at the TCP level and dead above it.
func startHungShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	})
	return ln.Addr().String()
}

// A shard that accepts and never answers must trip its breaker: each
// leg to it times out after ShardTimeout, that timeout is the shard's
// failure (not a caller cancel), and after BreakerFailures of them the
// ring walks past the open breaker without paying the timeout again.
// The cooldown outlasts the test, so no half-open probe re-admits the
// shard.
func TestGatewayHungShardOpensBreaker(t *testing.T) {
	const (
		shardTimeout = 50 * time.Millisecond
		failures     = 3
		rounds       = 30
	)
	hung := startHungShard(t)
	_, live := startShard(t, server.Config{})
	gw, gaddr := startGateway(t, gateway.Config{
		Backends:        []string{hung, live},
		ShardTimeout:    shardTimeout,
		BreakerFailures: failures,
		BreakerCooldown: time.Hour,
	})

	tenants := []string{"t0", "t1", "t2"}
	clients := make([]*client.Client, len(tenants))
	for i, name := range tenants {
		clients[i] = client.New(gaddr, client.WithTenant(name, "default"))
		defer clients[i].Close()
	}
	slow := 0
	for r := 0; r < rounds; r++ {
		for i, c := range clients {
			start := time.Now()
			ms, err := c.Scan([]byte("alpha1"))
			if err != nil || len(ms) != 1 {
				t.Fatalf("round %d tenant %s: Scan = %v, %v; want one match", r, tenants[i], ms, err)
			}
			if time.Since(start) >= shardTimeout {
				slow++
			}
		}
	}
	snap := gw.MetricsSnapshot()
	rerouted := snap.Get("gateway.rerouted")
	if rerouted == 0 {
		t.Fatal("no tenant's ring walk starts at the hung shard; the test exercises nothing")
	}
	if slow > failures {
		t.Errorf("%d of %d SCANs paid the %v shard timeout, want at most %d (the breaker's threshold)",
			slow, rounds*len(tenants), shardTimeout, failures)
	}
	if got := client.BreakerState(snap.Get("gateway.backend.0.breaker_state")); got != client.BreakerOpen {
		t.Errorf("hung shard's breaker is %v after %d rerouted SCANs, want open", got, rerouted)
	}
	if snap.Get("client.breaker.transitions") == 0 {
		t.Error("client.breaker.transitions = 0: no breaker ever moved")
	}
}
