package gateway_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"alveare/internal/gateway"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

var testRules = []string{
	`alpha[0-9]+`,
	`beta-(secret|token)`,
	`[a-f0-9]{8}-dead`,
}

// leakCheck snapshots the goroutine count; the returned func asserts
// it returned — the gateway's accept/worker/prober goroutines must
// not outlive Shutdown.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for i := 0; i < 200; i++ {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// startShard runs one scan-service replica on a loopback port.
func startShard(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Rules == nil {
		cfg.Rules = testRules
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return srv, ln.Addr().String()
}

// startGateway runs a gateway over the given shard addresses.
func startGateway(t *testing.T, cfg gateway.Config) (*gateway.Gateway, string) {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = []gateway.Tenant{{Name: "t0"}, {Name: "t1"}, {Name: "t2"}}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- gw.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			t.Errorf("gateway Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("gateway Serve: %v", err)
		}
	})
	return gw, ln.Addr().String()
}

func sortMatches(ms []server.RuleMatch) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Rule != ms[b].Rule {
			return ms[a].Rule < ms[b].Rule
		}
		if ms[a].Start != ms[b].Start {
			return ms[a].Start < ms[b].Start
		}
		return ms[a].End < ms[b].End
	})
}

func matchesEqual(a, b []server.RuleMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Routed scans through the gateway must be byte-identical to a direct
// scan on a shard, for every tenant and op.
func TestGatewayRoutesIdentically(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, s0 := startShard(t, server.Config{})
	_, s1 := startShard(t, server.Config{})
	_, s2 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{Backends: []string{s0, s1, s2}})

	payload := []byte("xx alpha42 yy beta-token zz deadbeef-dead")
	direct := client.New(s0)
	defer direct.Close()
	want, err := direct.Scan(payload)
	if err != nil {
		t.Fatalf("direct Scan: %v", err)
	}
	sortMatches(want)
	if len(want) == 0 {
		t.Fatal("test payload matches no rules")
	}

	for _, tenant := range []string{"t0", "t1", "t2"} {
		c := client.New(gaddr, client.WithTenant(tenant, "default"))
		got, err := c.Scan(payload)
		if err != nil {
			t.Fatalf("tenant %s Scan via gateway: %v", tenant, err)
		}
		sortMatches(got)
		if !matchesEqual(got, want) {
			t.Errorf("tenant %s: gateway scan %v != direct %v", tenant, got, want)
		}
		n, err := c.Count(payload)
		if err != nil {
			t.Fatalf("tenant %s Count via gateway: %v", tenant, err)
		}
		if int(n) != len(want) {
			t.Errorf("tenant %s: gateway count %d != %d", tenant, n, len(want))
		}
		if err := c.Ping(); err != nil {
			t.Errorf("tenant %s Ping via gateway: %v", tenant, err)
		}
		info, err := c.RulesInfo()
		if err != nil {
			t.Fatalf("tenant %s RulesInfo via gateway: %v", tenant, err)
		}
		if len(info.Patterns) != len(testRules) {
			t.Errorf("tenant %s: RulesInfo %d patterns, want %d", tenant, len(info.Patterns), len(testRules))
		}
		c.Close()
	}
}

// An unregistered tenant gets ERROR unknown-tenant, not a scan.
func TestGatewayUnknownTenant(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{Backends: []string{s0}})

	c := client.New(gaddr, client.WithTenant("ghost", ""))
	defer c.Close()
	_, err := c.Scan([]byte("alpha1"))
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != server.ErrCodeUnknownTenant {
		t.Fatalf("Scan as unknown tenant: got %v, want ServerError code %d", err, server.ErrCodeUnknownTenant)
	}

	// A bare request with no DefaultTenant configured is rejected too.
	bare := client.New(gaddr)
	defer bare.Close()
	_, err = bare.Scan([]byte("alpha1"))
	if !errors.As(err, &se) || se.Code != server.ErrCodeUnknownTenant {
		t.Fatalf("bare Scan with no default tenant: got %v, want ServerError code %d", err, server.ErrCodeUnknownTenant)
	}
}

// DefaultTenant adopts bare queue-class requests, so pre-gateway
// clients keep working.
func TestGatewayDefaultTenant(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{
		Backends:      []string{s0},
		DefaultTenant: "t0",
	})
	c := client.New(gaddr)
	defer c.Close()
	ms, err := c.Scan([]byte("alpha7"))
	if err != nil {
		t.Fatalf("bare Scan with default tenant: %v", err)
	}
	if len(ms) != 1 {
		t.Fatalf("bare Scan: %d matches, want 1", len(ms))
	}
}

// A tenant past its token bucket SHEDs with reason quota; the bucket
// refills and the tenant recovers.
func TestGatewayQuotaShed(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{
		Backends: []string{s0},
		Tenants: []gateway.Tenant{
			{Name: "limited", RateRPS: 5, Burst: 2},
			{Name: "free"},
		},
	})
	c := client.New(gaddr, client.WithTenant("limited", ""))
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Scan([]byte("alpha1")); err != nil {
			t.Fatalf("Scan %d within burst: %v", i, err)
		}
	}
	_, err := c.Scan([]byte("alpha1"))
	var shed *client.ShedError
	if !errors.As(err, &shed) || shed.Reason != server.ShedReasonQuota {
		t.Fatalf("Scan past quota: got %v, want SHED reason quota", err)
	}
	if !errors.Is(err, client.ErrShed) {
		t.Fatalf("reasoned SHED does not satisfy errors.Is(err, ErrShed): %v", err)
	}
	// The free tenant is unaffected.
	free := client.New(gaddr, client.WithTenant("free", ""))
	defer free.Close()
	if _, err := free.Scan([]byte("alpha1")); err != nil {
		t.Fatalf("free tenant Scan while limited tenant sheds: %v", err)
	}
	// ~400ms at 5 rps refills enough for one more.
	time.Sleep(400 * time.Millisecond)
	if _, err := c.Scan([]byte("alpha1")); err != nil {
		t.Fatalf("Scan after quota refill: %v", err)
	}
}

// A noisy tenant overflowing its fair-queue FIFO SHEDs with reason
// fair-queue while a quiet tenant's requests still complete.
func TestGatewayFairQueueShed(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	_, s0 := startShard(t, server.Config{
		Workers: 1,
		ScanHook: func() {
			// Park the first scan until released, wedging the single
			// worker so the gateway's queue backs up.
			select {
			case <-release:
			default:
				<-release
			}
		},
	})
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	_, gaddr := startGateway(t, gateway.Config{
		Backends: []string{s0},
		Workers:  1,
		Tenants: []gateway.Tenant{
			{Name: "noisy", QueueDepth: 2},
			{Name: "quiet", QueueDepth: 8},
		},
		ShardTimeout: 10 * time.Second,
	})

	// Saturate: 1 in the gateway worker + 2 in noisy's FIFO; the rest
	// must shed with reason fair-queue.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fairqSheds, oks int
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(gaddr, client.WithTenant("noisy", ""))
			defer c.Close()
			_, err := c.Scan([]byte("alpha1"))
			mu.Lock()
			defer mu.Unlock()
			var shed *client.ShedError
			switch {
			case err == nil:
				oks++
			case errors.As(err, &shed) && shed.Reason == server.ShedReasonFairQ:
				fairqSheds++
			default:
				t.Errorf("noisy Scan: unexpected outcome %v", err)
			}
		}()
	}
	// Give the noisy requests time to stack up, then release the shard.
	time.Sleep(300 * time.Millisecond)
	once.Do(func() { close(release) })
	wg.Wait()
	if fairqSheds == 0 {
		t.Errorf("no fair-queue sheds despite FIFO depth 2 and 8 concurrent requests (ok=%d)", oks)
	}
	if oks == 0 {
		t.Error("every noisy request shed; expected the FIFO's worth to complete")
	}
}

// Scatter-gather: with the whole fleet up SCAN-PATTERN answers plain
// MATCHES identical to a direct scan; with one shard dark it answers
// MATCHES-PARTIAL carrying the same matches and explicit accounting.
func TestGatewayScatterGather(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	_, s1 := startShard(t, server.Config{})
	dead, s2 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{
		Backends:     []string{s0, s1, s2},
		ShardTimeout: time.Second,
	})

	payload := []byte("one alpha1 two alpha22 three")
	direct := client.New(s0)
	defer direct.Close()
	want, err := direct.ScanPattern(`alpha[0-9]+`, payload)
	if err != nil {
		t.Fatalf("direct ScanPattern: %v", err)
	}
	sortMatches(want)

	c := client.New(gaddr, client.WithTenant("t0", "ns"))
	defer c.Close()
	got, err := c.ScanPattern(`alpha[0-9]+`, payload)
	if err != nil {
		t.Fatalf("gateway ScanPattern, fleet up: %v", err)
	}
	sortMatches(got)
	if !matchesEqual(got, want) {
		t.Fatalf("fleet-up scatter-gather %v != direct %v", got, want)
	}

	// Kill shard 2: the fan-out must report partial, not silently
	// shrink.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	dead.Shutdown(ctx)
	cancel()

	_, err = c.ScanPattern(`alpha[0-9]+`, payload)
	var pe *client.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("gateway ScanPattern with dead shard: got %v, want PartialError", err)
	}
	if pe.ShardsOK != 2 || pe.ShardsFailed != 1 {
		t.Errorf("partial accounting %d ok / %d failed, want 2/1", pe.ShardsOK, pe.ShardsFailed)
	}
	sortMatches(pe.Matches)
	if !matchesEqual(pe.Matches, want) {
		t.Errorf("partial matches %v != direct %v (replicas: partial coverage must still agree)", pe.Matches, want)
	}

	// A bad pattern is an authoritative compile error, not a partial.
	_, err = c.ScanPattern(`((`, payload)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != server.ErrCodeCompile {
		t.Fatalf("bad pattern via gateway: got %v, want compile error", err)
	}
}

// A valid pattern that matches nothing must answer plain MATCHES with
// zero matches from a healthy fleet — an empty reply is coverage, not
// a failed leg, so it must never degrade to SHED or partial.
func TestGatewayScatterGatherNoMatches(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	_, s1 := startShard(t, server.Config{})
	dead, s2 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{
		Backends:     []string{s0, s1, s2},
		ShardTimeout: time.Second,
	})

	c := client.New(gaddr, client.WithTenant("t0", "ns"))
	defer c.Close()
	payload := []byte("nothing here matches")
	got, err := c.ScanPattern(`zzz-never-present`, payload)
	if err != nil {
		t.Fatalf("gateway ScanPattern with zero matches: %v (want empty MATCHES)", err)
	}
	if len(got) != 0 {
		t.Fatalf("zero-match pattern returned %d matches: %v", len(got), got)
	}

	// With one shard dark the same pattern is partial with explicit
	// accounting — still not a SHED.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	dead.Shutdown(ctx)
	cancel()
	_, err = c.ScanPattern(`zzz-never-present`, payload)
	var pe *client.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("zero-match with dead shard: got %v, want PartialError", err)
	}
	if pe.ShardsOK != 2 || pe.ShardsFailed != 1 {
		t.Errorf("partial accounting %d ok / %d failed, want 2/1", pe.ShardsOK, pe.ShardsFailed)
	}
	if len(pe.Matches) != 0 {
		t.Errorf("zero-match partial carried %d matches", len(pe.Matches))
	}
}

// RELOAD fans out to every replica; a fleet with a dead shard reports
// divergence instead of claiming success.
func TestGatewayReloadFanout(t *testing.T) {
	sv0, s0 := startShard(t, server.Config{})
	sv1, s1 := startShard(t, server.Config{})
	dead, s2 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{
		Backends:     []string{s0, s1, s2},
		ShardTimeout: time.Second,
	})
	c := client.New(gaddr, client.WithTenant("t0", ""))
	defer c.Close()

	gen, rules, err := c.Reload("gamma[0-9]+\nalpha[0-9]+\n")
	if err != nil {
		t.Fatalf("Reload via gateway: %v", err)
	}
	if gen != 1 || rules != 2 {
		t.Errorf("Reload: gen %d rules %d, want 1/2", gen, rules)
	}
	for i, sv := range []*server.Server{sv0, sv1, dead} {
		if got := sv.Info().Generation; got != 1 {
			t.Errorf("shard %d at generation %d after fleet reload, want 1", i, got)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	dead.Shutdown(ctx)
	cancel()
	_, _, err = c.Reload("delta\n")
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "diverged") {
		t.Fatalf("Reload with dead shard: got %v, want fleet-diverged error", err)
	}
}

// STATS aggregates: fleet.shards.reachable, per-tenant counters and
// per-shard breaker gauges all appear in one schema-v1 snapshot.
func TestGatewayStatsAggregation(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	_, s1 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{Backends: []string{s0, s1}})

	c := client.New(gaddr, client.WithTenant("t1", ""))
	defer c.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.Scan([]byte(fmt.Sprintf("alpha%d", i))); err != nil {
			t.Fatalf("Scan %d: %v", i, err)
		}
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats via gateway: %v", err)
	}
	if got := snap.Get("fleet.shards.reachable"); got != 2 {
		t.Errorf("fleet.shards.reachable = %d, want 2", got)
	}
	if got := snap.Get("gateway.tenant.t1.requests"); got < n {
		t.Errorf("gateway.tenant.t1.requests = %d, want >= %d", got, n)
	}
	if got := snap.Get("fleet.server.scan.requests"); got < n {
		t.Errorf("fleet.server.scan.requests = %d, want >= %d", got, n)
	}
	if _, ok := snap.Find("gateway.backend.0.breaker_state"); !ok {
		t.Error("snapshot missing gateway.backend.0.breaker_state gauge")
	}
	if _, ok := snap.Find("gateway.tenant.t1.queue.depth"); !ok {
		t.Error("snapshot missing gateway.tenant.t1.queue.depth gauge")
	}
}

// The naming contract: across a live gateway's STATS (its own counters
// plus the fleet.* aggregates) and a live shard's, no two metric
// families — the dotted prefixes metrics are grouped under — may differ
// only by a singular/plural segment: one family, one prefix
// (gateway.session.* beside gateway.sessions.* was the drift) — and no
// leaf may be a family's name plus "s" (server.reloads beside
// server.reload.* was).
func TestMetricNamingContract(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	_, gaddr := startGateway(t, gateway.Config{Backends: []string{s0}})

	spellings := map[string]string{} // plural-folded family -> family as first spelled
	var leaves []string
	for _, c := range []*client.Client{client.New(gaddr, client.WithTenant("t1", "")), client.New(s0)} {
		defer c.Close()
		if _, err := c.Scan([]byte("alpha1 beta-token")); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		snap, err := c.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		for _, m := range snap.Metrics {
			leaves = append(leaves, m.Name)
			segs := strings.Split(m.Name, ".")
			folded := make([]string, len(segs)-1)
			for i, seg := range segs[:len(segs)-1] {
				folded[i] = strings.TrimSuffix(seg, "s")
				key, family := strings.Join(folded[:i+1], "."), strings.Join(segs[:i+1], ".")
				if first, ok := spellings[key]; ok && first != family {
					t.Errorf("metric families %q and %q differ only by a plural", first, family)
				}
				spellings[key] = family
			}
		}
	}
	if len(spellings) == 0 {
		t.Fatal("no metrics in either snapshot")
	}
	for _, leaf := range leaves {
		if family := strings.TrimSuffix(leaf, "s"); family != leaf && spellings[family] == family {
			t.Errorf("metric %q is the family %q.* plus a plural", leaf, family)
		}
	}
}

// An oversized tenant name is a malformed envelope: the gateway
// answers ERROR bad-frame rather than routing or hanging.
func TestGatewayOversizedTenantHeader(t *testing.T) {
	_, s0 := startShard(t, server.Config{})
	gw, gaddr := startGateway(t, gateway.Config{Backends: []string{s0}})
	errsBefore := gw.MetricsSnapshot().Get("gateway.errors")

	nc, err := net.Dial("tcp", gaddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// Hand-build a TENANT body with a 65-byte tenant name, which
	// EncodeTenant would refuse.
	name := strings.Repeat("x", server.MaxTenantName+1)
	body := append([]byte{byte(len(name))}, name...)
	body = append(body, 0)             // empty namespace
	body = append(body, server.OpScan) // inner op
	body = append(body, []byte("alpha1")...)
	if err := server.WriteFrame(nc, server.Frame{Op: server.OpTenant, ID: 9, Body: body}); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := server.ReadFrame(nc, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if f.Op != server.OpError || f.ID != 9 {
		t.Fatalf("got op 0x%02X id %d, want ERROR id 9", f.Op, f.ID)
	}
	code, _, err := server.DecodeError(f.Body)
	if err != nil || code != server.ErrCodeBadFrame {
		t.Fatalf("error body code %d (%v), want bad-frame", code, err)
	}
	if d := gw.MetricsSnapshot().Get("gateway.errors") - errsBefore; d != 1 {
		t.Fatalf("gateway.errors moved by %d for one malformed envelope, want 1", d)
	}
}

// Graceful drain answers every admitted request before the gateway
// exits; nothing leaks.
func TestGatewayDrainCompletes(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, s0 := startShard(t, server.Config{})
	gw, gaddr := startGateway(t, gateway.Config{Backends: []string{s0}})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var completed, refused int
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(gaddr, client.WithTenant("t0", ""))
			defer c.Close()
			_, err := c.Scan([]byte("alpha1"))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				completed++
			} else {
				refused++ // drain raced the request; a clean refusal is fine
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if completed == 0 {
		t.Errorf("no request completed before drain (refused=%d)", refused)
	}
	// Shutdown again is idempotent.
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
