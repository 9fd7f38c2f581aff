// Sticky streaming sessions and batched scans through the fleet tier:
// byte-identity against the local streaming engine, the gateway id
// remap, and the kill-a-shard-mid-session chaos proof. The chaos
// scenario runs the same seed twice (run-a/run-b) under -race; every
// session — including those pinned to the shard that dies mid-stream —
// must complete byte-identical to the local ground truth, without the
// client re-opening anything: the gateway restores the last acked
// checkpoint on a surviving replica, replays only the in-flight frame,
// and the transcript carries no duplicate and no lost match.
package gateway_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/faultinject/netchaos"
	"alveare/internal/gateway"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

var sessRules = []string{"ab+c", "needle", "sess-[a-f]-[0-9]+"}

// sessPayload is one tenant's stream, dense in matches that straddle
// the chunk sizes the tests push.
func sessPayload(tenant string, n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, "..abc..%s-7..needle..abbbbbbbbbbbbbbbbc..%s-42..", tenant, tenant)
	}
	return b.Bytes()
}

// localSessionMatches is the ground truth: the local streaming engine
// over the same stream with the server's default overlap.
func localSessionMatches(t *testing.T, payload []byte) []server.RuleMatch {
	t.Helper()
	rs, err := core.NewRuleSet(sessRules, backend.Options{}, core.WithDFA())
	if err != nil {
		t.Fatal(err)
	}
	var want []server.RuleMatch
	if _, err := rs.ScanReaderCtx(context.Background(), bytes.NewReader(payload),
		func(rule int, m core.Match, _ []byte) bool {
			want = append(want, server.RuleMatch{Rule: uint32(rule), Start: uint64(m.Start), End: uint64(m.End)})
			return true
		}); err != nil {
		t.Fatal(err)
	}
	sortMatches(want)
	if len(want) == 0 {
		t.Fatal("ground truth empty; the test would prove nothing")
	}
	return want
}

// streamSession pushes payload through one gateway session in
// chunk-sized frames and returns all matches, sorted.
func streamSession(t *testing.T, c *client.Client, payload []byte, chunk int) []server.RuleMatch {
	t.Helper()
	sess, err := c.OpenSession(0)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	var got []server.RuleMatch
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		ms, _, err := sess.Write(payload[off:end])
		if err != nil {
			t.Fatalf("Write at %d: %v", off, err)
		}
		got = append(got, ms...)
	}
	ms, consumed, err := sess.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if consumed != uint64(len(payload)) {
		t.Fatalf("consumed = %d, want %d", consumed, len(payload))
	}
	got = append(got, ms...)
	sortMatches(got)
	return got
}

// TestGatewaySessionSticky pins the fleet-tier tentpole invariant: a
// session through the gateway (id-remapped, pinned to one shard)
// returns byte-identical matches to the local streaming engine,
// across frame sizes, and the mapping table drains back to zero.
func TestGatewaySessionSticky(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, a0 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	_, a1 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	gw, gaddr := startGateway(t, gateway.Config{
		Backends: []string{a0, a1},
		Tenants:  []gateway.Tenant{{Name: "tenant-a"}, {Name: "tenant-b"}},
	})
	for _, tn := range []string{"tenant-a", "tenant-b"} {
		c := client.New(gaddr, client.WithTenant(tn, "default"))
		defer c.Close()
		payload := sessPayload(tn, 32<<10)
		want := localSessionMatches(t, payload)
		for _, chunk := range []int{13, 1024, 64 << 10} {
			got := streamSession(t, c, payload, chunk)
			if !bytes.Equal(server.EncodeMatches(got), server.EncodeMatches(want)) {
				t.Fatalf("%s chunk=%d: session through gateway not byte-identical to local", tn, chunk)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for gw.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway session mappings leaked: %d", gw.SessionCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGatewayBatch: SCAN-BATCH routes like SCAN (ring walk, failover)
// and its per-item results equal individual scans through the gateway.
func TestGatewayBatch(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, a0 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	_, a1 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	_, gaddr := startGateway(t, gateway.Config{
		Backends: []string{a0, a1},
		Tenants:  []gateway.Tenant{{Name: "tenant-a"}},
	})
	c := client.New(gaddr, client.WithTenant("tenant-a", "default"))
	defer c.Close()
	payloads := [][]byte{
		[]byte("..abc.."), {}, []byte("needle sess-a-1 needle"), sessPayload("tenant-a", 4096),
	}
	got, err := c.ScanBatch(payloads)
	if err != nil {
		t.Fatalf("ScanBatch: %v", err)
	}
	for i, p := range payloads {
		want, err := c.Scan(p)
		if err != nil {
			t.Fatalf("Scan item %d: %v", i, err)
		}
		if got[i].Err != nil {
			t.Fatalf("batch item %d failed: %v", i, got[i].Err)
		}
		sortMatches(got[i].Matches)
		sortMatches(want)
		if !bytes.Equal(server.EncodeMatches(got[i].Matches), server.EncodeMatches(want)) {
			t.Fatalf("batch item %d differs from SCAN through gateway", i)
		}
	}
}

// TestGatewaySessionChaosKillShard is the chaos proof: several tenants
// stream through sessions pinned across two shards; one shard dies
// mid-stream. EVERY session must complete byte-identical to the local
// ground truth — the ones pinned to the dead shard transparently, via
// checkpointed failover onto the survivor, with no client-visible
// re-open and no duplicate or lost match. The gateway's failover
// counters must prove the kill actually exercised the handoff. Same
// seed, two runs, -race.
func TestGatewaySessionChaosKillShard(t *testing.T) {
	for _, run := range []string{"run-a", "run-b"} {
		t.Run(run, func(t *testing.T) { gatewaySessionChaosRun(t) })
	}
}

func gatewaySessionChaosRun(t *testing.T) {
	t.Cleanup(leakCheck(t))
	t.Logf("gateway session chaos seed %d (edit gwChaosSeed to replay a variant)", gwChaosSeed)

	// Two real shards behind chaos proxies; shard 0 gets latency
	// jitter, shard 1 is the one killed mid-stream.
	var proxies []*netchaos.Proxy
	var addrs []string
	lat := netchaos.NewScenario("latency")
	lat.Latency = 200 * time.Microsecond
	lat.Jitter = 300 * time.Microsecond
	scenarios := [][]netchaos.Scenario{{lat}, nil}
	for i := 0; i < 2; i++ {
		_, saddr := startShard(t, server.Config{Rules: sessRules, Workers: 2})
		p, err := netchaos.New(saddr, gwChaosSeed+int64(i), scenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
		addrs = append(addrs, p.Addr())
	}

	// Enough tenants that the ring deterministically places sessions on
	// both shards (the placement depends only on the seeded ring).
	names := []string{"sess-a", "sess-b", "sess-c", "sess-d", "sess-e", "sess-f"}
	tenants := make([]gateway.Tenant, len(names))
	for i, n := range names {
		tenants[i] = gateway.Tenant{Name: n, QueueDepth: 64}
	}
	gw, gaddr := startGateway(t, gateway.Config{
		Backends:        addrs,
		Tenants:         tenants,
		BreakerFailures: 3,
		BreakerCooldown: 30 * time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		ShardTimeout:    2 * time.Second,
		Seed:            gwChaosSeed,
	})

	const chunk = 512
	type flow struct {
		name    string
		c       *client.Client
		sess    *client.Session
		payload []byte
		want    []server.RuleMatch
		got     []server.RuleMatch
		off     int
	}
	var flows []*flow
	for _, n := range names {
		c := client.New(gaddr, client.WithTenant(n, "default"))
		t.Cleanup(func() { c.Close() })
		payload := sessPayload(n, 16<<10)
		fl := &flow{name: n, c: c, payload: payload, want: localSessionMatches(t, payload)}
		sess, err := c.OpenSessionCtx(context.Background(), 0)
		if err != nil {
			t.Fatalf("seed %d: %s open: %v", gwChaosSeed, n, err)
		}
		fl.sess = sess
		flows = append(flows, fl)
	}

	// Stream the first half of every flow, then kill shard 1.
	push := func(fl *flow, until int) error {
		for fl.off < until {
			end := fl.off + chunk
			if end > until {
				end = until
			}
			ms, _, err := fl.sess.WriteCtx(context.Background(), fl.payload[fl.off:end])
			if err != nil {
				if errors.Is(err, client.ErrShed) {
					continue // chunk not absorbed; resend
				}
				return err
			}
			fl.off = end
			fl.got = append(fl.got, ms...)
		}
		return nil
	}
	for _, fl := range flows {
		if err := push(fl, len(fl.payload)/2); err != nil {
			t.Fatalf("seed %d: %s first half: %v", gwChaosSeed, fl.name, err)
		}
	}
	proxies[1].SetDown(true)

	// Stream the second half. EVERY flow — pinned to the survivor or to
	// the corpse — must complete byte-identical, with no re-open: the
	// gateway restores the dead shard's streams from their last acked
	// checkpoints on the survivor and replays only the in-flight frame.
	// A SHED mid-failover is allowed (the chunk was absorbed nowhere)
	// and the resend must eventually land.
	for _, fl := range flows {
		if err := push(fl, len(fl.payload)); err != nil {
			t.Fatalf("seed %d: %s second half: %v", gwChaosSeed, fl.name, err)
		}
		ms, consumed, err := fl.sess.CloseCtx(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %s close: %v", gwChaosSeed, fl.name, err)
		}
		if consumed != uint64(len(fl.payload)) {
			t.Fatalf("seed %d: %s consumed %d, want %d", gwChaosSeed, fl.name, consumed, len(fl.payload))
		}
		fl.got = append(fl.got, ms...)
		sortMatches(fl.got)
		if !bytes.Equal(server.EncodeMatches(fl.got), server.EncodeMatches(fl.want)) {
			t.Fatalf("seed %d: %s not byte-identical across the kill (lossy or duplicated stream)", gwChaosSeed, fl.name)
		}
	}

	// The kill must actually have exercised the handoff, or the chaos
	// proved nothing: at least one frame hit a dead shard and at least
	// one stream was rebuilt from its checkpoint on the survivor.
	snap := gw.MetricsSnapshot()
	failovers := snap.Get("gateway.sessions.failovers")
	restores := snap.Get("gateway.sessions.restores")
	replays := snap.Get("gateway.sessions.replays")
	if failovers == 0 || restores == 0 {
		t.Fatalf("seed %d: no session failed over (failovers=%d restores=%d); the chaos proved nothing (re-seed)",
			gwChaosSeed, failovers, restores)
	}
	t.Logf("seed %d: kill window: %d failovers, %d restores, %d replays, all %d sessions byte-identical",
		gwChaosSeed, failovers, restores, replays, len(flows))

	// No mapping leaks: every session ended through CLOSE.
	deadline := time.Now().Add(5 * time.Second)
	for gw.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: gateway session mappings leaked: %d", gwChaosSeed, gw.SessionCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	proxies[1].SetDown(false)
	// leakCheck (cleanup) pins that gateway, shards and proxies left no
	// goroutines behind.
}

// sessRulesText is the reload document equivalent to sessRules: same
// patterns, same order — reloading it bumps a shard's generation
// without changing results.
const sessRulesText = "ab+c\nneedle\nsess-[a-f]-[0-9]+\n"

// TestGatewaySessionFailoverGenerationFence: a checkpoint may only be
// restored onto a replica at the generation it was exported under.
// With the fleet diverged (the survivor reloaded behind the gateway's
// back), failover must REFUSE the wrong-generation survivor and answer
// SHED — never silently continue the stream under different rules —
// while keeping the session alive. When the right-generation shard
// rejoins, the resend restores there (the walk re-admits the lost
// shard after the first pass) and the stream completes byte-identical.
func TestGatewaySessionFailoverGenerationFence(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, a0 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	_, a1 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	p, err := netchaos.New(a1, gwChaosSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	names := []string{"sess-a", "sess-b", "sess-c", "sess-d", "sess-e", "sess-f"}
	tenants := make([]gateway.Tenant, len(names))
	for i, n := range names {
		tenants[i] = gateway.Tenant{Name: n, QueueDepth: 64}
	}
	gw, gaddr := startGateway(t, gateway.Config{
		Backends:          []string{a0, p.Addr()},
		Tenants:           tenants,
		BreakerFailures:   3,
		BreakerCooldown:   30 * time.Millisecond,
		ProbeInterval:     25 * time.Millisecond,
		ShardTimeout:      2 * time.Second,
		Seed:              gwChaosSeed,
		ReconcileInterval: -1, // keep the fleet diverged; the fence is under test
	})

	// Diverge the fleet behind the gateway's back: shard 0 moves to
	// generation 2 (same patterns, so checkpoints stay structurally
	// compatible — only the fence can tell the difference).
	d0 := client.New(a0)
	defer d0.Close()
	if _, _, err := d0.Reload(sessRulesText); err != nil {
		t.Fatalf("direct reload shard 0: %v", err)
	}

	const chunk = 512
	type flow struct {
		name    string
		sess    *client.Session
		payload []byte
		want    []server.RuleMatch
		got     []server.RuleMatch
		off     int
	}
	var flows []*flow
	for _, n := range names {
		c := client.New(gaddr, client.WithTenant(n, "default"))
		t.Cleanup(func() { c.Close() })
		payload := sessPayload(n, 8<<10)
		fl := &flow{name: n, payload: payload, want: localSessionMatches(t, payload)}
		sess, err := c.OpenSessionCtx(context.Background(), 0)
		if err != nil {
			t.Fatalf("%s open: %v", n, err)
		}
		fl.sess = sess
		flows = append(flows, fl)
	}
	writeOnce := func(fl *flow) error {
		end := fl.off + chunk
		if end > len(fl.payload) {
			end = len(fl.payload)
		}
		ms, _, err := fl.sess.WriteCtx(context.Background(), fl.payload[fl.off:end])
		if err != nil {
			return err
		}
		fl.off = end
		fl.got = append(fl.got, ms...)
		return nil
	}
	for _, fl := range flows {
		for fl.off < len(fl.payload)/2 {
			if err := writeOnce(fl); err != nil {
				t.Fatalf("%s first half: %v", fl.name, err)
			}
		}
	}

	// Kill shard 1. Its sessions exported checkpoints at generation 1;
	// the only reachable replica is at generation 2, so failover must
	// refuse it and SHED.
	p.SetDown(true)
	var fenced []*flow
	for _, fl := range flows {
		err := writeOnce(fl)
		switch {
		case err == nil:
			// Pinned to the survivor; untouched by the kill.
		case errors.Is(err, client.ErrShed):
			fenced = append(fenced, fl)
		default:
			t.Fatalf("%s write during fence: %v", fl.name, err)
		}
	}
	if len(fenced) == 0 {
		t.Fatalf("seed %d: no session was pinned to the killed shard; the fence was never tested (re-seed)", gwChaosSeed)
	}
	snap := gw.MetricsSnapshot()
	if snap.Get("gateway.sessions.genrefused") == 0 {
		t.Fatalf("generation fence never refused a replica (genrefused = 0)")
	}
	if snap.Get("gateway.sessions.restores") != 0 {
		t.Fatalf("a stream was restored across generations (restores = %d)", snap.Get("gateway.sessions.restores"))
	}
	if got := gw.SessionCount(); got != len(flows) {
		t.Fatalf("fenced SHED killed sessions: %d mappings, want %d", got, len(flows))
	}

	// Revive shard 1 — the only replica at generation 1. Its original
	// streams died with their connections, so the resends go
	// unknown-session → failover → fence refuses shard 0 → second pass
	// restores onto revived shard 1 itself. Every flow then completes
	// byte-identical.
	p.SetDown(false)
	for _, fl := range flows {
		deadline := time.Now().Add(10 * time.Second)
		for fl.off < len(fl.payload) {
			err := writeOnce(fl)
			if err == nil {
				continue
			}
			if !errors.Is(err, client.ErrShed) {
				t.Fatalf("%s post-revival write: %v", fl.name, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never recovered after the right-generation shard rejoined", fl.name)
			}
			time.Sleep(5 * time.Millisecond)
		}
		ms, consumed, err := fl.sess.CloseCtx(context.Background())
		if err != nil {
			t.Fatalf("%s close: %v", fl.name, err)
		}
		if consumed != uint64(len(fl.payload)) {
			t.Fatalf("%s consumed %d, want %d", fl.name, consumed, len(fl.payload))
		}
		fl.got = append(fl.got, ms...)
		sortMatches(fl.got)
		if !bytes.Equal(server.EncodeMatches(fl.got), server.EncodeMatches(fl.want)) {
			t.Fatalf("%s not byte-identical across the fence round-trip", fl.name)
		}
	}
}

// TestGatewayReloadReconcile: a RELOAD that misses a dark shard leaves
// the fleet diverged; the anti-entropy reconciler must notice the
// lagging generation via RULES-INFO once the shard rejoins and re-drive
// the remembered reload until the fleet converges.
func TestGatewayReloadReconcile(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, a0 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	_, a1 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	p, err := netchaos.New(a1, gwChaosSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	gw, gaddr := startGateway(t, gateway.Config{
		Backends:          []string{a0, p.Addr()},
		Tenants:           []gateway.Tenant{{Name: "sess-a"}},
		BreakerFailures:   3,
		BreakerCooldown:   30 * time.Millisecond,
		ProbeInterval:     25 * time.Millisecond,
		ShardTimeout:      2 * time.Second,
		Seed:              gwChaosSeed,
		ReconcileInterval: 20 * time.Millisecond,
	})
	c := client.New(gaddr, client.WithTenant("sess-a", "default"))
	defer c.Close()

	// Reload with shard 1 dark: the gateway reports the divergence...
	p.SetDown(true)
	if _, _, err := c.Reload(sessRulesText); err == nil {
		t.Fatal("reload with a dark shard reported success")
	}
	// ...and shard 0 has already moved past the boot generation.
	d0 := client.New(a0)
	defer d0.Close()
	if info, err := d0.RulesInfo(); err != nil || info.Generation != 1 {
		t.Fatalf("shard 0 after partial reload: gen %d err %v, want gen 1", info.Generation, err)
	}

	// Revive shard 1 (still at the boot generation). The reconciler
	// must converge it without any operator action.
	p.SetDown(false)
	d1 := client.New(a1)
	defer d1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if info, err := d1.RulesInfo(); err == nil && info.Generation >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 1 never converged to the fleet generation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := gw.MetricsSnapshot().Get("gateway.reload.reconciled"); got == 0 {
		t.Fatal("reconciler converged nothing (gateway.reload.reconciled = 0)")
	}
}

// TestGatewaySessionFramesBehindClose: frames pipelined behind a
// SESSION-CLOSE must answer unknown-session from the gateway itself.
// Forwarded, they would carry a dead shard id, the shard's
// unknown-session verdict would read as "shard restarted", and the
// failover path would restore the last checkpoint on a replica —
// resurrecting a closed stream and orphaning a shard session.
func TestGatewaySessionFramesBehindClose(t *testing.T) {
	t.Cleanup(leakCheck(t))
	s0, a0 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	s1, a1 := startShard(t, server.Config{Rules: sessRules, Workers: 2})
	gw, gaddr := startGateway(t, gateway.Config{
		Backends:      []string{a0, a1},
		Tenants:       []gateway.Tenant{{Name: "tenant-a"}},
		DefaultTenant: "tenant-a",
		Seed:          2024,
	})
	nc, err := net.Dial("tcp", gaddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	roundTrip := func(f server.Frame) server.Frame {
		t.Helper()
		if err := server.WriteFrame(nc, f); err != nil {
			t.Fatalf("write %s: %v", server.OpName(f.Op), err)
		}
		r, err := server.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("read answer to %s: %v", server.OpName(f.Op), err)
		}
		return r
	}
	ok := roundTrip(server.Frame{Op: server.OpSessionOpen, ID: 1, Body: make([]byte, 4)}) // SESSION-OPEN, default overlap
	sid, _, _, err := server.DecodeSessionOK(ok.Body, 0)
	if ok.Op != server.OpSessionOK || err != nil {
		t.Fatalf("open answered %s (%v)", server.OpName(ok.Op), err)
	}
	payload := sessPayload("tenant-a", 2048)
	if r := roundTrip(server.Frame{Op: server.OpSessionData, ID: 2,
		Body: server.EncodeSessionData(sid, payload)}); r.Op != server.OpSessionMatches {
		t.Fatalf("data answered %s", server.OpName(r.Op))
	}
	before := gw.MetricsSnapshot()

	// CLOSE + DATA + CLOSE in one write: all three are in the session's
	// FIFO before the first CLOSE executes.
	var burst bytes.Buffer
	server.WriteFrame(&burst, server.Frame{Op: server.OpSessionClose, ID: 3, Body: server.EncodeSessionClose(sid)})
	server.WriteFrame(&burst, server.Frame{Op: server.OpSessionData, ID: 4, Body: server.EncodeSessionData(sid, payload)})
	server.WriteFrame(&burst, server.Frame{Op: server.OpSessionClose, ID: 5, Body: server.EncodeSessionClose(sid)})
	if _, err := nc.Write(burst.Bytes()); err != nil {
		t.Fatalf("burst write: %v", err)
	}
	for id := uint32(3); id <= 5; id++ {
		r, err := server.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("answer %d: %v", id, err)
		}
		if r.ID != id {
			t.Fatalf("answer id %d, want %d (FIFO order)", r.ID, id)
		}
		if id == 3 {
			if final, _, _, _, derr := server.DecodeSessionMatches(r.Body, 0); r.Op != server.OpSessionMatches || derr != nil || !final {
				t.Fatalf("close answered %s final=%v (%v)", server.OpName(r.Op), final, derr)
			}
			continue
		}
		code, _, derr := server.DecodeError(r.Body)
		if r.Op != server.OpError || derr != nil || code != server.ErrCodeUnknownSession {
			t.Fatalf("frame %d behind the close answered %s code %d (%v), want ERROR unknown-session",
				id, server.OpName(r.Op), code, derr)
		}
	}
	after := gw.MetricsSnapshot()
	for _, name := range []string{"gateway.sessions.failovers", "gateway.sessions.restores", "gateway.sessions.replays"} {
		if d := after.Get(name) - before.Get(name); d != 0 {
			t.Errorf("%s moved by %d: a closed stream was resurrected", name, d)
		}
	}
	if n := gw.SessionCount(); n != 0 {
		t.Errorf("gateway SessionCount = %d after close, want 0", n)
	}
	for i, s := range []*server.Server{s0, s1} {
		if n := s.SessionCount(); n != 0 {
			t.Errorf("shard %d holds %d session(s) after the close (orphaned until its reaper)", i, n)
		}
	}
}

// TestGatewaySessionLimitConcurrent: MaxSessions holds when opens
// race. The cap is checked where the mapping is inserted, not one
// shard round trip earlier, so exactly MaxSessions opens win and the
// rest shed with reason capacity.
func TestGatewaySessionLimitConcurrent(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, a0 := startShard(t, server.Config{Rules: sessRules, Workers: 4})
	const limit, opens = 4, 16
	gw, gaddr := startGateway(t, gateway.Config{
		Backends:    []string{a0},
		Tenants:     []gateway.Tenant{{Name: "tenant-a", QueueDepth: opens}},
		MaxSessions: limit,
		Workers:     opens,
	})
	c := client.New(gaddr, client.WithTenant("tenant-a", ""))
	defer c.Close()
	errs := make(chan error, opens)
	for i := 0; i < opens; i++ {
		go func() {
			_, err := c.OpenSession(0)
			errs <- err
		}()
	}
	won := 0
	for i := 0; i < opens; i++ {
		err := <-errs
		var shed *client.ShedError
		switch {
		case err == nil:
			won++
		case errors.As(err, &shed) && shed.Reason == server.ShedReasonCapacity:
		default:
			t.Errorf("open: %v, want SESSION-OK or SHED capacity", err)
		}
	}
	if won != limit {
		t.Errorf("%d of %d concurrent opens won, want exactly MaxSessions = %d", won, opens, limit)
	}
	if n := gw.SessionCount(); n != limit {
		t.Errorf("SessionCount = %d, want %d", n, limit)
	}
}
