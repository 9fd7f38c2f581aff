// Chaos e2e: real servers behind deterministic netchaos proxies, a
// failover Pool in front, and the acceptance invariants of the
// resilience layer: every successful response is byte-identical to a
// direct RuleSet scan, the retry budget hides resets/truncations/a
// dead backend completely, circuit breakers open under the dead
// backend and close again after it revives, and nothing leaks.
//
// Every random decision — proxy jitter, scenario assignment, backoff
// schedules — derives from chaosSeed, printed on entry so a failing
// run can be replayed.
package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/faultinject/netchaos"
	"alveare/internal/metrics"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

const chaosSeed int64 = 20260806

// directMatches computes the ground truth the chaos runs are compared
// against: the matches a direct RuleSet scan produces, sorted, plus
// their canonical wire encoding.
func directMatches(t *testing.T, rules []string, payload []byte) ([]server.RuleMatch, []byte) {
	t.Helper()
	rs, err := core.NewRuleSet(rules, backend.Options{})
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
		t.Fatal("chaos ground truth is empty; the test would prove nothing")
	}
	return want, server.EncodeMatches(want)
}

// TestChaosPoolEndToEnd runs the same seeded chaos scenario twice; the
// outcome — 100% of idempotent requests completed within the retry
// budget, byte-identical to direct scans, breaker opened and recovered
// — must hold on both runs.
func TestChaosPoolEndToEnd(t *testing.T) {
	for _, run := range []string{"run-a", "run-b"} {
		t.Run(run, func(t *testing.T) { chaosPoolRun(t) })
	}
}

func chaosPoolRun(t *testing.T) {
	t.Cleanup(leakCheck(t))
	t.Logf("chaos seed %d (edit chaosSeed to replay a variant)", chaosSeed)

	rules := []string{"ab+c", "needle", "x.z"}
	payload := bytes.Repeat([]byte("..abc..needle..xyz..abbbbc.."), 50)
	want, wantBytes := directMatches(t, rules, payload)

	// Three real servers; the full response frame is ~4KiB, so the
	// reset and truncation offsets below land mid-frame.
	var addrs []string
	for i := 0; i < 3; i++ {
		_, addr := startServer(t, server.Config{Rules: rules, Workers: 2})
		addrs = append(addrs, addr)
	}

	// Backend A: first connection dies with a reset 900 bytes into a
	// response, later ones suffer latency+jitter. Backend B: dead until
	// revived below. Backend C: first connection's response is
	// truncated mid-frame, later ones are clean.
	reset := netchaos.NewScenario("reset-midframe")
	reset.ResetAfter = 900
	lat := netchaos.NewScenario("latency")
	lat.Latency = 200 * time.Microsecond
	lat.Jitter = 300 * time.Microsecond
	trunc := netchaos.NewScenario("trunc-midframe")
	trunc.TruncateAfter = 700

	pA, err := netchaos.New(addrs[0], chaosSeed, []netchaos.Scenario{reset, lat})
	if err != nil {
		t.Fatal(err)
	}
	defer pA.Close()
	pB, err := netchaos.New(addrs[1], chaosSeed+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pB.Close()
	pB.SetDown(true)
	pC, err := netchaos.New(addrs[2], chaosSeed+2, []netchaos.Scenario{trunc, netchaos.NewScenario("clean")})
	if err != nil {
		t.Fatal(err)
	}
	defer pC.Close()

	reg := metrics.New()
	pool, err := client.NewPool([]string{pA.Addr(), pB.Addr(), pC.Addr()},
		client.PoolSeed(chaosSeed),
		// One mid-frame reset fails every request pipelined on that
		// connection at once, so the failure threshold must exceed the
		// worst-case in-flight batch (4 goroutines) or a single fault
		// would open a live backend's breaker; and the cooldown must sit
		// well inside the cumulative backoff span so a request can
		// outwait an all-breakers-open moment within its budget.
		client.PoolRetries(10),
		client.PoolBackoff(time.Millisecond, 40*time.Millisecond),
		client.PoolAttemptTimeout(2*time.Second),
		client.PoolBreaker(5, 30*time.Millisecond),
		client.PoolMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Soak: concurrent idempotent traffic through the chaos. Every
	// request must succeed within the retry budget, and every SCAN
	// response must encode to exactly the direct scan's bytes — no
	// silent loss, duplication, or corruption survives.
	const goroutines, perG = 4, 15
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (g+i)%3 == 0 {
					n, err := pool.Count(payload)
					if err != nil {
						errCh <- fmt.Errorf("seed %d: count (g%d,i%d): %w", chaosSeed, g, i, err)
						continue
					}
					if n != uint64(len(want)) {
						errCh <- fmt.Errorf("seed %d: count (g%d,i%d) = %d, want %d", chaosSeed, g, i, n, len(want))
					}
					continue
				}
				got, err := pool.Scan(payload)
				if err != nil {
					errCh <- fmt.Errorf("seed %d: scan (g%d,i%d): %w", chaosSeed, g, i, err)
					continue
				}
				sortMatches(got)
				if !bytes.Equal(server.EncodeMatches(got), wantBytes) {
					errCh <- fmt.Errorf("seed %d: scan (g%d,i%d): response not byte-identical to direct scan", chaosSeed, g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	failed := 0
	for err := range errCh {
		failed++
		t.Error(err)
	}
	if failed > 0 {
		t.Fatalf("seed %d: %d/%d requests failed; want 100%% completion within the retry budget",
			chaosSeed, failed, goroutines*perG)
	}

	// The faults were real: retries happened, and the dead backend's
	// breaker is open (or mid-probe), never closed.
	snap := pool.MetricsSnapshot()
	if snap.Get("client.retries") == 0 {
		t.Errorf("seed %d: no retries recorded; the chaos injected nothing", chaosSeed)
	}
	if snap.Get("client.breaker.transitions") == 0 {
		t.Errorf("seed %d: no breaker transitions under a dead backend", chaosSeed)
	}
	if st := pool.States()[1]; st == client.BreakerClosed {
		t.Fatalf("seed %d: dead backend's breaker is closed (gauge %d)",
			chaosSeed, snap.Get("client.backend.1.breaker_state"))
	}

	// Revive backend B; request-path probes must walk the breaker
	// half-open → closed without operator intervention.
	pB.SetDown(false)
	deadline := time.Now().Add(10 * time.Second)
	for pool.States()[1] != client.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: breaker never closed after revival (state %v)", chaosSeed, pool.States()[1])
		}
		pool.Ping()
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		got, err := pool.Scan(payload)
		if err != nil {
			t.Fatalf("seed %d: scan %d after revival: %v", chaosSeed, i, err)
		}
		sortMatches(got)
		if !bytes.Equal(server.EncodeMatches(got), wantBytes) {
			t.Fatalf("seed %d: post-revival response not byte-identical", chaosSeed)
		}
	}

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	// leakCheck (cleanup) verifies the pool, proxies and servers left
	// no goroutines behind.
}

// TestServerDrainWithMidFrameResets: clients that die mid-frame with a
// hard RST — the chaos proxy's signature move — must not wedge a
// graceful drain.
func TestServerDrainWithMidFrameResets(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		srv := build(frontOpts{})
		addr := serve(t, srv)

		// A valid header promising a 100-byte body, followed by only 30
		// bytes and a reset; plus one straggler that just goes quiet.
		partial := make([]byte, 9+30)
		binary.BigEndian.PutUint32(partial[0:4], 5+100)
		partial[4] = server.OpScan
		binary.BigEndian.PutUint32(partial[5:9], 1)
		for i := 0; i < 5; i++ {
			nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nc.Write(partial); err != nil {
				t.Fatal(err)
			}
			if i < 4 {
				nc.(*net.TCPConn).SetLinger(0) // RST, not FIN
				nc.Close()
			} else {
				defer nc.Close() // mid-frame and silent: drain must not wait for it
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown with mid-frame resets: %v", err)
		}
		if d := time.Since(start); d > 3*time.Second {
			t.Fatalf("drain took %v; resets must not stall shutdown", d)
		}
	})
}

// oneConnListener serves exactly one pre-made connection — the harness
// for driving a Server over a net.Pipe, whose unbuffered writes make
// a non-reading client block the server instantly.
type oneConnListener struct {
	mu     sync.Mutex
	c      net.Conn
	served bool
	done   chan struct{}
	once   sync.Once
}

func newOneConnListener(c net.Conn) *oneConnListener {
	return &oneConnListener{c: c, done: make(chan struct{})}
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if !l.served {
		l.served = true
		c := l.c
		l.mu.Unlock()
		return c, nil
	}
	l.mu.Unlock()
	<-l.done
	return nil, net.ErrClosed
}

func (l *oneConnListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestWriteTimeoutUnwedgesBlackholedClient: a client that sends a
// request and then never reads (a blackholed peer) must not hold a
// response write — and therefore a drain — hostage; the write
// deadline breaks the connection instead.
func TestWriteTimeoutUnwedgesBlackholedClient(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		cli, srvEnd := net.Pipe()
		defer cli.Close()

		srv := build(frontOpts{Workers: 1, WriteTimeout: 100 * time.Millisecond})
		ln := newOneConnListener(srvEnd)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()

		// One PING the server will answer into the unbuffered pipe; we
		// never read, so the PONG write blocks the reader goroutine until
		// the write deadline kills the connection. The pipe is synchronous,
		// so once our write returns the server has consumed the request.
		if err := server.WriteFrame(cli, server.Frame{Op: server.OpPing, ID: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // let the server reach the blocked PONG write

		// Without the write deadline this drain would wedge on the stuck
		// writer until the 5s context force-closed everything; with it, the
		// connection dies at ~WriteTimeout and the drain finishes cleanly.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown wedged behind a blackholed client: %v", err)
		}
		if d := time.Since(start); d > 3*time.Second {
			t.Fatalf("drain took %v; the write timeout should have freed it in ~100ms", d)
		}
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	})
}
