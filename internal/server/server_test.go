package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// leakCheck snapshots the goroutine count; the returned func asserts
// the count returned to it (same discipline as the repo-level fault
// matrix tests — the server's accept/worker/drain goroutines must not
// outlive Shutdown).
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for i := 0; i < 100; i++ {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// startServer builds a server, serves it on a loopback port and
// returns it with its address (cleanup as in serve).
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv, serve(t, srv)
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sortMatches(ms []server.RuleMatch) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Rule != ms[b].Rule {
			return ms[a].Rule < ms[b].Rule
		}
		return ms[a].Start < ms[b].Start
	})
}

// TestServerScanMatchesDirect pins the acceptance invariant: a scan
// through the service returns exactly the matches a direct RuleSet
// scan of the same rules over the same payload produces.
func TestServerScanMatchesDirect(t *testing.T) {
	rules := []string{"ab+c", "needle", "x.z"}
	payload := []byte(strings.Repeat("..abc..needle..xyz..abbbbc..", 50))

	_, addr := startServer(t, server.Config{Rules: rules})
	c := dial(t, addr)
	got, err := c.Scan(payload)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}

	rs, err := core.NewRuleSet(rules, backend.Options{})
	if err != nil {
		t.Fatalf("NewRuleSet: %v", err)
	}
	var want []server.RuleMatch
	if _, err := rs.ScanReaderCtx(context.Background(), bytes.NewReader(payload),
		func(rule int, m core.Match, _ []byte) bool {
			want = append(want, server.RuleMatch{Rule: uint32(rule), Start: uint64(m.Start), End: uint64(m.End)})
			return true
		}); err != nil {
		t.Fatalf("ScanReaderCtx: %v", err)
	}

	sortMatches(got)
	sortMatches(want)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("match count: server %d, direct %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: server %+v, direct %+v", i, got[i], want[i])
		}
	}

	// COUNT over the same payload agrees with the match list.
	n, err := c.Count(payload)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if n != uint64(len(want)) {
		t.Fatalf("Count = %d, want %d", n, len(want))
	}
}

// TestServerHotReloadMidTraffic swaps the rule set while scans are in
// flight and asserts every response is internally consistent: it is
// exactly the result of one generation's rule set — never empty, never
// a blend of both.
func TestServerHotReloadMidTraffic(t *testing.T) {
	t.Cleanup(leakCheck(t))
	payload := []byte(strings.Repeat(" foo bar ", 20))
	oldWant := 20 // rule 0 = foo
	newWant := 40 // rule 0 = foo, rule 1 = bar

	_, addr := startServer(t, server.Config{Rules: []string{"foo"}, Workers: 4})

	var wg sync.WaitGroup
	var oldGen, newGen, bad atomic.Int64
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ms, err := c.Scan(payload)
				if err != nil {
					t.Errorf("Scan during reload: %v", err)
					return
				}
				switch len(ms) {
				case oldWant:
					oldGen.Add(1)
				case newWant:
					newGen.Add(1)
				default:
					bad.Add(1)
					t.Errorf("scan saw %d matches, want %d or %d", len(ms), oldWant, newWant)
				}
			}
		}()
	}

	// Let traffic build, then hot-swap mid-stream via the protocol.
	time.Sleep(20 * time.Millisecond)
	rc := dial(t, addr)
	gen, n, err := rc.Reload("foo\nbar\n")
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if gen != 1 || n != 2 {
		t.Fatalf("Reload = gen %d, %d rules; want 1, 2", gen, n)
	}
	// Scans issued after the reload response must see the new rules.
	ms, err := rc.Scan(payload)
	if err != nil {
		t.Fatalf("post-reload Scan: %v", err)
	}
	if len(ms) != newWant {
		t.Fatalf("post-reload scan saw %d matches, want %d", len(ms), newWant)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if bad.Load() > 0 {
		t.Fatalf("%d responses blended generations", bad.Load())
	}
	if oldGen.Load() == 0 || newGen.Load() == 0 {
		t.Logf("generation mix: %d old, %d new (timing-dependent)", oldGen.Load(), newGen.Load())
	}
	info, err := rc.RulesInfo()
	if err != nil {
		t.Fatalf("RulesInfo: %v", err)
	}
	if info.Generation != 1 || len(info.Patterns) != 2 || info.Patterns[1] != "bar" {
		t.Fatalf("RulesInfo = %+v", info)
	}
}

// TestServerShedsWhenQueueFull wedges the single worker and overflows
// the one-deep queue: the surplus requests must come back SHED
// immediately — not hang, not queue unboundedly — and the wedged
// requests must still complete once the worker resumes.
func TestServerShedsWhenQueueFull(t *testing.T) {
	t.Cleanup(leakCheck(t))
	release := make(chan struct{})
	var gate sync.Once
	blocked := make(chan struct{})
	srv, addr := startServer(t, server.Config{
		Rules:      []string{"foo"},
		Workers:    1,
		QueueDepth: 1,
		ScanHook: func() {
			gate.Do(func() { close(blocked) })
			<-release
		},
	})

	c := dial(t, addr)
	payload := []byte("a foo b")

	// First request occupies the worker; second fills the queue.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Scan(payload)
			results <- err
		}()
		if i == 0 {
			<-blocked // worker is provably wedged before the next send
		} else {
			waitQueued(t, srv)
		}
	}

	// Everything past worker+queue must shed, and promptly.
	shed := 0
	for i := 0; i < 8; i++ {
		start := time.Now()
		_, err := c.Scan(payload)
		if errors.Is(err, client.ErrShed) {
			shed++
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("SHED took %s; admission control must not block", d)
			}
		} else if err != nil {
			t.Fatalf("overflow scan: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("queue overflow produced no SHED responses")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("wedged request %d failed after release: %v", i, err)
		}
	}

	snap := srv.MetricsSnapshot()
	if got := snap.Get("server.shed"); got < int64(shed) {
		t.Fatalf("server.shed = %d, want >= %d", got, shed)
	}
}

// waitQueued blocks until the admission queue reports depth > 0.
func waitQueued(t *testing.T, srv *server.Server) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if srv.MetricsSnapshot().Get("server.queue.depth") > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("request never reached the queue")
}

// TestServerShutdownDrainsInFlight starts slow scans, begins Shutdown
// while they are mid-execution, and asserts their responses still
// arrive — an admitted request is never dropped — with no goroutine
// left behind.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	defer leakCheck(t)()
	started := make(chan struct{}, 8)
	srv, err := server.New(server.Config{
		Rules:   []string{"foo"},
		Workers: 2,
		ScanHook: func() {
			started <- struct{}{}
			time.Sleep(50 * time.Millisecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ms, err := c.Scan([]byte("a foo b"))
			if err == nil && len(ms) != 1 {
				err = errors.New("drained scan lost its matches")
			}
			results <- err
		}()
		<-started // the request is in a worker before shutdown begins
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// The drained server accepts nothing new.
	if _, err := client.Dial(ln.Addr().String()); err == nil {
		t.Fatal("post-shutdown dial succeeded")
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after shutdown succeeded")
	}
}

// TestServerCloseUnderLoad is the hard-stop path: Close while clients
// are mid-request must terminate promptly and leak nothing; clients
// see connection errors, not hangs.
func TestServerCloseUnderLoad(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		srv := build(frontOpts{Workers: 2, ScanHook: func() { time.Sleep(5 * time.Millisecond) }})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()

		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := client.Dial(ln.Addr().String())
				if err != nil {
					return
				}
				defer c.Close()
				for j := 0; j < 100; j++ {
					if _, err := c.Scan([]byte("a foo b")); err != nil {
						return // close tore the connection; that's the contract
					}
				}
			}()
		}
		time.Sleep(10 * time.Millisecond)
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		wg.Wait()
	})
}

// TestServerPipelining issues concurrent mixed requests over ONE
// client connection; the id-demultiplexed responses must all come back
// to their callers intact.
func TestServerPipelining(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, addr := startServer(t, server.Config{Rules: []string{"ab+c"}, Workers: 4})
	c := dial(t, addr)
	payload := []byte("xxabcxxabbcxx")

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				ms, err := c.Scan(payload)
				if err == nil && len(ms) != 2 {
					err = errors.New("scan match count")
				}
				errs <- err
			case 1:
				n, err := c.Count(payload)
				if err == nil && n != 2 {
					err = errors.New("count value")
				}
				errs <- err
			case 2:
				errs <- c.Ping()
			default:
				ms, err := c.ScanPattern("ab+c", payload)
				if err == nil && len(ms) != 2 {
					err = errors.New("scan-pattern match count")
				}
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerPatternCache pins the ad-hoc LRU: repeated SCAN-PATTERN
// requests for one expression compile once and hit the cache after.
func TestServerPatternCache(t *testing.T) {
	srv, addr := startServer(t, server.Config{Rules: []string{"zz"}})
	c := dial(t, addr)
	for i := 0; i < 5; i++ {
		ms, err := c.ScanPattern("nee+dle", []byte("a needle b neeedle c"))
		if err != nil {
			t.Fatalf("ScanPattern: %v", err)
		}
		if len(ms) != 2 {
			t.Fatalf("ScanPattern found %d matches, want 2", len(ms))
		}
	}
	snap := srv.MetricsSnapshot()
	if hits := snap.Get("server.cache.hits"); hits < 4 {
		t.Fatalf("server.cache.hits = %d, want >= 4", hits)
	}
	if misses := snap.Get("server.cache.misses"); misses != 1 {
		t.Fatalf("server.cache.misses = %d, want 1", misses)
	}

	// A broken pattern is a compile error, not a scan error.
	_, err := c.ScanPattern("(", []byte("x"))
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != server.ErrCodeCompile {
		t.Fatalf("bad pattern: got %v, want compile ServerError", err)
	}
}

// TestServerRejectsOversizedFrame sends a frame past the configured
// limit on a raw socket: the server must answer ERROR and close the
// connection without buffering the body.
func TestServerRejectsOversizedFrame(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		addr := serve(t, build(frontOpts{MaxFrame: 64}))
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := server.WriteFrame(nc, server.Frame{Op: server.OpScan, ID: 1, Body: make([]byte, 128)}); err != nil {
			t.Fatal(err)
		}
		f, err := server.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if f.Op != server.OpError {
			t.Fatalf("got %s, want ERROR", server.OpName(f.Op))
		}
		code, _, err := server.DecodeError(f.Body)
		if err != nil || code != server.ErrCodeBadFrame {
			t.Fatalf("error code %d (%v), want bad-frame", code, err)
		}
		// The stream is unrecoverable; the server closes it.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := server.ReadFrame(nc, 0); err == nil {
			t.Fatal("connection stayed open after framing fault")
		}
	})
}

// TestServerBadFrameErrorDelivered pins the teardown after a framing
// fault: the ERROR frame must reach the client even when the bad
// frame's own bytes are still unread server-side — a close with a
// non-empty receive queue becomes a TCP RST that would destroy the
// queued response, so the server must drain before closing.
func TestServerBadFrameErrorDelivered(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		addr := serve(t, build(frontOpts{}))
		for i := 0; i < 10; i++ {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			// length=2 is malformed from the length field alone; the two
			// trailing bytes land unread in the server's receive queue.
			if _, err := nc.Write([]byte{0, 0, 0, 2, 0x01, 0x02}); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			f, err := server.ReadFrame(nc, 0)
			if err != nil {
				t.Fatalf("attempt %d: ERROR frame lost to connection teardown: %v", i, err)
			}
			if f.Op != server.OpError {
				t.Fatalf("got %s, want ERROR", server.OpName(f.Op))
			}
			if code, _, err := server.DecodeError(f.Body); err != nil || code != server.ErrCodeBadFrame {
				t.Fatalf("error code %d (%v), want bad-frame", code, err)
			}
			nc.Close()
		}
	})
}

// TestServerSessionBodyMalformed: a SESSION-DATA or SESSION-CLOSE body
// too short to hold its session id, and a SESSION-OPEN or
// SESSION-RESTORE body the codec refuses, answer bad-frame on their own
// id — not unknown-session, and never a desync: the connection then
// serves a PING.
func TestServerSessionBodyMalformed(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		addr := serve(t, build(frontOpts{}))
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i, f := range []server.Frame{
			{Op: server.OpSessionData, Body: []byte{0, 0, 7}},
			{Op: server.OpSessionClose, Body: []byte{0, 0}},
			{Op: server.OpSessionOpen, Body: []byte{0, 0, 0, 0, 0x80}},
			{Op: server.OpSessionRestore, Body: []byte{server.SessionOpenFlagCheckpoint}},
		} {
			f.ID = uint32(i + 1)
			if err := server.WriteFrame(nc, f); err != nil {
				t.Fatal(err)
			}
			got, err := server.ReadFrame(nc, 0)
			if err != nil {
				t.Fatalf("%s: %v", server.OpName(f.Op), err)
			}
			code, _, derr := server.DecodeError(got.Body)
			if got.Op != server.OpError || got.ID != f.ID || derr != nil || code != server.ErrCodeBadFrame {
				t.Fatalf("%s: got %s id %d code %d (%v), want ERROR bad-frame on id %d",
					server.OpName(f.Op), server.OpName(got.Op), got.ID, code, derr, f.ID)
			}
		}
		if err := server.WriteFrame(nc, server.Frame{Op: server.OpPing, ID: 9}); err != nil {
			t.Fatal(err)
		}
		if got, err := server.ReadFrame(nc, 0); err != nil || got.Op != server.OpPong || got.ID != 9 {
			t.Fatalf("PING after malformed session bodies: %+v %v", got, err)
		}
	})
}

// TestServerStats exercises the STATS endpoint end to end: the decoded
// snapshot must carry the request counters the traffic just generated.
func TestServerStats(t *testing.T) {
	_, addr := startServer(t, server.Config{Rules: []string{"foo"}})
	c := dial(t, addr)
	for i := 0; i < 3; i++ {
		if _, err := c.Scan([]byte("a foo b")); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := snap.Get("server.scan.requests"); got != 3 {
		t.Fatalf("server.scan.requests = %d, want 3", got)
	}
	if got := snap.Get("server.matches"); got != 3 {
		t.Fatalf("server.matches = %d, want 3", got)
	}
	// A request's latency is observed once its response is written, so
	// the last scan's observation can land just after the client read
	// that response: re-read STATS (a round trip each) until it shows.
	m, ok := snap.Find("server.scan.latency_us")
	for try := 0; try < 1000 && !(ok && m.Count == 3); try++ {
		if snap, err = c.Stats(); err != nil {
			t.Fatalf("Stats: %v", err)
		}
		m, ok = snap.Find("server.scan.latency_us")
	}
	if !ok || m.Count != 3 {
		t.Fatalf("scan latency histogram = %+v (ok=%v), want 3 observations", m, ok)
	}
	if q := m.Quantile(0.99); q == 0 {
		t.Fatal("latency p99 quantile is zero")
	}
}
