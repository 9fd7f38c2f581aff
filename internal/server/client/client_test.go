package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alveare/internal/metrics"
	"alveare/internal/server"
)

// fakeSrv is a scripted scan-service stand-in: every accepted
// connection reads frames and feeds them to the handler, which
// answers on the same conn (or returns false to slam it shut).
type fakeSrv struct {
	ln      net.Listener
	accepts atomic.Int64
	handler func(c net.Conn, f server.Frame) bool
}

func newFakeSrv(t *testing.T, handler func(net.Conn, server.Frame) bool) *fakeSrv {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeSrv{ln: ln, handler: handler}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fs.accepts.Add(1)
			go func() {
				defer c.Close()
				for {
					f, err := server.ReadFrame(c, 0)
					if err != nil {
						return
					}
					if !fs.handler(c, f) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func (fs *fakeSrv) addr() string { return fs.ln.Addr().String() }

// pongHandler answers every request with PONG.
func pongHandler(c net.Conn, f server.Frame) bool {
	return server.WriteFrame(c, server.Frame{Op: server.OpPong, ID: f.ID}) == nil
}

// sleepRecorder is a WithSleep hook that records backoff durations
// without actually sleeping.
type sleepRecorder struct {
	mu sync.Mutex
	ds []time.Duration
}

func (r *sleepRecorder) sleep(ctx context.Context, d time.Duration) error {
	r.mu.Lock()
	r.ds = append(r.ds, d)
	r.mu.Unlock()
	return ctx.Err()
}

func (r *sleepRecorder) durations() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.ds...)
}

// deadAddr reserves a loopback port and closes it, yielding an
// address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestStalledServerFailsAtDeadline is the regression test for the
// blocked-forever bug: a server that accepts a request but never
// answers must fail the request at its context deadline and leave no
// waiter entry behind.
func TestStalledServerFailsAtDeadline(t *testing.T) {
	fs := newFakeSrv(t, func(net.Conn, server.Frame) bool { return true }) // read, never answer
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.PingCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled request returned %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %s to fire", d)
	}
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d waiter entries left behind after deadline", n)
	}
}

// TestAttemptTimeoutRetries pins that WithAttemptTimeout bounds one
// attempt, not the request: the stalled first attempt times out, the
// retry succeeds.
func TestAttemptTimeoutRetries(t *testing.T) {
	var n atomic.Int64
	fs := newFakeSrv(t, func(c net.Conn, f server.Frame) bool {
		if n.Add(1) == 1 {
			return true // stall the first request only
		}
		return pongHandler(c, f)
	})
	rec := &sleepRecorder{}
	c, err := Dial(fs.addr(),
		WithAttemptTimeout(80*time.Millisecond), WithRetries(2), WithSeed(1), WithSleep(rec.sleep))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after stalled attempt: %v", err)
	}
	if len(rec.durations()) == 0 {
		t.Fatal("no backoff sleep before the retry")
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("%d waiters left after attempt timeout", got)
	}
}

// TestCloseIdempotentAndRacesInflight pins the double-close contract:
// Close twice returns nil both times, and a Close racing an in-flight
// request fails the request instead of hanging or panicking.
func TestCloseIdempotentAndRacesInflight(t *testing.T) {
	fs := newFakeSrv(t, func(net.Conn, server.Frame) bool { return true }) // stall
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- c.PingCtx(context.Background()) }()
	for i := 0; i < 500 && c.Pending() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if c.Pending() == 0 {
		t.Fatal("request never became pending")
	}

	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v (must be idempotent)", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight request survived Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request hung across Close")
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("request after Close returned %v, want ErrClosed", err)
	}
}

// TestReconnectAfterConnectionLoss: a server that drops the
// connection after every response forces a redial per request; the
// retry budget makes that invisible to the caller.
func TestReconnectAfterConnectionLoss(t *testing.T) {
	fs := newFakeSrv(t, func(c net.Conn, f server.Frame) bool {
		server.WriteFrame(c, server.Frame{Op: server.OpPong, ID: f.ID})
		return false // hang up after each answer
	})
	reg := metrics.New()
	rec := &sleepRecorder{}
	c, err := Dial(fs.addr(), WithRetries(3), WithSeed(7), WithSleep(rec.sleep), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if got := fs.accepts.Load(); got < 2 {
		t.Fatalf("server saw %d connections, want >= 2 (reconnects)", got)
	}
	if got := reg.Counter("client.reconnects").Load(); got < 1 {
		t.Fatalf("client.reconnects = %d, want >= 1", got)
	}
}

// TestRetryBudgetExhausted: against a dead backend the client makes
// exactly 1+budget attempts with a backoff sleep between each, then
// reports RetryError.
func TestRetryBudgetExhausted(t *testing.T) {
	reg := metrics.New()
	rec := &sleepRecorder{}
	c := New(deadAddr(t), WithRetries(3), WithSeed(11), WithSleep(rec.sleep), WithMetrics(reg))
	defer c.Close()

	err := c.Ping()
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RetryError", err)
	}
	if re.Attempts != 4 {
		t.Fatalf("RetryError.Attempts = %d, want 4 (1 + budget 3)", re.Attempts)
	}
	if got := rec.durations(); len(got) != 3 {
		t.Fatalf("%d backoff sleeps, want 3", len(got))
	}
	if got := reg.Counter("client.retries").Load(); got != 3 {
		t.Fatalf("client.retries = %d, want 3", got)
	}
}

// TestShedRetriedOnlyAfterBackoff pins the satellite contract: a shed
// request is retried, but every retry is preceded by a non-zero
// backoff sleep — never a hot loop — and the final error still
// answers errors.Is(err, ErrShed).
func TestShedRetriedOnlyAfterBackoff(t *testing.T) {
	var served atomic.Int64
	fs := newFakeSrv(t, func(c net.Conn, f server.Frame) bool {
		served.Add(1)
		return server.WriteFrame(c, server.Frame{Op: server.OpShed, ID: f.ID}) == nil
	})
	rec := &sleepRecorder{}
	c, err := Dial(fs.addr(), WithRetries(2), WithSeed(3), WithSleep(rec.sleep))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Scan([]byte("payload"))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("got %v, want ErrShed through the retry wrapper", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 3 {
		t.Fatalf("got %v, want RetryError with 3 attempts", err)
	}
	ds := rec.durations()
	if len(ds) != 2 {
		t.Fatalf("%d backoff sleeps for 2 retries, want 2", len(ds))
	}
	for i, d := range ds {
		if d <= 0 {
			t.Fatalf("retry %d slept %v: shed retries must back off, never hot-loop", i, d)
		}
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestReloadNeverRetried: RELOAD is not idempotent; even with a retry
// budget and a retryable (connection-lost) failure it must be sent
// exactly once and never slept for.
func TestReloadNeverRetried(t *testing.T) {
	var reloads atomic.Int64
	fs := newFakeSrv(t, func(c net.Conn, f server.Frame) bool {
		if f.Op == server.OpReload {
			reloads.Add(1)
			return false // die mid-request: retryable if anything is
		}
		return pongHandler(c, f)
	})
	rec := &sleepRecorder{}
	c, err := Dial(fs.addr(), WithRetries(5), WithSeed(5), WithSleep(rec.sleep))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Reload("foo\n"); err == nil {
		t.Fatal("reload against a dying server succeeded")
	}
	if got := reloads.Load(); got != 1 {
		t.Fatalf("server saw %d RELOAD frames, want exactly 1", got)
	}
	if got := rec.durations(); len(got) != 0 {
		t.Fatalf("reload slept %d times for retries, want 0", len(got))
	}
}

// TestDesyncResponseTearsConnection: a response whose opcode cannot
// answer the request means the stream is desynchronised; the client
// must drop the connection and dial fresh for the next request.
func TestDesyncResponseTearsConnection(t *testing.T) {
	var n atomic.Int64
	fs := newFakeSrv(t, func(c net.Conn, f server.Frame) bool {
		if n.Add(1) == 1 {
			// Nonsense: COUNT-RESP to a PING.
			return server.WriteFrame(c, server.Frame{Op: server.OpCountResp, ID: f.ID, Body: make([]byte, 8)}) == nil
		}
		return pongHandler(c, f)
	})
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err == nil {
		t.Fatal("desynced response did not error")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after desync teardown: %v", err)
	}
	if got := fs.accepts.Load(); got != 2 {
		t.Fatalf("server saw %d connections, want 2 (desync must redial)", got)
	}
}

// TestBackoffWindows pins the backoff shape: deterministic under one
// seed, exponentially widening, capped at max, never zero.
func TestBackoffWindows(t *testing.T) {
	mk := func() *Client {
		return New("127.0.0.1:1", WithSeed(42), WithBackoff(10*time.Millisecond, 80*time.Millisecond))
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	for attempt := 1; attempt <= 8; attempt++ {
		da, db := a.bo.Delay(attempt), b.bo.Delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
		if da <= 0 {
			t.Fatalf("attempt %d: zero backoff", attempt)
		}
		if da > 80*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v exceeds max", attempt, da)
		}
	}
}

// TestRetryableClassification pins which failures are worth another
// attempt.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrClosed, false},
		{&ServerError{Code: server.ErrCodeScan, Msg: "boom"}, false},
		{&ServerError{Code: server.ErrCodeCompile, Msg: "paren"}, false},
		{&ServerError{Code: server.ErrCodeDraining, Msg: "bye"}, true},
		{ErrShed, true},
		{context.DeadlineExceeded, true},
		{errors.New("client: connection lost: EOF"), true},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
