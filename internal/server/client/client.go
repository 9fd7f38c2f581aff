// Package client is the Go client of the alveare scan service,
// speaking the framed protocol of internal/server and built for the
// networks a deployed scanner actually meets: connections drop
// mid-frame, servers restart, backends blackhole. A Client owns one
// logical connection that it re-establishes transparently
// (exponential backoff, full jitter) and multiplexes across
// concurrent callers — requests pipeline and responses are matched
// back by request id, so a slow scan never blocks an unrelated
// caller's PING. Every request takes a context.Context; idempotent
// requests (everything but RELOAD) can be retried under a configured
// budget. Pool layers failover across several backends with
// round-robin selection, health probes and a per-backend circuit
// breaker.
//
// Request ids are allocated from one counter that survives
// reconnects, and the response demultiplexer is per-connection, so a
// straggling response from a torn connection can never be delivered
// to a request issued after the reconnect.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"alveare/internal/metrics"
	"alveare/internal/server"
)

// ErrShed reports that the server's admission queue was full and the
// request was rejected without being scanned; the caller should back
// off and retry (WithRetries does both automatically).
var ErrShed = errors.New("client: request shed by server admission control")

// ErrClosed reports a request issued against a Client or Pool after
// Close.
var ErrClosed = errors.New("client: closed")

// ShedError is a SHED that carried a gateway reason byte (quota,
// fair-queue, capacity, ...). It matches errors.Is(err, ErrShed), so
// callers that only care about back-pressure need not distinguish.
type ShedError struct{ Reason byte }

func (e *ShedError) Error() string {
	return fmt.Sprintf("client: request shed (%s)", server.ShedReasonName(e.Reason))
}

// Is makes every reasoned shed an ErrShed.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// ServerError is a structured failure the server reported for one
// request (compile error, scan fault, draining). It is authoritative
// — the backend was reachable and answered — so it is never retried,
// except for the draining code, which Pool treats as an invitation to
// fail over to another backend.
type ServerError struct {
	Code byte
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error %d: %s", e.Code, e.Msg)
}

// PartialError reports a gateway scatter-gather answer that covered
// only part of the fleet (MATCHES-PARTIAL with the partial flag set).
// The matches that WERE gathered are carried here — the caller
// decides whether a partial view is usable — and the shard accounting
// says exactly how much is missing; nothing is silently dropped. It
// is authoritative (the gateway answered after exhausting its own
// per-shard budgets) and therefore never retried.
type PartialError struct {
	Matches      []server.RuleMatch
	ShardsOK     int
	ShardsFailed int
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("client: partial result: %d/%d shards answered (%d matches gathered)",
		e.ShardsOK, e.ShardsOK+e.ShardsFailed, len(e.Matches))
}

// RetryError reports an idempotent request that failed every attempt
// its retry budget allowed. Err is the final attempt's failure;
// errors.Is/As look through it, so errors.Is(err, ErrShed) still
// identifies a request that was shed on its last attempt.
type RetryError struct {
	Attempts int
	Err      error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("client: retry budget exhausted after %d attempts: %v", e.Attempts, e.Err)
}

func (e *RetryError) Unwrap() error { return e.Err }

// retryable reports whether err is a transport-level failure worth
// another attempt, possibly on another backend: connection loss, dial
// failure, protocol desync, attempt timeout, SHED. Authoritative
// server answers and a closed client are not.
func retryable(err error) bool {
	if err == nil || errors.Is(err, ErrClosed) {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		// A draining backend answered, but will not take the work;
		// the request is still safe to send elsewhere.
		return se.Code == server.ErrCodeDraining
	}
	var pe *PartialError
	if errors.As(err, &pe) {
		// The gateway already exhausted its per-shard budgets to
		// produce this; re-asking immediately reproduces it.
		return false
	}
	return true
}

// Option configures a Client (and, through PoolClientOptions, the
// Clients inside a Pool).
type Option func(*Client)

// WithMaxFrame bounds response frames (default server.DefaultMaxFrame).
func WithMaxFrame(n int) Option {
	return func(c *Client) { c.maxFrame = n }
}

// WithDialTimeout bounds one TCP connect attempt (default 10s).
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) { c.dialTimeout = d }
}

// WithRetries sets the retry budget for idempotent requests (PING,
// SCAN, COUNT, SCAN-PATTERN, RULES-INFO, STATS): up to n additional
// attempts after the first, each preceded by an exponential-backoff
// sleep with full jitter. RELOAD is never retried — see
// docs/PROTOCOL.md. Default 0: fail fast on the first error.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the retry backoff window: attempt k sleeps a
// uniformly random duration in (0, min(base<<(k-1), max)). Defaults:
// base 20ms, max 2s.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.bo.base, c.bo.max = base, max }
}

// WithAttemptTimeout bounds each individual attempt (dial + write +
// response), independently of the request context's deadline. A
// stalled backend then costs one attempt, not the whole request —
// the next attempt may find a healthier connection or backend.
// Default 0: only the request context bounds an attempt.
func WithAttemptTimeout(d time.Duration) Option {
	return func(c *Client) { c.attemptTO = d }
}

// WithSeed seeds the backoff jitter, making retry schedules
// reproducible (chaos tests print the seed they used).
func WithSeed(seed int64) Option {
	return func(c *Client) { c.bo.rng = rand.New(rand.NewSource(seed)) }
}

// WithMetrics publishes the client's resilience counters (attempts,
// retries, reconnects, per-attempt latency) into reg instead of a
// private registry.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Client) { c.reg = reg }
}

// WithSleep replaces the backoff sleep (a test seam for fake clocks;
// the default honours ctx cancellation).
func WithSleep(sleep func(context.Context, time.Duration) error) Option {
	return func(c *Client) { c.sleep = sleep }
}

// WithTenant stamps every queue-class request (SCAN, COUNT,
// SCAN-PATTERN, RELOAD) with a TENANT envelope naming the tenant and
// rule namespace — how a client addresses a multi-tenant gateway.
// Control requests (PING, RULES-INFO, STATS) stay bare; a plain
// alvearesrv answers enveloped requests with ERROR (unknown opcode),
// so only point a tenant-configured client at a gateway.
func WithTenant(tenant, namespace string) Option {
	return func(c *Client) {
		c.tenant = server.TenantHeader{Tenant: tenant, Namespace: namespace}
	}
}

// clientMetrics resolves the resilience metric handles once.
type clientMetrics struct {
	attempts   *metrics.Counter
	retries    *metrics.Counter
	reconnects *metrics.Counter
	attemptLat *metrics.Histogram
}

func resolveClientMetrics(reg *metrics.Registry) clientMetrics {
	return clientMetrics{
		attempts:   reg.Counter("client.attempts"),
		retries:    reg.Counter("client.retries"),
		reconnects: reg.Counter("client.reconnects"),
		attemptLat: reg.Histogram("client.attempt_latency_us"),
	}
}

// connState is one live TCP connection: its writer lock, its waiter
// table, and its reader goroutine's lifecycle. Reconnecting replaces
// the whole connState, so waiters can never leak across connections.
type connState struct {
	nc  net.Conn
	wmu sync.Mutex // serialises frame writes

	mu      sync.Mutex
	waiters map[uint32]chan server.Frame
	readErr error // terminal; set once the reader exits

	readerDone chan struct{}
}

func (cs *connState) dead() bool {
	select {
	case <-cs.readerDone:
		return true
	default:
		return false
	}
}

// Client is one logical connection to a scan service, re-established
// on demand after connection loss. Safe for concurrent use.
type Client struct {
	ops
	addr        string
	maxFrame    int
	dialTimeout time.Duration
	attemptTO   time.Duration
	retries     int
	bo          Backoff
	sleep       func(context.Context, time.Duration) error
	tenant      server.TenantHeader // zero: no envelope
	// tenantHeads holds, per queue-class opcode, the TENANT envelope the
	// inner body follows on the wire (nil without a tenant); tenantErr
	// is why the header does not encode, when it does not.
	tenantHeads map[byte][]byte
	tenantErr   error

	reg *metrics.Registry
	met clientMetrics

	dialMu sync.Mutex // serialises reconnect attempts

	mu        sync.Mutex
	cs        *connState // nil until dialed; replaced on reconnect
	nextID    uint32     // monotonic across reconnects: ids are never reused
	connected bool       // a connection has been established at least once
	closed    bool
}

// New builds a Client without connecting; the first request dials.
// Use Dial to connect eagerly and surface unreachable backends at
// construction.
func New(addr string, opts ...Option) *Client {
	c := &Client{
		addr:        addr,
		maxFrame:    server.DefaultMaxFrame,
		dialTimeout: 10 * time.Second,
		bo:          Backoff{base: 20 * time.Millisecond, max: 2 * time.Second},
		sleep:       sleepCtx,
	}
	c.ops.do = c.do
	for _, o := range opts {
		o(c)
	}
	if c.bo.rng == nil {
		c.bo.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if c.reg == nil {
		c.reg = metrics.New()
	}
	c.met = resolveClientMetrics(c.reg)
	if c.tenant.Tenant != "" {
		c.tenantHeads = map[byte][]byte{}
		for op := 0; op < 256 && c.tenantErr == nil; op++ {
			if server.QueueClass(byte(op)) {
				c.tenantHeads[byte(op)], c.tenantErr = server.EncodeTenant(c.tenant, byte(op), nil)
			}
		}
	}
	return c
}

// Dial connects to a scan service, failing if the backend is
// unreachable right now.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := New(addr, opts...)
	if _, err := c.conn(context.Background(), time.Time{}); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the backend address the client targets.
func (c *Client) Addr() string { return c.addr }

// Pending returns the number of requests waiting for a response on
// the current connection — zero once every request has completed or
// failed (the regression tests pin that a deadline leaves no waiter
// entry behind).
func (c *Client) Pending() int {
	c.mu.Lock()
	cs := c.cs
	c.mu.Unlock()
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.waiters)
}

// conn returns the live connection, dialing (or re-dialing) if
// necessary, by deadline when it is not zero. Dials are serialised so a
// burst of concurrent requests after a connection loss produces one
// reconnect, not a stampede.
func (c *Client) conn(ctx context.Context, deadline time.Time) (*connState, error) {
	if cs, err := c.live(); cs != nil || err != nil {
		return cs, err
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Another caller may have reconnected while we waited.
	if cs, err := c.live(); cs != nil || err != nil {
		return cs, err
	}

	d := net.Dialer{Timeout: c.dialTimeout, Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	cs := &connState{
		nc:         nc,
		waiters:    map[uint32]chan server.Frame{},
		readerDone: make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	if c.connected {
		c.met.reconnects.Inc()
	}
	c.connected = true
	c.cs = cs
	c.mu.Unlock()
	go c.readLoop(cs)
	return cs, nil
}

// live returns the current connection while it is usable (nil, nil
// when there is none), or ErrClosed.
func (c *Client) live() (*connState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if cs := c.cs; cs != nil && !cs.dead() {
		return cs, nil
	}
	return nil, nil
}

// invalidate retires a connection the caller observed failing; the
// next request reconnects. Only the current connState is cleared, so
// a stale failure can never tear down a fresh connection.
func (c *Client) invalidate(cs *connState) {
	c.mu.Lock()
	if c.cs == cs {
		c.cs = nil
	}
	c.mu.Unlock()
	cs.nc.Close()
}

// readBufferSize sizes the bufio.Reader in front of server.ReadFrame,
// the same 32 KiB the serving shell uses: about one read syscall per
// packet-sized response, not three.
const readBufferSize = 32 << 10

// readLoop is one connection's demultiplexer: every response frame is
// routed to the request carrying its id. A read failure is terminal
// for the connection — every in-flight request on it fails with the
// cause — but not for the Client, which reconnects on the next
// request.
func (c *Client) readLoop(cs *connState) {
	defer close(cs.readerDone)
	br := bufio.NewReaderSize(cs.nc, readBufferSize)
	for {
		f, err := server.ReadFrame(br, c.maxFrame)
		if err != nil {
			cs.mu.Lock()
			cs.readErr = fmt.Errorf("client: connection lost: %w", err)
			for id, ch := range cs.waiters {
				close(ch)
				delete(cs.waiters, id)
			}
			cs.mu.Unlock()
			return
		}
		cs.mu.Lock()
		ch, ok := cs.waiters[f.ID]
		if ok {
			delete(cs.waiters, f.ID)
		}
		cs.mu.Unlock()
		if ok {
			ch <- f // buffered: never blocks, even if the waiter left
		}
	}
}

// Close tears the connection down; in-flight requests fail. It is
// idempotent and safe to race with concurrent requests — later calls
// return nil, later requests fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cs := c.cs
	c.cs = nil
	c.mu.Unlock()
	if cs != nil {
		cs.nc.Close()
		<-cs.readerDone
	}
	return nil
}

// sleepCtx is the default backoff sleep: d, or until ctx cancels.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attemptTimers recycles the timers that bound attempts under
// WithAttemptTimeout. An attempt waits on one of these rather than on
// a derived context, which would allocate the context, its timer and
// its Done channel on every request.
var attemptTimers sync.Pool

// startTimer arms a recycled timer (or a new one) to fire after d.
func startTimer(d time.Duration) *time.Timer {
	if t, _ := attemptTimers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// stopTimer recycles t (if any); *received says whether its tick was
// taken. A timer that fired unreceived is drained first: go.mod's go
// 1.22 selects the pre-1.23 timer channel, whose stale tick would end
// the next attempt on this timer the moment it began. (With 1.23
// channels Stop itself discards the tick and returns true.)
func stopTimer(t *time.Timer, received *bool) {
	if t == nil {
		return
	}
	if !t.Stop() && !*received {
		<-t.C
	}
	attemptTimers.Put(t)
}

// waiters recycles response channels. A channel goes back only once it
// has delivered its frame: one whose attempt gave up may still receive
// a late frame from readLoop, or be closed by it, so it is dropped.
var waiters = sync.Pool{New: func() any { return make(chan server.Frame, 1) }}

// attempt issues one request on the current (or a fresh) connection
// and waits for its response, translating protocol-level failures
// (SHED, ERROR, desync) into Go errors. WithAttemptTimeout bounds the
// whole attempt, dial included, and its expiry fails the attempt with
// context.DeadlineExceeded. On expiry or ctx cancellation the waiter
// entry is removed before returning, so an abandoned request leaks
// nothing.
func (c *Client) attempt(ctx context.Context, op, wantOp byte, prefix, body []byte) (server.Frame, error) {
	start := time.Now()
	var (
		deadline time.Time
		timer    *time.Timer
		timeout  <-chan time.Time
		timedOut bool
	)
	if c.attemptTO > 0 {
		deadline, timer = start.Add(c.attemptTO), startTimer(c.attemptTO)
		timeout = timer.C
	}
	defer stopTimer(timer, &timedOut)
	wireOp := op
	if c.tenantHeads != nil && server.QueueClass(op) {
		if c.tenantErr != nil {
			return server.Frame{}, fmt.Errorf("client: tenant envelope: %w", c.tenantErr)
		}
		wireOp = server.OpTenant
	}
	cs, err := c.conn(ctx, deadline)
	if err != nil {
		return server.Frame{}, err
	}
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	ch := waiters.Get().(chan server.Frame)
	cs.mu.Lock()
	if cs.readErr != nil {
		err := cs.readErr
		cs.mu.Unlock()
		waiters.Put(ch)
		return server.Frame{}, err
	}
	cs.waiters[id] = ch
	cs.mu.Unlock()

	cs.wmu.Lock()
	werr := server.WriteFramePrefixed(cs.nc, server.Frame{Op: wireOp, ID: id, Body: body}, prefix)
	cs.wmu.Unlock()
	c.met.attempts.Inc()
	if werr != nil {
		c.forget(cs, id)
		c.invalidate(cs)
		return server.Frame{}, fmt.Errorf("client: write: %w", werr)
	}

	select {
	case f, ok := <-ch:
		c.met.attemptLat.Observe(time.Since(start).Microseconds())
		if !ok {
			cs.mu.Lock()
			err := cs.readErr
			cs.mu.Unlock()
			if err == nil {
				err = errors.New("client: connection lost")
			}
			return server.Frame{}, err
		}
		waiters.Put(ch)
		switch f.Op {
		case server.OpShed:
			// A malformed reason still refused the request; it is diagnostic.
			if reason, _ := server.DecodeShed(f.Body); reason != 0 {
				return server.Frame{}, &ShedError{Reason: reason}
			}
			return server.Frame{}, ErrShed
		case server.OpError:
			code, msg, derr := server.DecodeError(f.Body)
			if derr != nil {
				c.invalidate(cs)
				return server.Frame{}, fmt.Errorf("client: protocol desync: %w", derr)
			}
			return server.Frame{}, &ServerError{Code: code, Msg: msg}
		}
		if f.Op == server.OpMatchesPartial && wantOp == server.OpMatches {
			// A gateway's scatter-gather answer. Complete coverage
			// translates to a plain MATCHES; partial coverage is an
			// explicit, non-retryable error carrying what was gathered.
			partial, okSh, failSh, ms, derr := server.DecodeMatchesPartial(f.Body)
			if derr != nil {
				c.invalidate(cs)
				return server.Frame{}, fmt.Errorf("client: protocol desync: %w", derr)
			}
			if partial {
				return server.Frame{}, &PartialError{Matches: ms, ShardsOK: int(okSh), ShardsFailed: int(failSh)}
			}
			return server.Frame{Op: server.OpMatches, ID: f.ID, Body: server.EncodeMatches(ms)}, nil
		}
		if f.Op != wantOp {
			// The stream answered with an opcode this request cannot
			// have produced: framing has desynchronised (e.g. a
			// corrupted length field realigned on garbage). The
			// connection cannot be trusted; drop it and let the retry
			// layer re-issue on a fresh one.
			c.invalidate(cs)
			return server.Frame{}, fmt.Errorf("client: protocol desync: unexpected %s response (want %s)",
				server.OpName(f.Op), server.OpName(wantOp))
		}
		return f, nil
	case <-ctx.Done():
		c.forget(cs, id)
		c.met.attemptLat.Observe(time.Since(start).Microseconds())
		return server.Frame{}, ctx.Err()
	case <-timeout:
		timedOut = true
		c.forget(cs, id)
		c.met.attemptLat.Observe(time.Since(start).Microseconds())
		return server.Frame{}, context.DeadlineExceeded
	}
}

// forget drops an abandoned request's waiter entry.
func (c *Client) forget(cs *connState, id uint32) {
	cs.mu.Lock()
	delete(cs.waiters, id)
	cs.mu.Unlock()
}

// do runs one request under the retry budget. Only idempotent
// requests retry; each retry sleeps the jittered backoff first and
// reconnects if the connection was lost.
func (c *Client) do(ctx context.Context, op, wantOp byte, body []byte, idempotent bool) (server.Frame, error) {
	return c.doPrefixed(ctx, op, wantOp, c.tenantHeads[op], body, idempotent)
}

// doPrefixed is do for a body that follows prefix, the whole of what
// precedes it on the wire (op's TENANT envelope included, when c has a
// tenant): both go out as one frame in one write, neither copied into
// a body of its own.
func (c *Client) doPrefixed(ctx context.Context, op, wantOp byte, prefix, body []byte, idempotent bool) (server.Frame, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := 0
	for {
		f, err := c.attempt(ctx, op, wantOp, prefix, body)
		if err == nil {
			return f, nil
		}
		attempts++
		if !idempotent || c.retries <= 0 || !retryable(err) {
			return server.Frame{}, err
		}
		if ctx.Err() != nil {
			// The request's own deadline expired; the attempt error is
			// the more useful cause.
			return server.Frame{}, err
		}
		if attempts > c.retries {
			return server.Frame{}, &RetryError{Attempts: attempts, Err: err}
		}
		c.met.retries.Inc()
		if serr := c.sleep(ctx, c.bo.Delay(attempts)); serr != nil {
			return server.Frame{}, &RetryError{Attempts: attempts, Err: err}
		}
	}
}

// ReloadCtx hot-swaps the server's rule set with the given rules
// document (one RE per line, '#' comments); it returns the new
// generation and rule count. A compile failure leaves the serving
// rules untouched. RELOAD is NOT idempotent — a retried reload that
// had already been applied would bump the generation twice — so it is
// never retried regardless of the retry budget; on a connection loss
// mid-reload the caller must inspect RULES-INFO before re-issuing.
func (c *Client) ReloadCtx(ctx context.Context, rulesText string) (generation, rules uint32, err error) {
	f, err := c.do(ctx, server.OpReload, server.OpReloadOK, []byte(rulesText), false)
	if err != nil {
		return 0, 0, err
	}
	return server.DecodeReloadOK(f.Body)
}

// Reload hot-swaps the server's rule set.
func (c *Client) Reload(rulesText string) (generation, rules uint32, err error) {
	return c.ReloadCtx(context.Background(), rulesText)
}
