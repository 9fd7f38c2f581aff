// Pool: failover across several scan-service backends. Requests pick
// backends round-robin, skipping any whose circuit breaker is open;
// transport failures count against the backend's breaker and the
// request fails over to the next backend under the pool's retry
// budget (with the same jittered backoff as a single Client, so a
// flapping fleet is never hammered in a hot loop). An optional health
// prober pings tripped backends in the background so breakers recover
// without waiting for live traffic to probe them.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"alveare/internal/metrics"
	"alveare/internal/server"
)

// ErrNoBackend reports that every backend's circuit breaker was open
// when a request tried to pick one. It is retryable: a later attempt
// (after backoff) may find a breaker past its cooldown and willing to
// probe.
var ErrNoBackend = errors.New("client: no backend available (all circuit breakers open)")

// PoolOption configures NewPool.
type PoolOption func(*Pool)

// PoolRetries sets the pool's retry budget for idempotent requests:
// up to n additional attempts after the first, each on the next
// healthy backend, each preceded by a jittered backoff sleep.
// Default 2.
func PoolRetries(n int) PoolOption {
	return func(p *Pool) { p.retries = n }
}

// PoolBackoff sets the failover backoff window (see WithBackoff).
func PoolBackoff(base, max time.Duration) PoolOption {
	return func(p *Pool) { p.bo.base, p.bo.max = base, max }
}

// PoolSeed seeds the pool's backoff jitter and the per-backend client
// jitter, for reproducible chaos runs.
func PoolSeed(seed int64) PoolOption {
	return func(p *Pool) { p.cfg.Seed, p.seeded = seed, true }
}

// PoolMetrics publishes the pool's resilience metrics (retries,
// failovers, breaker transitions, per-backend breaker-state gauges —
// backends are indexed, not named, so snapshots stay byte-stable)
// into reg.
func PoolMetrics(reg *metrics.Registry) PoolOption {
	return func(p *Pool) { p.cfg.Registry = reg }
}

// PoolBreaker parameterises the per-backend circuit breakers:
// `failures` consecutive transport failures open a breaker, which
// half-opens for a single probe after `cooldown`. Defaults: 3
// failures, 1s cooldown.
func PoolBreaker(failures int, cooldown time.Duration) PoolOption {
	return func(p *Pool) { p.cfg.BreakerFailures, p.cfg.BreakerCooldown = failures, cooldown }
}

// PoolProbe starts a background health prober: each cycle sleeps a
// FULL-JITTERED draw from (0, interval] — not a fixed ticker — then
// pings every backend whose breaker is not closed (respecting the
// breaker's half-open single-probe discipline), so dead backends are
// rediscovered without taxing live traffic and a fleet of pools
// sharing one configured interval cannot synchronise into a probe
// storm against a recovering backend. 0 (the default) disables
// probing; breakers then recover only via request-path probes.
func PoolProbe(interval time.Duration) PoolOption {
	return func(p *Pool) { p.cfg.ProbeInterval = interval }
}

// PoolAttemptTimeout bounds each individual attempt, so one stalled
// backend costs one attempt rather than the whole request.
func PoolAttemptTimeout(d time.Duration) PoolOption {
	return func(p *Pool) { p.cfg.AttemptTimeout = d }
}

// PoolClientOptions appends extra options to every backend Client
// (frame limits, dial timeouts, ...).
func PoolClientOptions(opts ...Option) PoolOption {
	return func(p *Pool) { p.cfg.ClientOptions = append(p.cfg.ClientOptions, opts...) }
}

// PoolSleep replaces the backoff sleep (test seam).
func PoolSleep(sleep func(context.Context, time.Duration) error) PoolOption {
	return func(p *Pool) { p.sleep = sleep }
}

// backend is one pool member.
type backend struct {
	addr string
	c    *Client
	brk  *breaker
}

// settle feeds one attempt's outcome to the backend's breaker. An
// authoritative server answer — success, ServerError, SHED, or a
// gateway's explicit partial result — proves the backend alive; a
// caller-side cancellation proves nothing; everything else is a
// transport failure.
func (b *backend) settle(parent context.Context, err error) {
	switch {
	case err == nil, errors.Is(err, ErrShed), isServerError(err):
		b.brk.onSuccess()
	case parent.Err() != nil:
		b.brk.onCancel()
	default:
		b.brk.onFailure()
	}
}

func isServerError(err error) bool {
	var se *ServerError
	var pe *PartialError
	return errors.As(err, &se) || errors.As(err, &pe)
}

// poolMetrics resolves the pool-level handles once.
type poolMetrics struct {
	retries   *metrics.Counter
	failovers *metrics.Counter
}

// Pool is a multi-backend scan-service client. Safe for concurrent
// use. The fleet substrate — per-backend clients, breakers, gauges
// and the jittered health prober — lives in Backends; the Pool adds
// round-robin selection and the failover retry loop.
type Pool struct {
	ops
	bs      *Backends
	cfg     BackendsConfig // the fleet substrate the options describe
	seeded  bool           // PoolSeed set cfg.Seed
	retries int
	bo      Backoff
	sleep   func(context.Context, time.Duration) error
	met     poolMetrics

	mu     sync.Mutex
	next   int // round-robin cursor
	closed bool

	closeOnce sync.Once
}

// NewPool builds a failover pool over addrs. No backend is dialed
// until the first request touches it, so a pool can be built while
// some of its fleet is down.
func NewPool(addrs []string, opts ...PoolOption) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: pool needs at least one backend address")
	}
	p := &Pool{
		retries: 2,
		bo:      Backoff{base: 20 * time.Millisecond, max: 2 * time.Second},
		sleep:   sleepCtx,
	}
	p.ops.do = p.do
	for _, o := range opts {
		o(p)
	}
	if p.cfg.Registry == nil {
		p.cfg.Registry = metrics.New()
	}
	p.met = poolMetrics{
		retries:   p.cfg.Registry.Counter("client.retries"),
		failovers: p.cfg.Registry.Counter("client.failovers"),
	}
	if !p.seeded {
		p.cfg.Seed = time.Now().UnixNano()
	}
	p.bo.rng = rand.New(rand.NewSource(p.cfg.Seed))
	bs, err := NewBackends(addrs, p.cfg)
	if err != nil {
		return nil, err
	}
	p.bs = bs
	return p, nil
}

// Addrs returns the backend addresses in pool order.
func (p *Pool) Addrs() []string { return p.bs.Addrs() }

// States returns each backend's breaker state, in pool order.
func (p *Pool) States() []BreakerState { return p.bs.States() }

// MetricsSnapshot returns the pool's resilience metrics snapshot.
func (p *Pool) MetricsSnapshot() *metrics.Snapshot { return p.cfg.Registry.Snapshot() }

// pick returns the next backend whose breaker admits a request,
// round-robin from the cursor; ErrNoBackend when every breaker is
// open and still cooling down.
func (p *Pool) pick() (*backend, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	start := p.next
	p.next = (p.next + 1) % p.bs.Len()
	p.mu.Unlock()
	for i := 0; i < p.bs.Len(); i++ {
		b := p.bs.members[(start+i)%p.bs.Len()]
		if b.brk.allow() {
			return b, nil
		}
	}
	return nil, ErrNoBackend
}

// do runs one request with failover: each attempt goes to the next
// healthy backend; transport failures feed that backend's breaker.
// Non-idempotent requests (RELOAD) get exactly one attempt.
func (p *Pool) do(ctx context.Context, op, wantOp byte, body []byte, idempotent bool) (server.Frame, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := 0
	var prev *backend
	for {
		b, err := p.pick()
		var f server.Frame
		if err == nil {
			if prev != nil && b != prev {
				p.met.failovers.Inc()
			}
			prev = b
			f, err = b.c.do(ctx, op, wantOp, body, false)
			b.settle(ctx, err)
			if err == nil {
				return f, nil
			}
			if !retryable(err) {
				return server.Frame{}, err
			}
		} else if errors.Is(err, ErrClosed) {
			return server.Frame{}, err
		}
		attempts++
		if !idempotent {
			return server.Frame{}, err
		}
		if ctx.Err() != nil {
			return server.Frame{}, err
		}
		if attempts > p.retries {
			if p.retries > 0 {
				return server.Frame{}, &RetryError{Attempts: attempts, Err: err}
			}
			return server.Frame{}, err
		}
		p.met.retries.Inc()
		if serr := p.sleep(ctx, p.bo.Delay(attempts)); serr != nil {
			return server.Frame{}, &RetryError{Attempts: attempts, Err: err}
		}
	}
}

// Close stops the prober and closes every backend connection.
// Idempotent; in-flight requests fail.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.bs.Close()
	})
	return nil
}

// ReloadCtx hot-swaps the rule set on EVERY backend — a pool's
// replicas are only useful if they serve the same rules. RELOAD is
// not idempotent, so no backend's reload is retried; the aggregated
// error reports every backend that failed (the others did reload —
// check RulesInfo per backend before re-issuing).
func (p *Pool) ReloadCtx(ctx context.Context, rulesText string) (generation, rules uint32, err error) {
	var errs []error
	for _, b := range p.bs.members {
		f, rerr := b.c.do(ctx, server.OpReload, server.OpReloadOK, []byte(rulesText), false)
		b.settle(ctx, rerr)
		if rerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", b.addr, rerr))
			continue
		}
		generation, rules, rerr = server.DecodeReloadOK(f.Body)
		if rerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", b.addr, rerr))
		}
	}
	return generation, rules, errors.Join(errs...)
}

// Reload hot-swaps the rule set on every backend.
func (p *Pool) Reload(rulesText string) (generation, rules uint32, err error) {
	return p.ReloadCtx(context.Background(), rulesText)
}
