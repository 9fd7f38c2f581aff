// Backends: the shared fleet substrate under Pool and the gateway's
// routing tier — one Client, one circuit breaker and one breaker-state
// gauge per backend address, plus the background health prober that
// rediscovers dead backends without taxing live traffic.
//
// The prober's interval is FULL-JITTERED (uniform over the configured
// window, same shape as the reconnect backoff): a fleet of gateways
// configured with the same probe interval must not synchronise into a
// probe storm against a backend that just came back — with a fixed
// ticker they all fire at the same phase once the backend's revival
// resets their breakers together. Each cycle independently draws its
// sleep from [interval/16, interval) — the first window of a Backoff
// whose base is the interval — so fleet members decorrelate within one
// window and stay decorrelated.
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

// BackendsConfig parameterises NewBackends. Zero values select the
// defaults noted per field.
type BackendsConfig struct {
	// Seed drives the probe-interval jitter and each backend client's
	// backoff jitter (0: time-based).
	Seed int64
	// Registry receives the per-backend breaker-state gauges and the
	// shared transition counter (nil: a private registry).
	Registry *metrics.Registry
	// GaugePrefix names the per-backend state gauges
	// ("<prefix><index>.breaker_state"); default "client.backend.".
	GaugePrefix string
	// BreakerFailures consecutive transport failures open a backend's
	// breaker (default 3); BreakerCooldown is the open → half-open
	// delay (default 1s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// ProbeInterval enables the background health prober: each cycle
	// sleeps a full-jittered draw from [ProbeInterval/16, ProbeInterval),
	// then pings every backend whose breaker is not closed. 0 disables
	// probing.
	ProbeInterval time.Duration
	// AttemptTimeout bounds each request attempt on a backend (0: only
	// the caller's context bounds it).
	AttemptTimeout time.Duration
	// ClientOptions are appended to every backend Client.
	ClientOptions []Option
}

// Backends is a fixed set of scan-service backends with per-backend
// circuit breakers and an optional shared health prober. Safe for
// concurrent use. It does not route — Pool round-robins over it and
// the gateway consistent-hashes over it.
type Backends struct {
	members []*backend

	probeEvery time.Duration
	probeWait  Backoff // draws each cycle's sleep (base = max = probeEvery)
	probeStop  chan struct{}
	probeDone  chan struct{}
	closeOnce  sync.Once
}

// NewBackends builds the fleet substrate. No backend is dialed until
// the first request (or probe) touches it.
func NewBackends(addrs []string, cfg BackendsConfig) (*Backends, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: backends need at least one address")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	prefix := cfg.GaugePrefix
	if prefix == "" {
		prefix = "client.backend."
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	bs := &Backends{
		probeEvery: cfg.ProbeInterval,
		probeWait:  Backoff{base: cfg.ProbeInterval, max: cfg.ProbeInterval, rng: rand.New(rand.NewSource(seed))},
	}
	transitions := reg.Counter("client.breaker.transitions")
	for i, addr := range addrs {
		copts := append([]Option{
			WithMetrics(reg), // shared: attempts/reconnects aggregate
			WithRetries(0),   // the routing layer owns the retry budget
			WithSeed(seed + int64(i) + 1),
			WithAttemptTimeout(cfg.AttemptTimeout),
		}, cfg.ClientOptions...)
		gauge := reg.Gauge(fmt.Sprintf("%s%d.breaker_state", prefix, i))
		gauge.Set(int64(BreakerClosed))
		bs.members = append(bs.members, &backend{
			addr: addr,
			c:    New(addr, copts...),
			brk:  newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, transitions, gauge),
		})
	}
	if bs.probeEvery > 0 {
		bs.probeStop = make(chan struct{})
		bs.probeDone = make(chan struct{})
		go bs.probeLoop()
	}
	return bs, nil
}

// Len returns the backend count.
func (bs *Backends) Len() int { return len(bs.members) }

// Addr returns backend i's address.
func (bs *Backends) Addr(i int) string { return bs.members[i].addr }

// Addrs returns every backend address, in index order.
func (bs *Backends) Addrs() []string {
	out := make([]string, len(bs.members))
	for i, b := range bs.members {
		out[i] = b.addr
	}
	return out
}

// State returns backend i's breaker state.
func (bs *Backends) State(i int) BreakerState { return bs.members[i].brk.current() }

// States returns every backend's breaker state, in index order.
func (bs *Backends) States() []BreakerState {
	out := make([]BreakerState, len(bs.members))
	for i, b := range bs.members {
		out[i] = b.brk.current()
	}
	return out
}

// Acquire asks backend i's breaker to admit one request. An open
// breaker past its cooldown flips half-open and admits the caller as
// its single probe, so a true return MUST be followed by exactly one
// Do — dropping the slot on the floor wedges the breaker half-open
// until the prober rescues it.
func (bs *Backends) Acquire(i int) bool { return bs.members[i].brk.allow() }

// Do issues one attempt of one request on backend i (no retries —
// the routing layer owns the budget) and settles the breaker with the
// outcome. The caller must hold an Acquire admission.
func (bs *Backends) Do(ctx context.Context, i int, op, wantOp byte, body []byte) (server.Frame, error) {
	return bs.DoPrefixed(ctx, i, op, wantOp, bs.members[i].c.tenantHeads[op], body)
}

// DoPrefixed is Do for a body that follows prefix on the wire, written
// as one frame without either being copied: a relay sends its own head
// ahead of a received payload. prefix is all that precedes body, so a
// backend whose client carries a TENANT envelope needs it in prefix;
// the gateway's shard clients carry none.
func (bs *Backends) DoPrefixed(ctx context.Context, i int, op, wantOp byte, prefix, body []byte) (server.Frame, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := bs.members[i]
	f, err := b.c.doPrefixed(ctx, op, wantOp, prefix, body, false)
	b.settle(ctx, err)
	return f, err
}

// Client returns backend i's Client, for callers that need the full
// request API (fan-out RELOAD, STATS). Requests issued through it
// bypass the breaker.
func (bs *Backends) Client(i int) *Client { return bs.members[i].c }

// probeLoop pings every non-closed breaker's backend once per
// full-jittered interval, respecting the half-open single-probe
// discipline via allow().
func (bs *Backends) probeLoop() {
	defer close(bs.probeDone)
	for {
		t := time.NewTimer(bs.probeWait.Delay(1))
		select {
		case <-bs.probeStop:
			t.Stop()
			return
		case <-t.C:
		}
		for _, b := range bs.members {
			if b.brk.current() == BreakerClosed {
				continue
			}
			if !b.brk.allow() {
				continue
			}
			pctx, cancel := context.WithTimeout(context.Background(), bs.probeEvery)
			_, err := b.c.do(pctx, server.OpPing, server.OpPong, nil, false)
			cancel()
			b.settle(context.Background(), err)
		}
	}
}

// Close stops the prober and closes every backend connection.
// Idempotent; in-flight requests fail.
func (bs *Backends) Close() error {
	bs.closeOnce.Do(func() {
		if bs.probeStop != nil {
			close(bs.probeStop)
			<-bs.probeDone
		}
		for _, b := range bs.members {
			b.c.Close()
		}
	})
	return nil
}
