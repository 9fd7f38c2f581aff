// The stateless typed requests and the retry backoff, written once for
// Client and Pool. The two differ only in how one request is carried —
// Client.do retries on its one connection, Pool.do fails over across
// backends — so both embed ops over their own do.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"alveare/internal/metrics"
	"alveare/internal/server"
)

// ops is the typed request API over one carrier. Through a Client a
// request reaches that client's server; through a Pool, one healthy
// backend, failing over under the pool's retry budget.
type ops struct {
	do func(ctx context.Context, op, wantOp byte, body []byte, idempotent bool) (server.Frame, error)
}

// PingCtx round-trips a liveness probe.
func (o ops) PingCtx(ctx context.Context) error {
	_, err := o.do(ctx, server.OpPing, server.OpPong, nil, true)
	return err
}

// Ping round-trips a liveness probe.
func (o ops) Ping() error { return o.PingCtx(context.Background()) }

// ScanCtx runs the server's loaded rule set over payload and returns
// the matches in rule order.
func (o ops) ScanCtx(ctx context.Context, payload []byte) ([]server.RuleMatch, error) {
	return o.matches(ctx, server.OpScan, payload)
}

// Scan runs the server's loaded rule set over payload.
func (o ops) Scan(payload []byte) ([]server.RuleMatch, error) {
	return o.ScanCtx(context.Background(), payload)
}

// CountCtx returns the total number of rule matches in payload.
func (o ops) CountCtx(ctx context.Context, payload []byte) (uint64, error) {
	f, err := o.do(ctx, server.OpCount, server.OpCountResp, payload, true)
	if err != nil {
		return 0, err
	}
	return server.DecodeCount(f.Body)
}

// Count returns the total number of rule matches in payload.
func (o ops) Count(payload []byte) (uint64, error) {
	return o.CountCtx(context.Background(), payload)
}

// ScanPatternCtx runs one ad-hoc pattern (compiled server-side
// through the LRU program cache) over payload.
func (o ops) ScanPatternCtx(ctx context.Context, pattern string, payload []byte) ([]server.RuleMatch, error) {
	body, err := server.EncodeScanPattern(pattern, payload)
	if err != nil {
		return nil, err
	}
	return o.matches(ctx, server.OpScanPattern, body)
}

// ScanPattern runs one ad-hoc pattern over payload.
func (o ops) ScanPattern(pattern string, payload []byte) ([]server.RuleMatch, error) {
	return o.ScanPatternCtx(context.Background(), pattern, payload)
}

// matches issues one request answered by MATCHES.
func (o ops) matches(ctx context.Context, op byte, body []byte) ([]server.RuleMatch, error) {
	f, err := o.do(ctx, op, server.OpMatches, body, true)
	if err != nil {
		return nil, err
	}
	return server.DecodeMatches(f.Body)
}

// RulesInfoCtx describes the serving rule snapshot.
func (o ops) RulesInfoCtx(ctx context.Context) (server.Info, error) {
	f, err := o.do(ctx, server.OpRulesInfo, server.OpInfo, nil, true)
	if err != nil {
		return server.Info{}, err
	}
	return server.DecodeInfo(f.Body)
}

// RulesInfo describes the serving rule snapshot.
func (o ops) RulesInfo() (server.Info, error) {
	return o.RulesInfoCtx(context.Background())
}

// StatsJSONCtx fetches the server's metrics snapshot as its JSON wire
// form (schema-versioned, byte-deterministic).
func (o ops) StatsJSONCtx(ctx context.Context) ([]byte, error) {
	f, err := o.do(ctx, server.OpStats, server.OpStatsResp, nil, true)
	if err != nil {
		return nil, err
	}
	return f.Body, nil
}

// StatsJSON fetches the server's metrics snapshot as JSON bytes.
func (o ops) StatsJSON() ([]byte, error) { return o.StatsJSONCtx(context.Background()) }

// StatsCtx fetches and decodes the server's metrics snapshot.
func (o ops) StatsCtx(ctx context.Context) (*metrics.Snapshot, error) {
	raw, err := o.StatsJSONCtx(ctx)
	if err != nil {
		return nil, err
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("client: stats snapshot: %w", err)
	}
	return &snap, nil
}

// Stats fetches and decodes the server's metrics snapshot.
func (o ops) Stats() (*metrics.Snapshot, error) { return o.StatsCtx(context.Background()) }

// Backoff is a seeded full-jitter schedule: the retry loops of Client
// and Pool, the health prober's cycle and the gateway's ring passes all
// draw their pauses from one. Safe for concurrent use.
type Backoff struct {
	base, max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns the schedule whose window for attempt k is
// base<<(k-1), capped at max; seed makes its draws replayable.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	return &Backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Delay sizes the pause before attempt k (1-based): a uniform draw
// over the exponential window base<<(k-1) capped at max (full jitter),
// floored at window/16 and at 100µs so a shed request is never
// hot-looped.
func (b *Backoff) Delay(attempt int) time.Duration {
	window := b.base
	for i := 1; i < attempt && window < b.max; i++ {
		window <<= 1
	}
	if window > b.max {
		window = b.max
	}
	if window <= 0 {
		return 0
	}
	b.mu.Lock()
	d := time.Duration(b.rng.Int63n(int64(window)))
	b.mu.Unlock()
	if floor := window / 16; d < floor {
		d = floor
	}
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	return d
}
