// Package gateway is the fleet tier: a front-end speaking the framed
// protocol (extended with the TENANT envelope) that routes requests
// across a fleet of scan-service shards by consistent hashing over
// (tenant, rule-namespace).
//
// Robustness model. Every shard is a replica of the same rule set; the
// ring partitions load, not data, so any shard can answer any request
// and failover never changes results. Admission is three gates deep —
// token-bucket quota (SHED quota), weighted fair queue (SHED
// fair-queue), then the worker pool — so a noisy tenant degrades to
// SHED instead of starving the fleet. Routing walks the key's ring
// order through the per-backend circuit breakers from PR 5: an open
// breaker refuses Acquire and the walk skips to the next shard, which
// is exactly "the ring excludes open-breaker backends"; the shared
// health prober flips a revived shard's breaker closed and the walk
// naturally re-includes it. Retries are idempotent-only (SCAN, COUNT,
// SCAN-PATTERN; RELOAD is fanned out once, never retried) and spend a
// bounded budget of shard attempts before degrading to a SHED with
// reason "capacity" — an admitted request always terminates with an
// answer within its budget.
//
// SCAN-PATTERN scatter-gathers across every shard the breakers admit,
// each leg under the shard timeout, and merges the replies. A fan-out
// that missed any shard is reported as MATCHES-PARTIAL with explicit
// answered/missed shard counts — a shard is never silently dropped.
package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alveare/internal/metrics"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// Tenant is one row of the gateway's static tenant table.
type Tenant struct {
	// Name keys the TENANT envelope; required, at most
	// server.MaxTenantName bytes.
	Name string
	// Weight is the tenant's fair-queue share (default 1). A tenant
	// with weight 3 gets three worker visits per round to a
	// weight-1 tenant's one.
	Weight int
	// RateRPS sustains this many requests per second through the
	// tenant's token bucket (0: unlimited); Burst is the bucket depth
	// (default 1 when rate-limited).
	RateRPS float64
	Burst   int
	// QueueDepth bounds the tenant's fair-queue FIFO (default 32).
	// A full FIFO SHEDs with reason fair-queue.
	QueueDepth int
}

// Config parameterises a Gateway. Zero values select the defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe.
	Addr string
	// Backends lists the shard addresses; required.
	Backends []string
	// Tenants is the static tenant table; required.
	Tenants []Tenant
	// DefaultTenant, when set, is assumed for queue-class requests
	// that arrive without a TENANT envelope (it must name a table
	// row). When empty such requests are rejected as unknown-tenant.
	DefaultTenant string

	// Workers is the routing worker-pool width (default GOMAXPROCS).
	Workers int
	// MaxFrame bounds one request frame (default server.DefaultMaxFrame).
	MaxFrame int
	// ReadTimeout / WriteTimeout are the per-frame deadlines on client
	// connections (default 30s each).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// ShardTimeout bounds each attempt against one shard (default 2s).
	ShardTimeout time.Duration
	// Retries is the shard-attempt budget per routed request (default
	// 2×len(Backends)): when it runs out the request SHEDs with
	// reason capacity.
	Retries int

	// BreakerFailures / BreakerCooldown / ProbeInterval parameterise
	// the per-shard circuit breakers and the shared full-jittered
	// health prober (defaults 3, 1s, 500ms).
	BreakerFailures int
	BreakerCooldown time.Duration
	ProbeInterval   time.Duration

	// RingReplicas is the virtual-node count per shard (default 64).
	RingReplicas int

	// MaxSessions bounds the open sticky streaming sessions across all
	// tenants (default 1024); an OPEN past it sheds with reason
	// capacity.
	MaxSessions int
	// SessionIdleTimeout drops session mappings with no traffic for
	// this long (default 60s); a dropped id answers unknown-session.
	SessionIdleTimeout time.Duration
	// SessionPending bounds one session's admitted-but-unforwarded
	// frames (default 8); past it the frame sheds without being
	// forwarded, so the client may resend it.
	SessionPending int
	// ReconcileInterval is the period of the rule-generation
	// anti-entropy reconciler: a background loop that probes each
	// shard's generation via RULES-INFO and re-drives the last
	// successful RELOAD onto shards that lag the fleet — the
	// counterpart of the session failover generation fence, which
	// refuses to restore a stream onto a lagging replica. Default 5s;
	// negative disables the loop.
	ReconcileInterval time.Duration
	// Seed makes the probe jitter and retry backoff deterministic in
	// tests (0: time-based).
	Seed int64
	// Registry receives the gateway's metrics; nil allocates a
	// private one (served by STATS, flushed by alvearegw -metrics).
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = server.DefaultMaxFrame
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 2 * len(c.Backends)
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 60 * time.Second
	}
	if c.SessionPending <= 0 {
		c.SessionPending = 8
	}
	if c.ReconcileInterval == 0 {
		c.ReconcileInterval = 5 * time.Second
	}
	return c
}

// tenantState is one tenant's runtime: its quota bucket and its
// pre-resolved metric handles.
type tenantState struct {
	name     string
	quota    *tokenBucket
	requests *metrics.Counter // queue-class arrivals
	ok       *metrics.Counter // answered with a success response
	shed     *metrics.Counter // SHED for any reason
	errs     *metrics.Counter // answered with ERROR
	qdepth   *metrics.Gauge   // fair-queue FIFO depth
}

// gwMetrics is the gateway's pre-resolved metric handles.
type gwMetrics struct {
	requests       *metrics.Counter
	ok             *metrics.Counter
	shed           *metrics.Counter
	shedQuota      *metrics.Counter
	shedFairq      *metrics.Counter
	shedCapacity   *metrics.Counter
	rerouted       *metrics.Counter // answered by a shard other than the ring owner
	partial        *metrics.Counter // scatter-gathers that missed a shard
	sessOpens      *metrics.Counter
	sessCloses     *metrics.Counter
	sessReaped     *metrics.Counter
	sessActive     *metrics.Gauge
	sessRestores   *metrics.Counter // streams rebuilt on a replica (failover or client restore)
	sessFailovers  *metrics.Counter // frames that triggered a failover walk
	sessReplays    *metrics.Counter // in-flight frames replayed on a replacement shard
	sessDedup      *metrics.Counter // replayed matches suppressed by the finalised-prefix mark
	sessGenRefused *metrics.Counter // restore candidates refused by the generation fence
	reconciled     *metrics.Counter // lagging shards converged by the anti-entropy loop
	reachable      *metrics.Gauge   // fleet.shards.reachable
}

func resolveMetrics(r *metrics.Registry) gwMetrics {
	return gwMetrics{
		requests:       r.Counter("gateway.requests"),
		ok:             r.Counter("gateway.ok"),
		shed:           r.Counter("gateway.shed"),
		shedQuota:      r.Counter("gateway.shed.quota"),
		shedFairq:      r.Counter("gateway.shed.fairqueue"),
		shedCapacity:   r.Counter("gateway.shed.capacity"),
		rerouted:       r.Counter("gateway.rerouted"),
		partial:        r.Counter("gateway.partial"),
		sessOpens:      r.Counter("gateway.sessions.opens"),
		sessCloses:     r.Counter("gateway.sessions.closes"),
		sessReaped:     r.Counter("gateway.sessions.reaped"),
		sessActive:     r.Gauge("gateway.sessions.active"),
		sessRestores:   r.Counter("gateway.sessions.restores"),
		sessFailovers:  r.Counter("gateway.sessions.failovers"),
		sessReplays:    r.Counter("gateway.sessions.replays"),
		sessDedup:      r.Counter("gateway.sessions.dedup"),
		sessGenRefused: r.Counter("gateway.sessions.genrefused"),
		reconciled:     r.Counter("gateway.reload.reconciled"),
		reachable:      r.Gauge("fleet.shards.reachable"),
	}
}

// Gateway is one fleet front-end instance: a server.Shell (listener,
// connections, drain) around the admission gates and the shard router.
type Gateway struct {
	*server.Shell
	cfg     Config
	bs      *client.Backends
	ring    *ring
	fq      *fairQueue
	tenants map[string]*tenantState
	reg     *metrics.Registry
	met     gwMetrics
	passes  *client.Backoff // the pause between full passes over a key's ring walk

	sessions *server.SessionTable[placement, server.Frame]

	// Anti-entropy state: the last fleet-visible RELOAD body and the
	// highest generation any shard reached applying it. The reconciler
	// re-drives this reload onto shards that lag the target.
	reconMu    sync.Mutex
	reconRules []byte
	reconGen   uint32

	wgWorkers sync.WaitGroup
}

// New builds the gateway. No shard is dialed until traffic (or the
// prober) touches it; the gateway does not listen until Serve.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("gateway: at least one tenant required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	bs, err := client.NewBackends(cfg.Backends, client.BackendsConfig{
		Seed:            seed,
		Registry:        reg,
		GaugePrefix:     "gateway.backend.",
		BreakerFailures: cfg.BreakerFailures,
		BreakerCooldown: cfg.BreakerCooldown,
		ProbeInterval:   cfg.ProbeInterval,
		AttemptTimeout:  cfg.ShardTimeout,
	})
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		bs:      bs,
		ring:    newRing(len(cfg.Backends), cfg.RingReplicas),
		fq:      newFairQueue(),
		tenants: make(map[string]*tenantState, len(cfg.Tenants)),
		reg:     reg,
		met:     resolveMetrics(reg),
		// Pass k past the first waits a draw from a 2^k ms window,
		// capped at about a second.
		passes: client.NewBackoff(2*time.Millisecond, 1024*time.Millisecond, seed^0x5deece66d),
	}
	for _, t := range cfg.Tenants {
		if t.Name == "" || len(t.Name) > server.MaxTenantName {
			bs.Close()
			return nil, fmt.Errorf("gateway: invalid tenant name %q", t.Name)
		}
		if _, dup := g.tenants[t.Name]; dup {
			bs.Close()
			return nil, fmt.Errorf("gateway: duplicate tenant %q", t.Name)
		}
		depth := t.QueueDepth
		if depth <= 0 {
			depth = 32
		}
		g.fq.addTenant(t.Name, t.Weight, depth)
		g.tenants[t.Name] = &tenantState{
			name:     t.Name,
			quota:    newTokenBucket(t.RateRPS, t.Burst),
			requests: reg.Counter("gateway.tenant." + t.Name + ".requests"),
			ok:       reg.Counter("gateway.tenant." + t.Name + ".ok"),
			shed:     reg.Counter("gateway.tenant." + t.Name + ".shed"),
			errs:     reg.Counter("gateway.tenant." + t.Name + ".errors"),
			qdepth:   reg.Gauge("gateway.tenant." + t.Name + ".queue.depth"),
		}
	}
	if cfg.DefaultTenant != "" && g.tenants[cfg.DefaultTenant] == nil {
		bs.Close()
		return nil, fmt.Errorf("gateway: default tenant %q not in tenant table", cfg.DefaultTenant)
	}
	g.sessions = server.NewSessionTable(server.SessionConfig[placement, server.Frame]{
		Max:      cfg.MaxSessions,
		Pending:  cfg.SessionPending,
		Idle:     cfg.SessionIdleTimeout,
		Schedule: g.scheduleSession,
		Exec:     g.runSessionFrame,
		Active:   g.met.sessActive,
		Reaped:   g.met.sessReaped,
	})
	g.Shell = server.NewShell(server.ShellConfig{
		Name:         "gateway",
		Addr:         cfg.Addr,
		MaxFrame:     cfg.MaxFrame,
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
		Registry:     reg,
		Start:        g.start,
		Dispatch:     g.dispatch,
		ConnClosed:   g.sessions.ConnClosed,
		Drain: func() {
			g.fq.close()
			g.wgWorkers.Wait()
			g.bs.Close()
		},
	})
	return g, nil
}

// start launches the routing workers, the session reaper and the
// reconciler; the drain waits for all of them.
func (g *Gateway) start() {
	g.spawn(func() { g.sessions.Reap(g.Stopping()) })
	if g.cfg.ReconcileInterval > 0 {
		g.spawn(g.reconciler)
	}
	for i := 0; i < g.cfg.Workers; i++ {
		g.spawn(g.worker)
	}
}

func (g *Gateway) spawn(loop func()) {
	g.wgWorkers.Add(1)
	go func() {
		defer g.wgWorkers.Done()
		loop()
	}()
}

// MetricsSnapshot refreshes the fleet gauges and returns the gateway
// registry's deterministic snapshot — the STATS response body.
func (g *Gateway) MetricsSnapshot() *metrics.Snapshot {
	g.pollFleet()
	for name, ts := range g.tenants {
		ts.qdepth.Set(int64(g.fq.depthOf(name)))
	}
	return g.reg.Snapshot()
}

// fleetSums lists the shard counters the gateway aggregates into
// fleet.* (summed across reachable shards at each STATS).
var fleetSums = []string{
	"server.scan.requests",
	"server.count.requests",
	"server.pattern.requests",
	"server.matches",
	"server.shed",
	"server.errors",
	"ruleset.approx.windows.screened",
	"ruleset.approx.bytes.screened",
	"ruleset.approx.windows.admitted",
	"ruleset.approx.windows.exacthit",
	"server.session.opens",
	"server.session.closes",
	"server.session.reaped",
	"server.session.restores",
}

// pollFleet asks every shard whose breaker is not open for its STATS
// snapshot (in parallel, each under the shard timeout), sums the
// fleet counters, and sets fleet.shards.reachable. Open-breaker
// shards are counted unreachable without being dialed, so STATS stays
// fast while a shard is dead.
func (g *Gateway) pollFleet() {
	n := g.bs.Len()
	snaps := make([]*metrics.Snapshot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if g.bs.State(i) == client.BreakerOpen {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := g.bs.Client(i).StatsCtx(g.Context())
			if err == nil {
				snaps[i] = snap
			}
		}(i)
	}
	wg.Wait()
	reachable := 0
	sums := make([]int64, len(fleetSums))
	var sessOpen int64
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		reachable++
		for j, name := range fleetSums {
			sums[j] += snap.Get(name)
		}
		sessOpen += snap.Get("server.session.active")
	}
	g.met.reachable.Set(int64(reachable))
	for j, name := range fleetSums {
		g.reg.Counter("fleet." + name).Store(sums[j])
	}
	// Streams resident across reachable shards — a gauge, not a counter,
	// so it is summed here instead of riding fleetSums.
	g.reg.Gauge("fleet.sessions.open").Set(sessOpen)
}

// dispatch routes one parsed request. PING answers locally; RULES-INFO
// forwards to the first admitting shard; STATS aggregates the fleet —
// all inline on the reader. Queue-class requests resolve their tenant
// and run the admission gates.
func (g *Gateway) dispatch(c *server.Conn, f server.Frame) {
	switch f.Op {
	case server.OpPing:
		c.WriteFrame(server.Frame{Op: server.OpPong, ID: f.ID})
		return
	case server.OpRulesInfo:
		g.forwardControl(c, f.ID, server.OpRulesInfo, server.OpInfo, nil)
		return
	case server.OpStats:
		var buf bytes.Buffer
		if err := g.MetricsSnapshot().WriteJSON(&buf); err != nil {
			g.replyErr(c, f.ID, nil, server.ErrCodeScan, err)
			return
		}
		c.WriteFrame(server.Frame{Op: server.OpStatsResp, ID: f.ID, Body: buf.Bytes()})
		return
	}

	// Queue-class work, bare or TENANT-wrapped. The tenant and namespace
	// alias the frame: the lookup and the ring hash copy nothing.
	var (
		name, ns []byte
		op       byte
		body     []byte
		named    bool
	)
	switch {
	case f.Op == server.OpTenant:
		var err error
		name, ns, op, body, err = server.DecodeTenantBytes(f.Body)
		if err != nil {
			g.replyErr(c, f.ID, nil, server.ErrCodeBadFrame, err)
			return
		}
		named = true
	case server.QueueClass(f.Op):
		op, body = f.Op, f.Body
	default:
		c.ReplyErr(f.ID, server.ErrCodeBadFrame, errors.New("unknown opcode "+server.OpName(f.Op)))
		return
	}

	g.met.requests.Inc()
	ts, key := g.tenants[g.cfg.DefaultTenant], keyHash(g.cfg.DefaultTenant, "")
	if named {
		ts, key = g.tenants[string(name)], keyHash(name, ns)
	}
	if ts == nil {
		what := string(name)
		if !named && what == "" {
			what = "(no TENANT header)"
		}
		c.ReplyErr(f.ID, server.ErrCodeUnknownTenant, errors.New("unknown tenant "+what))
		return
	}
	ts.requests.Inc()
	if g.Draining() {
		g.replyErr(c, f.ID, ts, server.ErrCodeDraining, errors.New("gateway draining"))
		return
	}
	if !ts.quota.take() {
		g.shedReply(c, f.ID, ts, server.ShedReasonQuota)
		return
	}
	if op == server.OpSessionData || op == server.OpSessionClose {
		// Session frames must reach their pinned shard in arrival
		// order: they join the session's FIFO, not the fair queue
		// directly.
		g.dispatchSessionFrame(c, ts, op, body, f.ID)
		return
	}
	c.Pending.Add(1)
	if !g.fq.push(ts.name, job{c: c, ts: ts, key: key, op: op, id: f.ID, body: body}) {
		c.Pending.Done()
		// Refund the quota token: a fair-queue shed must not also
		// burn the tenant's contracted rate.
		ts.quota.give()
		g.shedReply(c, f.ID, ts, server.ShedReasonFairQ)
		return
	}
	ts.qdepth.Max(int64(g.fq.depthOf(ts.name)))
}

// job is one admitted unit of gateway work, queued by value so that
// admitting it allocates nothing: a routed request, or one turn of a
// session's frame runner (sess set).
type job struct {
	c    *server.Conn
	ts   *tenantState
	sess *gwSession
	key  uint64 // ring hash of the request's tenant/namespace
	op   byte
	id   uint32
	body []byte
}

// worker serves the fair queue until it closes and drains.
func (g *Gateway) worker() {
	for {
		j, ok := g.fq.pop()
		if !ok {
			return
		}
		g.execute(j)
	}
}

// execute runs one admitted job.
func (g *Gateway) execute(j job) {
	defer j.c.Pending.Done()
	switch {
	case j.sess != nil:
		g.sessions.Run(j.sess)
	case j.op == server.OpScan:
		g.routeSingle(j.c, j.ts, j.key, j.op, server.OpMatches, j.body, j.id)
	case j.op == server.OpCount:
		g.routeSingle(j.c, j.ts, j.key, j.op, server.OpCountResp, j.body, j.id)
	case j.op == server.OpScanBatch:
		g.routeSingle(j.c, j.ts, j.key, j.op, server.OpBatchResp, j.body, j.id)
	case j.op == server.OpSessionOpen, j.op == server.OpSessionRestore:
		g.openGwSession(j.c, j.ts, j.key, j.op, j.body, j.id)
	case j.op == server.OpScanPattern:
		g.scatterGather(j.c, j.ts, j.body, j.id)
	case j.op == server.OpReload:
		g.reloadAll(j.c, j.ts, j.body, j.id)
	}
}

// routeSingle walks the key's ring order, skipping shards whose
// breaker refuses admission, until a shard answers or the attempt
// budget runs out. Shard SHEDs and transport failures move to the
// next shard (these ops are idempotent); an authoritative ERROR is
// forwarded as-is. Budget exhaustion degrades to SHED capacity — the
// client learns "the fleet is saturated or dark", not a hang.
func (g *Gateway) routeSingle(c *server.Conn, ts *tenantState, key uint64, op, wantOp byte, body []byte, id uint32) {
	walk := g.ring.walk(key)
	for attempt := 0; attempt < g.cfg.Retries; attempt++ {
		idx := walk.next()
		if attempt > 0 && attempt%g.ring.n == 0 {
			// A full pass over the fleet failed; back off briefly
			// (full jitter) before the next pass instead of spinning.
			g.pause(attempt / g.ring.n)
		}
		if !g.bs.Acquire(idx) {
			continue
		}
		// The backend client's attempt timeout (ShardTimeout) is the
		// one bound on the leg; a hung shard's timeout reaches its
		// breaker as a failure.
		f, err := g.bs.Do(g.Context(), idx, op, wantOp, body)
		if err == nil {
			if idx != walk.owner() {
				g.met.rerouted.Inc()
			}
			ts.ok.Inc()
			g.met.ok.Inc()
			c.WriteFrame(server.Frame{Op: f.Op, ID: id, Body: f.Body})
			return
		}
		var se *client.ServerError
		if errors.As(err, &se) && se.Code != server.ErrCodeDraining {
			// The shard answered authoritatively; retrying elsewhere
			// would repeat the same verdict (replicas).
			g.replyErr(c, id, ts, se.Code, errors.New(se.Msg))
			return
		}
		// Shard SHED, shard draining, or transport failure: spend the
		// attempt, walk on.
	}
	g.shedReply(c, id, ts, server.ShedReasonCapacity)
}

// scatterGather fans one SCAN-PATTERN out to every shard the breakers
// admit, each leg under the shard timeout, merges the replies
// (deduplicated — shards are replicas, so agreement is the common
// case), and accounts every shard explicitly: full coverage answers
// MATCHES, anything less answers MATCHES-PARTIAL with answered/missed
// counts, and zero coverage SHEDs with reason capacity.
func (g *Gateway) scatterGather(c *server.Conn, ts *tenantState, body []byte, id uint32) {
	n := g.bs.Len()
	legs := make([][]server.RuleMatch, n)
	// ok is tracked separately from legs: a healthy shard can
	// legitimately answer an empty MATCHES body (legs[i] == nil), which
	// must count as coverage, not as a failed leg.
	ok := make([]bool, n)
	var authErr atomic.Pointer[client.ServerError]
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !g.bs.Acquire(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := g.bs.Do(g.Context(), i, server.OpScanPattern, server.OpMatches, body)
			if err != nil {
				var se *client.ServerError
				if errors.As(err, &se) && se.Code != server.ErrCodeDraining {
					// Authoritative rejection (compile error, bad
					// frame). A draining shard is transient — it counts
					// as a failed leg, not a fleet-wide verdict.
					authErr.Store(se)
				}
				return
			}
			ms, err := server.DecodeMatches(f.Body)
			if err != nil {
				return
			}
			legs[i] = ms
			ok[i] = true
		}(i)
	}
	wg.Wait()
	if se := authErr.Load(); se != nil {
		// At least one replica rejected the pattern itself (compile
		// error, bad frame): that verdict holds fleet-wide.
		g.replyErr(c, id, ts, se.Code, errors.New(se.Msg))
		return
	}
	var shardsOK, shardsFailed uint16
	merged := make(map[server.RuleMatch]struct{})
	for i := 0; i < n; i++ {
		if !ok[i] {
			shardsFailed++
			continue
		}
		shardsOK++
		for _, m := range legs[i] {
			merged[m] = struct{}{}
		}
	}
	if shardsOK == 0 {
		g.shedReply(c, id, ts, server.ShedReasonCapacity)
		return
	}
	ms := make([]server.RuleMatch, 0, len(merged))
	for m := range merged {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Rule != ms[b].Rule {
			return ms[a].Rule < ms[b].Rule
		}
		if ms[a].Start != ms[b].Start {
			return ms[a].Start < ms[b].Start
		}
		return ms[a].End < ms[b].End
	})
	ts.ok.Inc()
	g.met.ok.Inc()
	if shardsFailed == 0 {
		c.WriteFrame(server.Frame{Op: server.OpMatches, ID: id, Body: server.EncodeMatches(ms)})
		return
	}
	g.met.partial.Inc()
	c.WriteFrame(server.Frame{Op: server.OpMatchesPartial, ID: id,
		Body: server.EncodeMatchesPartial(true, shardsOK, shardsFailed, ms)})
}

// reloadAll fans a RELOAD out to every shard — replicas must stay
// identical — with a single attempt each (RELOAD is not idempotent
// across retries of a partially-applied fleet). All shards succeeding
// answers RELOAD-OK with the highest generation; any failure answers
// an ERROR naming every shard that missed the reload, so the operator
// knows the fleet has diverged and must retry.
func (g *Gateway) reloadAll(c *server.Conn, ts *tenantState, body []byte, id uint32) {
	n := g.bs.Len()
	type result struct {
		gen, rules uint32
		err        error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen, rules, err := g.bs.Client(i).ReloadCtx(g.Context(), string(body))
			results[i] = result{gen: gen, rules: rules, err: err}
		}(i)
	}
	wg.Wait()
	var fails []string
	var gen, rules uint32
	seen := false
	for i, r := range results {
		if r.err != nil {
			fails = append(fails, fmt.Sprintf("shard %d (%s): %v", i, g.bs.Addr(i), r.err))
			continue
		}
		// Report the (generation, rules) pair from the shard with the
		// highest generation so the two values stay consistent even if
		// shards were at different generations before the reload.
		if !seen || r.gen > gen {
			gen, rules = r.gen, r.rules
			seen = true
		}
	}
	if seen {
		// Remember the rules text and the target generation even when
		// some shards missed the reload: the anti-entropy reconciler
		// converges the laggards from exactly this state.
		g.reconMu.Lock()
		g.reconRules = append([]byte(nil), body...)
		g.reconGen = gen
		g.reconMu.Unlock()
	}
	if len(fails) > 0 {
		g.replyErr(c, id, ts, server.ErrCodeScan,
			fmt.Errorf("reload incomplete, fleet diverged: %s", strings.Join(fails, "; ")))
		return
	}
	ts.ok.Inc()
	g.met.ok.Inc()
	c.WriteFrame(server.Frame{Op: server.OpReloadOK, ID: id, Body: server.EncodeReloadOK(gen, rules)})
}

// forwardControl forwards one control request to the first shard the
// breakers admit, inline on the reader (control requests are cheap and
// never queue).
func (g *Gateway) forwardControl(c *server.Conn, id uint32, op, wantOp byte, body []byte) {
	for i := 0; i < g.bs.Len(); i++ {
		if !g.bs.Acquire(i) {
			continue
		}
		f, err := g.bs.Do(g.Context(), i, op, wantOp, body)
		if err == nil {
			c.WriteFrame(server.Frame{Op: f.Op, ID: id, Body: f.Body})
			return
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			g.replyErr(c, id, nil, se.Code, errors.New(se.Msg))
			return
		}
	}
	c.ReplyErr(id, server.ErrCodeScan, errors.New("no shard reachable"))
}

// shedReply answers one request with a reasoned SHED and counts it.
func (g *Gateway) shedReply(c *server.Conn, id uint32, ts *tenantState, reason byte) {
	g.met.shed.Inc()
	switch reason {
	case server.ShedReasonQuota:
		g.met.shedQuota.Inc()
	case server.ShedReasonFairQ:
		g.met.shedFairq.Inc()
	case server.ShedReasonCapacity:
		g.met.shedCapacity.Inc()
	}
	if ts != nil {
		ts.shed.Inc()
	}
	c.WriteFrame(server.Frame{Op: server.OpShed, ID: id, Body: server.EncodeShed(reason)})
}

// replyErr writes an ERROR response and counts it.
func (g *Gateway) replyErr(c *server.Conn, id uint32, ts *tenantState, code byte, err error) {
	if ts != nil {
		ts.errs.Inc()
	}
	c.ReplyErr(id, code, err)
}

// pause sleeps the full-jittered backoff before ring pass k+1 (k >= 1
// passes failed), bounded by the gateway lifecycle (Close aborts it).
func (g *Gateway) pause(k int) {
	t := time.NewTimer(g.passes.Delay(k))
	defer t.Stop()
	select {
	case <-t.C:
	case <-g.Context().Done():
	}
}
