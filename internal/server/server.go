// The scan service: a TCP listener speaking the framed protocol, a
// bounded admission queue feeding a worker pool, rule hot-reload by
// atomic snapshot swap, and graceful drain.
//
// Admission control and backpressure: the connection reader answers
// the cheap control requests (PING, RULES-INFO, STATS) inline and hands
// scan work to a bounded queue. A full queue yields an immediate SHED
// response — the client learns it must back off; the server never
// buffers unbounded work or blocks its readers. Workers execute scans
// under the configured guardrail policy and per-request timeout, so
// one adversarial payload cannot wedge a worker (the runaway trips the
// cycle budget, the policy contains it, the worker moves on).
//
// The listener lifecycle, the connection reader and writer and the
// drain are the Shell's (shell.go); this file is what the scan server
// adds: its dispatch, its queue and workers, and the scans themselves.
package server

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alveare/internal/arch"
	"alveare/internal/core"
	"alveare/internal/metrics"
)

// Config parameterises a Server. Zero values select the defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (e.g. ":7171").
	Addr string
	// Rules is the initial rule database (generation 0); required.
	Rules []string

	// Workers is the service worker-pool width (default GOMAXPROCS).
	// Each worker executes one admitted request at a time; the RuleSet
	// underneath fans one request's rules out over its own bounded pool
	// of recycled cores.
	Workers int
	// QueueDepth bounds the admission queue (default 128). A request
	// arriving while the queue is full is answered with SHED.
	QueueDepth int
	// MaxFrame bounds one request frame (default DefaultMaxFrame);
	// larger frames are rejected before their body is buffered.
	MaxFrame int
	// ReadTimeout is the per-frame read deadline (default 30s): an idle
	// connection is closed after this long without a complete frame.
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default 30s): a
	// client that stops reading (a blackholed peer, a dead NAT entry)
	// fails its connection instead of wedging a reader or worker in a
	// blocked write — which would otherwise stall a graceful drain
	// forever. Negative disables the deadline.
	WriteTimeout time.Duration
	// RequestTimeout bounds one scan's execution, queue wait excluded
	// (default 0: unbounded). An expired request is answered with an
	// ERROR frame carrying the deadline cause.
	RequestTimeout time.Duration

	// Policy is the guardrail containment for runaway scans (default
	// FailFast); Budget caps the speculative cycle budget per attempt
	// (0 = effectively unbounded), exactly as the tools' -policy and
	// -budget flags.
	Policy core.Policy
	Budget int64
	// RuleWorkers bounds each request's rule-level fan-out inside the
	// RuleSet (default GOMAXPROCS).
	RuleWorkers int

	// NoDFA disables the hybrid fast path (lazy-DFA probe gates plus
	// the cross-rule literal prefilter), which the server enables by
	// default — the tools' -no-dfa escape hatch. Results are
	// byte-identical either way; only the cost model changes. The
	// prefilter lives inside the compiled snapshot, so RELOAD swaps it
	// atomically with the rules.
	NoDFA bool

	// NoApprox disables the over-approximating admission stage
	// (internal/approx), which the server enables by default — the
	// tools' -no-approx escape hatch. The filter only ever proves match
	// absence, so results are byte-identical either way; like the
	// prefilter it lives inside the compiled snapshot, and RELOAD
	// rebuilds it for the new rules and swaps it atomically.
	NoApprox bool
	// ApproxStates bounds the admission automaton's DFA state budget
	// (0 = the default of 256, also the maximum). Smaller budgets
	// coarsen the filter — more windows admitted — but never change
	// results.
	ApproxStates int

	// PatternCache is the LRU capacity for ad-hoc SCAN-PATTERN engines
	// (default 64; negative disables caching).
	PatternCache int

	// MaxSessions bounds the open streaming sessions (default 256). A
	// SESSION-OPEN past the bound is answered with SHED — each session
	// holds an overlap tail resident, so the bound is a memory cap.
	MaxSessions int
	// SessionIdleTimeout reaps sessions with no traffic for this long
	// (default 60s); a reaped id answers ERROR unknown-session.
	SessionIdleTimeout time.Duration
	// SessionPending bounds one session's admitted-but-unexecuted
	// frames (default 8). A frame past the bound is answered with SHED;
	// it was not absorbed, so resending the same chunk is safe.
	SessionPending int

	// Registry receives the server's metrics; nil allocates a private
	// one (exposed by MetricsSnapshot and the STATS endpoint).
	Registry *metrics.Registry

	// ScanHook, when set, runs at the start of every admitted request's
	// execution — a test seam for making workers observably slow.
	ScanHook func()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.PatternCache == 0 {
		c.PatternCache = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 60 * time.Second
	}
	if c.SessionPending <= 0 {
		c.SessionPending = 8
	}
	return c
}

// Server is one scan service instance: a Shell (listener, connections,
// drain) around the scan queue and its workers.
type Server struct {
	*Shell
	cfg  Config
	opts []core.Option

	snap   atomic.Pointer[snapshot]
	cache  *programCache
	reg    *metrics.Registry
	met    serverMetrics
	reload sync.Mutex // serialises Reload's compile-and-swap

	queue     chan job
	qdepth    atomic.Int64
	sessions  *SessionTable[stream, job]
	wgWorkers sync.WaitGroup
}

// job is one admitted request awaiting a worker, queued by value so
// that admitting it allocates nothing. A runner job (no frame of its
// own) drains one session's FIFO in arrival order.
type job struct {
	c        *Conn
	f        Frame
	admitted time.Time
	runner   *session
}

// endpointMetrics is one request type's counter block.
type endpointMetrics struct {
	requests *metrics.Counter
	bytes    *metrics.Counter
	latency  *metrics.Histogram
}

// serverMetrics resolves every metric handle once, at construction, so
// the request path touches only atomics.
type serverMetrics struct {
	scan, count, pattern, ping, info, reload, stats endpointMetrics
	batch, sessData                                 endpointMetrics

	batchItems   *metrics.Counter
	sessOpens    *metrics.Counter
	sessRestores *metrics.Counter
	sessCloses   *metrics.Counter
	sessReaped   *metrics.Counter
	sessActive   *metrics.Gauge

	matches    *metrics.Counter
	shed       *metrics.Counter
	queueDepth *metrics.Gauge
	queueHigh  *metrics.Gauge
	reloads    *metrics.Counter
	generation *metrics.Gauge
}

func newEndpoint(r *metrics.Registry, name string) endpointMetrics {
	return endpointMetrics{
		requests: r.Counter("server." + name + ".requests"),
		bytes:    r.Counter("server." + name + ".bytes"),
		latency:  r.Histogram("server." + name + ".latency_us"),
	}
}

func resolveMetrics(r *metrics.Registry) serverMetrics {
	return serverMetrics{
		scan:         newEndpoint(r, "scan"),
		count:        newEndpoint(r, "count"),
		pattern:      newEndpoint(r, "pattern"),
		ping:         newEndpoint(r, "ping"),
		info:         newEndpoint(r, "info"),
		reload:       newEndpoint(r, "reload"),
		stats:        newEndpoint(r, "stats"),
		batch:        newEndpoint(r, "batch"),
		sessData:     newEndpoint(r, "session.data"),
		batchItems:   r.Counter("server.batch.items"),
		sessOpens:    r.Counter("server.session.opens"),
		sessRestores: r.Counter("server.session.restores"),
		sessCloses:   r.Counter("server.session.closes"),
		sessReaped:   r.Counter("server.session.reaped"),
		sessActive:   r.Gauge("server.session.active"),
		matches:      r.Counter("server.matches"),
		shed:         r.Counter("server.shed"),
		queueDepth:   r.Gauge("server.queue.depth"),
		queueHigh:    r.Gauge("server.queue.highwater"),
		reloads:      r.Counter("server.reload.applied"),
		generation:   r.Gauge("server.generation"),
	}
}

// New compiles the initial rule snapshot and builds the service. The
// server does not listen until Serve or ListenAndServe.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	opts := []core.Option{
		core.WithPolicy(cfg.Policy),
		core.WithBudget(cfg.Budget),
		core.WithWorkers(cfg.RuleWorkers),
	}
	if !cfg.NoDFA {
		opts = append(opts, core.WithDFA())
	}
	if !cfg.NoApprox {
		opts = append(opts, core.WithApprox())
	}
	if cfg.ApproxStates > 0 {
		opts = append(opts, core.WithApproxStates(cfg.ApproxStates))
	}
	snap, err := compileSnapshot(cfg.Rules, 0, opts)
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	s := &Server{
		cfg:   cfg,
		opts:  opts,
		cache: newProgramCache(cfg.PatternCache),
		reg:   reg,
		met:   resolveMetrics(reg),
		queue: make(chan job, cfg.QueueDepth),
	}
	s.sessions = NewSessionTable(SessionConfig[stream, job]{
		Max:      cfg.MaxSessions,
		Pending:  cfg.SessionPending,
		Idle:     cfg.SessionIdleTimeout,
		Schedule: s.scheduleSession,
		Exec:     s.executeSession,
		Active:   s.met.sessActive,
		Reaped:   s.met.sessReaped,
	})
	s.Shell = NewShell(ShellConfig{
		Name:         "server",
		Addr:         cfg.Addr,
		MaxFrame:     cfg.MaxFrame,
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
		Registry:     reg,
		Start:        s.start,
		Dispatch:     s.dispatch,
		ConnClosed:   s.sessions.ConnClosed,
		Drain: func() {
			close(s.queue)
			s.wgWorkers.Wait()
		},
	})
	s.snap.Store(snap)
	s.met.generation.Set(0)
	return s, nil
}

// start launches the worker pool and the session reaper.
func (s *Server) start() {
	s.wgWorkers.Add(s.cfg.Workers + 1)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	go func() {
		defer s.wgWorkers.Done()
		s.sessions.Reap(s.Stopping())
	}()
}

// Reload compiles patterns into a fresh snapshot and swaps it live.
// In-flight requests finish on the snapshot they started with; the
// swap is atomic, so no request ever observes a partial rule set. The
// new generation number is returned; a compile failure leaves the
// serving snapshot untouched.
func (s *Server) Reload(patterns []string) (uint32, error) {
	s.reload.Lock()
	defer s.reload.Unlock()
	gen := s.snap.Load().generation + 1
	snap, err := compileSnapshot(patterns, gen, s.opts)
	if err != nil {
		return 0, err
	}
	s.snap.Store(snap)
	s.met.reloads.Inc()
	s.met.generation.Set(int64(gen))
	return gen, nil
}

// Info describes the currently serving snapshot.
func (s *Server) Info() Info {
	snap := s.snap.Load()
	return Info{Generation: snap.generation, Patterns: append([]string(nil), snap.patterns...)}
}

// MetricsSnapshot publishes the serving rule set's scan roll-up and
// the pattern-cache counters into the server registry and returns the
// deterministic snapshot — the body of the STATS response and what
// alvearesrv's -metrics flag flushes on exit.
func (s *Server) MetricsSnapshot() *metrics.Snapshot {
	snap := s.snap.Load()
	snap.rules.PublishMetrics(s.reg)
	hits, misses := s.cache.stats()
	s.reg.Counter("server.cache.hits").Store(hits)
	s.reg.Counter("server.cache.misses").Store(misses)
	return s.reg.Snapshot()
}

// dispatch routes one parsed request: control requests answer inline
// on the reader goroutine (they never block on scan work); scan
// requests pass admission control into the bounded queue.
func (s *Server) dispatch(c *Conn, f Frame) {
	start := time.Now()
	switch f.Op {
	case OpPing:
		s.met.ping.requests.Inc()
		c.WriteFrame(Frame{Op: OpPong, ID: f.ID})
		s.met.ping.latency.Observe(time.Since(start).Microseconds())
	case OpRulesInfo:
		s.met.info.requests.Inc()
		body, err := EncodeInfo(s.Info())
		if err != nil {
			c.ReplyErr(f.ID, ErrCodeBadFrame, err)
			return
		}
		c.WriteFrame(Frame{Op: OpInfo, ID: f.ID, Body: body})
		s.met.info.latency.Observe(time.Since(start).Microseconds())
	case OpStats:
		s.met.stats.requests.Inc()
		var buf bytes.Buffer
		if err := s.MetricsSnapshot().WriteJSON(&buf); err != nil {
			c.ReplyErr(f.ID, ErrCodeScan, err)
			return
		}
		c.WriteFrame(Frame{Op: OpStatsResp, ID: f.ID, Body: buf.Bytes()})
		s.met.stats.latency.Observe(time.Since(start).Microseconds())
	case OpScan, OpCount, OpScanPattern, OpReload, OpScanBatch, OpSessionOpen, OpSessionRestore,
		OpSessionData, OpSessionClose:
		switch {
		case s.Draining():
			c.ReplyErr(f.ID, ErrCodeDraining, errors.New("server draining"))
		case f.Op == OpSessionData || f.Op == OpSessionClose:
			// Session frames must execute in arrival order, one at a time:
			// they join the session's FIFO, not the queue directly.
			s.dispatchSession(c, f, start)
		case !s.enqueue(job{c: c, f: f, admitted: start}):
			s.shed(c, f.ID)
		}
	default:
		c.ReplyErr(f.ID, ErrCodeBadFrame, errors.New("unknown opcode "+OpName(f.Op)))
	}
}

// enqueue offers one job to the bounded queue. A full queue refuses
// immediately — the caller sheds; a reader is never blocked.
func (s *Server) enqueue(j job) bool {
	j.c.Pending.Add(1)
	select {
	case s.queue <- j:
		d := s.qdepth.Add(1)
		s.met.queueDepth.Set(d)
		s.met.queueHigh.Max(d)
		return true
	default:
		j.c.Pending.Done()
		return false
	}
}

// shed answers one request SHED and counts it.
func (s *Server) shed(c *Conn, id uint32) {
	s.met.shed.Inc()
	c.WriteFrame(Frame{Op: OpShed, ID: id})
}

// worker executes admitted requests until the queue closes.
func (s *Server) worker() {
	defer s.wgWorkers.Done()
	for j := range s.queue {
		s.met.queueDepth.Set(s.qdepth.Add(-1))
		if j.runner != nil {
			s.sessions.Run(j.runner)
		} else {
			s.execute(&j)
		}
		j.c.Pending.Done()
	}
}

// begin is every admitted request's preamble, plain or session: run
// the scan hook, then bound the request by the per-request timeout.
func (s *Server) begin() (context.Context, context.CancelFunc) {
	if s.cfg.ScanHook != nil {
		s.cfg.ScanHook()
	}
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(s.Context(), s.cfg.RequestTimeout)
	}
	return s.Context(), func() {}
}

// execute runs one admitted request under the per-request timeout and
// writes its response.
func (s *Server) execute(j *job) {
	ctx, cancel := s.begin()
	defer cancel()
	switch j.f.Op {
	case OpScan, OpCount:
		ep := &s.met.scan
		if j.f.Op == OpCount {
			ep = &s.met.count
		}
		ep.requests.Inc()
		ep.bytes.Add(int64(len(j.f.Body)))
		ms, err := s.scanSnapshot(ctx, j.f.Body)
		if err != nil {
			j.c.ReplyErr(j.f.ID, ErrCodeScan, err)
			break
		}
		s.met.matches.Add(int64(len(ms)))
		if j.f.Op == OpCount {
			j.c.WriteFrame(Frame{Op: OpCountResp, ID: j.f.ID, Body: EncodeCount(uint64(len(ms)))})
		} else {
			j.c.WriteBody(OpMatches, j.f.ID, func(buf []byte) []byte { return AppendMatches(buf, ms) })
		}
		ep.latency.Observe(time.Since(j.admitted).Microseconds())
	case OpScanPattern:
		s.met.pattern.requests.Inc()
		pattern, payload, err := DecodeScanPattern(j.f.Body)
		if err != nil {
			j.c.ReplyErr(j.f.ID, ErrCodeBadFrame, err)
			break
		}
		s.met.pattern.bytes.Add(int64(len(payload)))
		ms, err := s.scanPattern(ctx, pattern, payload)
		if err != nil {
			code := ErrCodeScan
			if !isScanFailure(err) {
				code = ErrCodeCompile
			}
			j.c.ReplyErr(j.f.ID, code, err)
			break
		}
		s.met.matches.Add(int64(len(ms)))
		j.c.WriteBody(OpMatches, j.f.ID, func(buf []byte) []byte { return AppendMatches(buf, ms) })
		s.met.pattern.latency.Observe(time.Since(j.admitted).Microseconds())
	case OpReload:
		s.met.reload.requests.Inc()
		rules := ParseRules(string(j.f.Body))
		gen, err := s.Reload(rules)
		if err != nil {
			j.c.ReplyErr(j.f.ID, ErrCodeCompile, err)
			break
		}
		j.c.WriteFrame(Frame{Op: OpReloadOK, ID: j.f.ID, Body: EncodeReloadOK(gen, uint32(len(rules)))})
		s.met.reload.latency.Observe(time.Since(j.admitted).Microseconds())
	case OpScanBatch:
		s.executeBatch(ctx, j)
	case OpSessionOpen, OpSessionRestore:
		s.startSession(j)
	}
}

// scanSnapshot runs the serving rule set over payload. The snapshot is
// captured once, so a concurrent Reload never splits one request
// across two rule-set generations.
func (s *Server) scanSnapshot(ctx context.Context, payload []byte) ([]RuleMatch, error) {
	return scanRules(ctx, s.snap.Load().rules, payload)
}

// scanPattern runs one ad-hoc pattern over payload through the LRU
// compiled-pattern cache.
func (s *Server) scanPattern(ctx context.Context, pattern string, payload []byte) ([]RuleMatch, error) {
	rs, err := s.cache.get(pattern, s.opts)
	if err != nil {
		return nil, err
	}
	ms, err := scanRules(ctx, rs, payload)
	var se *core.ScanError
	if errors.As(err, &se) {
		// An ad-hoc pattern is no rule of the served set: its failure
		// names none, as a single-pattern scan's does.
		err = &core.ScanError{Rule: -1, Offset: se.Offset, Cause: se.Cause}
	}
	return ms, err
}

// isScanFailure reports whether err arose from scan execution (as
// opposed to pattern compilation).
func isScanFailure(err error) bool {
	var se *core.ScanError
	var ee *arch.ExecError
	return errors.As(err, &se) || errors.As(err, &ee) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
