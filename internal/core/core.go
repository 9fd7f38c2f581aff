// Package core assembles the paper's primary contribution into one
// engine: the RE-tailored ISA (internal/isa), the three-stage
// compilation flow (internal/syntax, internal/ir, internal/backend) and
// the speculative microarchitecture (internal/arch), with the optional
// multi-core scale-out (internal/multicore).
//
// The root package alveare re-exports this API for library users; the
// internal packages remain importable by the benchmark harness and the
// command-line tools.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"

	"alveare/internal/approx"
	"alveare/internal/arch"
	"alveare/internal/automata"
	"alveare/internal/backend"
	"alveare/internal/isa"
	"alveare/internal/multicore"
	"alveare/internal/stream"
)

// Program is a compiled, loadable ALVEARE executable.
type Program = isa.Program

// Match is one pattern occurrence, [Start, End) in the data stream.
type Match = arch.Match

// Stats are the microarchitecture performance counters.
type Stats = arch.Stats

// Compile runs the full compilation flow (front-end, middle-end,
// back-end) with all advanced primitives enabled.
func Compile(re string) (*Program, error) {
	return backend.Compile(re, backend.Options{})
}

// CompileWith runs the compilation flow with explicit compiler options
// (minimal mode, ablation switches).
func CompileWith(re string, opt backend.Options) (*Program, error) {
	return backend.Compile(re, opt)
}

// Option configures an Engine.
type Option func(*settings)

type settings struct {
	cores        int
	overlap      int
	chunk        int
	workers      int
	policy       Policy
	cfg          arch.Config
	tracer       arch.Tracer
	dfa          bool
	dfaCache     int
	approx       bool
	approxStates int
}

// WithCores selects the scale-out width (default 1, the single core).
func WithCores(n int) Option {
	return func(s *settings) { s.cores = n }
}

// WithArchConfig overrides the microarchitecture parameters (compute
// units, data-memory window, speculation-stack depth, cycle budget).
func WithArchConfig(cfg arch.Config) Option {
	return func(s *settings) { s.cfg = cfg }
}

// WithOverlap sets the chunk-boundary overlap in bytes, for both the
// multi-core divide and conquer and the streaming reader scan. It
// bounds the longest match the chunked disciplines report identically
// to a one-shot scan (see internal/stream).
func WithOverlap(n int) Option {
	return func(s *settings) { s.overlap = n }
}

// WithChunkSize sets the refill granularity of the streaming reader
// scan (FindReader, CountReader, ScanReader); the default is
// stream.DefaultChunkSize.
func WithChunkSize(n int) Option {
	return func(s *settings) { s.chunk = n }
}

// WithWorkers bounds the rule-level scan concurrency of a RuleSet
// (default GOMAXPROCS). It has no effect on a single Engine.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithBudget caps the speculative core's cycle budget per scan attempt
// (default arch.DefaultConfig's effectively-unbounded 2^40). A tight
// budget turns pathological backtracking into ErrRunaway quickly,
// which is what makes Degrade and Skip bite; n <= 0 leaves the default.
func WithBudget(n int64) Option {
	return func(s *settings) {
		if n > 0 {
			s.cfg.MaxCycles = n
		}
	}
}

// WithPolicy selects the failure policy for recoverable execution
// faults — a core tripping its cycle budget (ErrRunaway) or
// speculation-stack capacity (ErrStackOverflow): FailFast (the
// default) aborts the scan with a *ScanError, Degrade retries the
// faulting window on the safe linear-time engine, Skip drops the
// poisoned region and continues. See Policy.
func WithPolicy(p Policy) Option {
	return func(s *settings) { s.policy = p }
}

// WithMetrics enables the detailed observability counters (per-stage
// cycle attribution, speculation pop/flush accounting, L1 hit/miss
// classification, per-compute-unit utilization). Off by default: the
// hot execution loop then pays only one nil check per sample site.
// Snapshots are published with PublishMetrics / MetricsSnapshot.
func WithMetrics() Option {
	return func(s *settings) { s.cfg.Metrics = true }
}

// WithTracer installs an execution tracer on every core of the engine
// (the single core and, with WithCores, each scale-out core — which run
// concurrently, so the tracer must be safe for concurrent use;
// arch.RingTracer over a shared ring is). For a RuleSet the tracer is
// also installed on every pooled scanning core.
func WithTracer(t arch.Tracer) Option {
	return func(s *settings) { s.tracer = t }
}

// WithPrefilter enables the compiler's necessary-factor hint: when the
// program opens with a complex operator, candidate start offsets are
// narrowed to the neighbourhoods of a required literal's occurrences.
// Results are unchanged; only cycles drop.
func WithPrefilter() Option {
	return func(s *settings) { s.cfg.EnablePrefilter = true }
}

// WithDFA enables the hybrid fast path: a lazy (on-the-fly
// determinised) DFA gates every probe — proving absence in one linear
// pass — before the precise speculative engine runs, and a RuleSet
// additionally builds one cross-rule Aho–Corasick literal prefilter
// that dispatches only candidate rules per input window. Match offsets
// are byte-identical to the slow path: the DFA only ever answers
// existence, the precise engine still produces every offset, and on
// cache blowup the scan falls back to the exact path (FastStats counts
// gate outcomes, cache behaviour and fallbacks). Patterns whose NFA
// exceeds the lazy-DFA bound silently run without the gate.
//
// Off by default at the library level; the CLI tools and the scan
// server enable it unless their -no-dfa flag is set.
func WithDFA() Option {
	return func(s *settings) { s.dfa = true }
}

// WithoutDFA disables the hybrid fast path (the library default),
// undoing an earlier WithDFA in the option list.
func WithoutDFA() Option {
	return func(s *settings) { s.dfa = false }
}

// WithDFACache bounds the lazy DFA's state cache (default
// automata.DefaultLazyCacheStates). Tiny caches force clear-on-full
// flushes and, when the live working set still does not fit, bail to
// the exact engine — the knob fault-injection tests use to exercise
// the fallback seam deterministically.
func WithDFACache(n int) Option {
	return func(s *settings) { s.dfaCache = n }
}

// WithApprox enables the over-approximating admission stage: a small
// deterministic automaton (internal/approx) whose language provably
// contains the pattern's (for a RuleSet, the union of every rule's)
// screens each input — whole buffers for one-shot scans, each overlap
// window for streaming scans, each chunk for multi-core runs — and a
// clean verdict skips all downstream work for that unit. The filter
// never decides matches, only absence, so results are byte-identical
// with or without it; when its state budget cannot hold even a
// truncated approximation it degrades to admitting everything (sound,
// reported via ApproxStats / the approx.* metrics).
//
// Off by default at the library level; the CLI tools and the scan
// server enable it unless their -no-approx flag is set.
func WithApprox() Option {
	return func(s *settings) { s.approx = true }
}

// WithoutApprox disables the admission stage (the library default),
// undoing an earlier WithApprox in the option list.
func WithoutApprox() Option {
	return func(s *settings) { s.approx = false }
}

// WithApproxStates bounds the admission automaton's DFA state budget
// (default approx.DefaultStates = 256, the maximum the byte-indexed
// table supports). Smaller budgets force deeper truncation — coarser
// filters that admit more — and at the limit degrade to admit-all;
// they never affect results, only precision.
func WithApproxStates(n int) Option {
	return func(s *settings) { s.approxStates = n }
}

// Engine executes one compiled RE over data streams, on a single core
// or on the scale-out configuration.
type Engine struct {
	prog   *Program
	single *arch.Core
	multi  *multicore.Engine
	stream stream.Config
	policy Policy
	safe   *safeVM
	// guard accumulates the engine-layer guardrail counters (Fallbacks,
	// CancelledScans); Stats() merges them with the core's counters. It
	// follows the engine's single-goroutine discipline.
	guard Stats
	// streamCtr accumulates reader-scan throughput (windows searched,
	// bytes consumed, matches emitted) across ScanReader calls.
	streamCtr stream.Counters

	// lazy/dfa are the hybrid fast path (WithDFA): the shareable
	// determinisation program and this engine's private gate instance.
	// Nil when the fast path is off or the pattern is unsupported.
	lazy    *automata.LazyProg
	dfa     *automata.LazyDFA
	fastCtr FastStats

	// admit is the over-approximating admission stage (WithApprox):
	// nil when off. approxCtr follows the engine's single-goroutine
	// discipline, like guard.
	admit     *approx.Filter
	approxCtr ApproxStats
}

// NewEngine loads a compiled program.
func NewEngine(p *Program, opts ...Option) (*Engine, error) {
	s := settings{cores: 1, cfg: arch.DefaultConfig()}
	for _, o := range opts {
		o(&s)
	}
	if s.cores < 1 {
		return nil, fmt.Errorf("core: %d cores", s.cores)
	}
	e := &Engine{
		prog:   p,
		stream: stream.Config{ChunkSize: s.chunk, Overlap: s.overlap},
		policy: s.policy,
		safe:   newSafeVM(p.Source),
	}
	single, err := arch.NewCore(p, s.cfg)
	if err != nil {
		return nil, err
	}
	e.single = single
	if s.tracer != nil {
		single.SetTracer(s.tracer)
	}
	if s.cores > 1 {
		multi, err := multicore.New(p, s.cores, s.cfg, s.overlap)
		if err != nil {
			return nil, err
		}
		if s.tracer != nil {
			multi.SetTracer(s.tracer)
		}
		e.multi = multi
	}
	if s.dfa && p.Source != "" {
		// Unsupported (oversized) patterns run without the gate: the
		// fast path is an optimisation, never a capability change.
		if lp, lerr := automata.CompileLazy(p.Source); lerr == nil {
			e.lazy = lp
			e.dfa = lp.NewDFA(s.dfaCache)
			if e.multi != nil {
				e.multi.EnableFastGate(lp, s.dfaCache)
			}
		}
	}
	if s.approx && p.Source != "" {
		f := approx.Build([]string{p.Source}, s.approxStates)
		if !f.AdmitAll() {
			// An admit-all filter screens nothing; leaving it out keeps
			// the scan loops free of dead per-window walks.
			e.admit = f
			if e.multi != nil {
				e.multi.EnableApproxScreen(f)
			}
		}
	}
	return e, nil
}

// ApproxEnabled reports whether the admission stage (WithApprox) is
// active on this engine — false when it was not requested or the
// filter degraded to admit-all at build time.
func (e *Engine) ApproxEnabled() bool { return e.admit != nil }

// ApproxFilter returns the engine's admission filter, nil when off.
func (e *Engine) ApproxFilter() *approx.Filter { return e.admit }

// ApproxStats reports the admission stage's accumulated counters,
// including chunk-level screening on multi-core engines.
func (e *Engine) ApproxStats() ApproxStats { return e.approxCtr }

// FastEnabled reports whether the hybrid fast path (WithDFA) is active
// on this engine — false when it was not requested or the pattern is
// unsupported by the lazy DFA.
func (e *Engine) FastEnabled() bool { return e.dfa != nil }

// FastStats reports the hybrid fast path's accumulated counters: gate
// outcomes, DFA cache behaviour, and (on multi-core engines) the
// per-chunk gates' cache counters. Zero when the fast path is off.
func (e *Engine) FastStats() FastStats {
	st := e.fastCtr
	if e.dfa != nil {
		st.addLazy(e.dfa.Stats())
	}
	if e.multi != nil {
		st.addLazy(e.multi.FastGateStats())
	}
	return st
}

// Program returns the loaded executable.
func (e *Engine) Program() *Program { return e.prog }

// Cores returns the scale-out width.
func (e *Engine) Cores() int {
	if e.multi != nil {
		return e.multi.Cores()
	}
	return 1
}

// guarded builds a policy-applying finder over the engine's single
// core, crediting fallbacks to the engine's guard counters. Each call
// returns a fresh finder so sticky degradation is scoped to one scan.
func (e *Engine) guarded() *guarded {
	return &guarded{
		core:       e.single,
		vm:         e.safe,
		policy:     e.policy,
		onFallback: func() { e.guard.Fallbacks++ },
	}
}

// finder builds the per-scan finder: the policy-applying guarded
// engine, wrapped by the lazy-DFA gate when the fast path is enabled.
// Gate stickiness (a cache bail disabling the gate) is scoped to one
// scan, like the guarded finder's sticky degradation.
func (e *Engine) finder() stream.Finder {
	g := e.guarded()
	if e.dfa == nil {
		return g
	}
	return &fastFinder{dfa: e.dfa, slow: g, st: &e.fastCtr}
}

// fail folds err into the ScanError taxonomy (rule -1: single-pattern
// engine) and maintains the cancellation counter. nil passes through.
func (e *Engine) fail(err error) error {
	if err == nil {
		return nil
	}
	if isCancel(err) {
		e.guard.CancelledScans++
	}
	return scanErrFor(-1, err)
}

// Find returns the leftmost match.
func (e *Engine) Find(data []byte) (Match, bool, error) {
	return e.FindCtx(context.Background(), data)
}

// FindCtx is Find with cooperative cancellation: the core polls ctx
// between match attempts and every few thousand simulated cycles.
func (e *Engine) FindCtx(ctx context.Context, data []byte) (m Match, ok bool, err error) {
	e.screened(data, func() bool {
		m, ok, err = e.finder().FindFromCtx(ctx, data, 0)
		return ok
	})
	return m, ok, e.fail(err)
}

// Match reports whether the pattern occurs in data.
func (e *Engine) Match(data []byte) (bool, error) {
	_, ok, err := e.Find(data)
	return ok, err
}

// MatchCtx is Match with cooperative cancellation.
func (e *Engine) MatchCtx(ctx context.Context, data []byte) (bool, error) {
	_, ok, err := e.FindCtx(ctx, data)
	return ok, err
}

// FindAll returns all non-overlapping matches. On a multi-core engine
// the stream is divided among the cores.
func (e *Engine) FindAll(data []byte) ([]Match, error) {
	return e.FindAllCtx(context.Background(), data)
}

// FindAllCtx is FindAll with cooperative cancellation and the failure
// policy applied: with Degrade, faulting regions are re-scanned on the
// safe linear-time engine; with Skip, they are dropped; with FailFast
// (the default) the first fault aborts the scan, returning the matches
// completed before it together with a *ScanError.
func (e *Engine) FindAllCtx(ctx context.Context, data []byte) ([]Match, error) {
	if e.multi != nil {
		// Multi-core runs screen chunk by chunk inside the scale-out
		// engine (EnableApproxScreen); runMultiCtx folds the per-chunk
		// admission counters back into approxCtr.
		res, err := e.runMultiCtx(ctx, data)
		return res.Matches, err
	}
	ms, _, err := e.findAllSingle(ctx, data)
	return ms, e.fail(err)
}

// findAllSingle runs the one-shot FindAll discipline on the single
// core behind the admission stage (admitted is false when it proved
// data clean): through the DFA gate when the fast path is on, straight
// through the resilient policy loop otherwise. Both paths apply the
// same failure policy (it lives in the guarded finder) and return
// byte-identical matches.
func (e *Engine) findAllSingle(ctx context.Context, data []byte) (ms []Match, admitted bool, err error) {
	admitted = e.screened(data, func() bool {
		if e.dfa != nil {
			ms, err = findAllWith(ctx, e.finder(), data, 0)
		} else {
			ms, err = resilientFindAll(ctx, e.single, e.safe, e.policy, data, func() { e.guard.Fallbacks++ })
		}
		return len(ms) > 0
	})
	return ms, admitted, err
}

// Count returns the number of non-overlapping matches.
func (e *Engine) Count(data []byte) (int, error) {
	return e.CountCtx(context.Background(), data)
}

// CountCtx is Count with cooperative cancellation.
func (e *Engine) CountCtx(ctx context.Context, data []byte) (int, error) {
	ms, err := e.FindAllCtx(ctx, data)
	return len(ms), err
}

// ScanReader scans r to EOF in chunks (WithChunkSize) with overlap
// carry-over (WithOverlap), calling emit for every match in stream
// order; only one window is buffered, so the input may be arbitrarily
// large. text aliases the window buffer and is valid only during the
// call. emit returning false stops the scan early without error.
//
// Results are byte-identical to FindAll over the whole input provided
// no match exceeds the overlap — longer matches are the chunking
// scheme's documented blind spot (see internal/stream). Reader scans
// run on the engine's single core regardless of WithCores: divide and
// conquer needs random access, a stream is consumed once.
func (e *Engine) ScanReader(r io.Reader, emit func(m Match, text []byte) bool) (int64, error) {
	return e.ScanReaderCtx(context.Background(), r, emit)
}

// ScanReaderCtx is ScanReader with cooperative cancellation (checked at
// every window boundary and inside each window's search) and the
// failure policy applied per window. A cancelled scan returns the bytes
// consumed so far together with a *ScanError wrapping ctx.Err().
func (e *Engine) ScanReaderCtx(ctx context.Context, r io.Reader, emit func(m Match, text []byte) bool) (int64, error) {
	cfg := e.stream
	if e.admit != nil {
		// Screen each overlap window; windows proven clean never reach
		// the finder.
		cfg.Screen = e.screened
	}
	sc := stream.ForFinder(e.finder(), cfg)
	sc.SetCounters(&e.streamCtr)
	n, err := sc.ScanCtx(ctx, r, stream.EmitFunc(emit))
	return n, e.fail(err)
}

// FindReader returns every match in the stream, reading r to EOF one
// window at a time (only the match list is buffered).
func (e *Engine) FindReader(r io.Reader) ([]Match, error) {
	return e.FindReaderCtx(context.Background(), r)
}

// FindReaderCtx is FindReader with cooperative cancellation.
func (e *Engine) FindReaderCtx(ctx context.Context, r io.Reader) ([]Match, error) {
	var out []Match
	_, err := e.ScanReaderCtx(ctx, r, func(m Match, _ []byte) bool {
		out = append(out, m)
		return true
	})
	return out, err
}

// CountReader returns the number of matches in the stream.
func (e *Engine) CountReader(r io.Reader) (int, error) {
	return e.CountReaderCtx(context.Background(), r)
}

// CountReaderCtx is CountReader with cooperative cancellation.
func (e *Engine) CountReaderCtx(ctx context.Context, r io.Reader) (int, error) {
	n := 0
	_, err := e.ScanReaderCtx(ctx, r, func(Match, []byte) bool { n++; return true })
	return n, err
}

// runMultiCtx executes the multi-core pass and contains chunk faults
// per the failure policy: recoverable faults (runaway, stack overflow)
// are re-scanned on the safe engine (Degrade) or reduced to the chunk's
// partial matches (Skip); cancellation and integrity faults propagate.
// Contained chunks stay listed in Result.Failed for observability even
// when the returned error is nil.
func (e *Engine) runMultiCtx(ctx context.Context, data []byte) (multicore.Result, error) {
	res, err := e.multi.RunCtx(ctx, data)
	if e.admit != nil {
		e.approxCtr.ScreenedWindows += int64(res.Chunks)
		e.approxCtr.ScreenedBytes += int64(len(data))
		e.approxCtr.AdmittedWindows += int64(res.Chunks - res.ApproxSkips)
		e.approxCtr.ExactHitWindows += int64(res.ApproxHits)
	}
	if err == nil {
		return res, nil
	}
	if e.policy == FailFast {
		return res, e.fail(err)
	}
	for _, f := range res.Failed {
		if !recoverable(f.Err) {
			return res, e.fail(fmt.Errorf("core %d: %w", f.Core, f.Err))
		}
	}
	for _, f := range res.Failed {
		if e.policy == Degrade && e.safe.available() {
			e.guard.Fallbacks++
			// Re-scan the whole extended window on the safe engine; the
			// ownership filter keeps the result set disjoint from the
			// neighbouring chunks exactly as it does for healthy cores.
			ms, ferr := findAllWith(ctx, e.safe, data[f.Chunk.Lo:f.Chunk.Ext], 0)
			res.Matches = append(res.Matches, stream.OwnMatches(ms, f.Chunk.Lo, f.Chunk.Hi)...)
			if ferr != nil {
				return res, e.fail(ferr)
			}
		} else {
			// Skip (or Degrade without a safe engine): keep what the core
			// completed before its fault.
			res.Matches = append(res.Matches, f.Partial...)
		}
	}
	sort.Slice(res.Matches, func(a, b int) bool { return res.Matches[a].Start < res.Matches[b].Start })
	return res, nil
}

// Run executes a full multi-core pass and returns the detailed result
// (wall cycles, per-core counters). On a single-core engine it wraps
// the core's counters in the same shape.
func (e *Engine) Run(data []byte) (multicore.Result, error) {
	return e.RunCtx(context.Background(), data)
}

// RunCtx is Run with cooperative cancellation and the failure policy
// applied (see FindAllCtx).
func (e *Engine) RunCtx(ctx context.Context, data []byte) (multicore.Result, error) {
	if e.multi != nil {
		return e.runMultiCtx(ctx, data)
	}
	e.single.ResetStats()
	ms, admitted, err := e.findAllSingle(ctx, data)
	if !admitted {
		return multicore.Result{Chunks: 1}, nil
	}
	st := e.single.Stats()
	res := multicore.Result{
		Matches:     ms,
		WallCycles:  st.Cycles,
		TotalCycles: st.Cycles,
		PerCore:     []arch.Stats{st},
		Chunks:      1,
	}
	return res, e.fail(err)
}

// Stats returns the single-core counters merged with the engine-layer
// guardrail counters (Fallbacks, CancelledScans); aggregate counters
// for multi-core runs come from Run's result.
func (e *Engine) Stats() Stats {
	st := e.single.Stats()
	st.Fallbacks += e.guard.Fallbacks
	st.CancelledScans += e.guard.CancelledScans
	return st
}

// StreamCounters reports the reader-scan throughput accumulated across
// ScanReader / FindReader / CountReader calls.
func (e *Engine) StreamCounters() stream.Counters { return e.streamCtr }

// ResetStats clears the single-core counters, the engine-layer guard
// counters, the stream throughput accumulators, and releases the core's
// references to the previous input (multi-core cores reset per Run).
func (e *Engine) ResetStats() {
	e.single.Reset()
	e.guard = Stats{}
	e.streamCtr = stream.Counters{}
	e.fastCtr = FastStats{}
	e.approxCtr = ApproxStats{}
	if e.dfa != nil {
		e.dfa.TakeStats()
	}
	if e.multi != nil {
		e.multi.TakeFastGateStats()
	}
}
