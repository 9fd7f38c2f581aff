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

// WithDFACache bounds the lazy DFA's state cache (default
// automata.DefaultLazyCacheStates). Tiny caches force clear-on-full
// flushes and, when the live working set still does not fit, bail to
// the exact engine — the knob fault-injection tests use to exercise
// the fallback seam deterministically. automata.LazyProg.NewDFA clamps
// n to [4, MaxInt32/NumClasses].
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

// WithApproxStates bounds the admission automaton's DFA state budget
// (default approx.DefaultStates = 256, the maximum the byte-indexed
// table supports). Smaller budgets force deeper truncation — coarser
// filters that admit more — and at the limit degrade to admit-all;
// they never affect results, only precision.
func WithApproxStates(n int) Option {
	return func(s *settings) { s.approxStates = n }
}

// rule is one compiled rule, everything scans of it share: the program
// image the cores load (its Source is the pattern), the safe engine the
// Degrade policy falls back to and, with the fast path on, the lazy-DFA
// program gates are instantiated from. An Engine holds one beside its
// private core and gate; a RuleSet holds one per rule beside its pools.
type rule struct {
	prog *Program
	safe *safeVM
	// lazy is nil when the fast path is off or the pattern is past the
	// lazy-DFA bound: the rule then runs ungated — the fast path is an
	// optimisation, never a capability change.
	lazy *automata.LazyProg
}

func newRule(p *Program, dfa bool) rule {
	r := rule{prog: p, safe: newSafeVM(p.Source)}
	if dfa && p.Source != "" {
		if lp, err := automata.CompileLazy(p.Source); err == nil {
			r.lazy = lp
		}
	}
	return r
}

// guarded wraps a core loaded with the rule in the failure policy.
// sticky carries a stream's degraded state in; each safe-engine
// engagement is counted in *fallbacks. A guarded finder serves one scan,
// so sticky degradation is scoped to it.
func (r *rule) guarded(core *arch.Core, policy Policy, sticky bool, fallbacks *int64) *guarded {
	return &guarded{core: core, vm: r.safe, policy: policy, degraded: sticky, fallbacks: fallbacks}
}

// Engine executes one compiled RE over data streams, on a single core
// or on the scale-out configuration.
type Engine struct {
	rule
	single *arch.Core
	multi  *multicore.Engine
	stream stream.Config
	policy Policy
	// guard accumulates the engine-layer guardrail counters (Fallbacks,
	// CancelledScans); Stats() merges them with the core's counters. It
	// follows the engine's single-goroutine discipline.
	guard Stats
	// streamCtr accumulates reader-scan throughput (windows searched,
	// bytes consumed, matches emitted) across ScanReader calls.
	streamCtr stream.Counters

	// dfa is the engine's private gate instance (WithDFA), nil when the
	// rule has no lazy-DFA program: it gates every probe of a
	// single-core scan and every chunk of a multi-core one.
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
		rule:   newRule(p, s.dfa),
		stream: stream.Config{ChunkSize: s.chunk, Overlap: s.overlap},
		policy: s.policy,
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
	if e.lazy != nil {
		e.dfa = e.lazy.NewDFA(s.dfaCache)
	}
	if s.approx && p.Source != "" {
		// An admit-all filter screens nothing; leaving it out keeps the
		// scan loops free of dead per-window walks.
		if f := approx.Build([]string{p.Source}, s.approxStates); !f.AdmitAll() {
			e.admit = f
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
// outcomes (one probe per gated chunk on multi-core runs) and DFA cache
// behaviour. Zero when the fast path is off.
func (e *Engine) FastStats() FastStats {
	st := e.fastCtr
	if e.dfa != nil {
		st.addLazy(e.dfa.Stats())
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

// finders builds the per-scan pair over the engine's single core: the
// policy-applying guarded finder and, when the fast path is on, the gate
// in front of it (nil otherwise). Sticky degradation and gate
// stickiness (a cache bail disabling the gate) are scoped to one scan.
func (e *Engine) finders() (*guarded, *fastFinder) {
	g := e.guarded(e.single, e.policy, false, &e.guard.Fallbacks)
	if e.dfa == nil {
		return g, nil
	}
	return g, &fastFinder{dfa: e.dfa, slow: g, st: &e.fastCtr}
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
		m, ok, err = probeFinder(e.finders()).FindFromCtx(ctx, data, 0)
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
		res, err := e.runMultiCtx(ctx, data)
		return res.Matches, err
	}
	ms, _, err := e.findAllSingle(ctx, data)
	return ms, e.fail(err)
}

// findAllSingle runs the one-shot FindAll discipline on the single
// core behind the admission stage (admitted is false when it proved
// data clean).
func (e *Engine) findAllSingle(ctx context.Context, data []byte) (ms []Match, admitted bool, err error) {
	admitted = e.screened(data, func() bool {
		g, gate := e.finders()
		ms, err = findAll(ctx, g, gate, data)
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
	sc := stream.ForFinder(probeFinder(e.finders()), cfg)
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
	// The cores run ungated — per-probe gating would move their
	// simulated cycles — so the skip tiers judge each chunk whole.
	_, gate := e.finders()
	res, err := e.multi.RunCtx(ctx, data, func(window []byte) bool {
		if e.admit != nil && !screen(e.admit, &e.approxCtr, window) {
			return false
		}
		if gate == nil {
			return true
		}
		// A gate bail or cancellation falls through: the core applies
		// its own ctx/fault handling, so error chains are identical to
		// the ungated path.
		absent, _ := gate.absent(ctx, window, 0)
		return !absent
	})
	if e.admit != nil {
		e.approxCtr.ExactHitWindows += int64(res.Hits)
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
}
