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
	"errors"
	"fmt"
	"io"
	"sort"

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
// program gates are instantiated from. A RuleSet holds one per rule
// beside its lane pools; an Engine is a RuleSet of one.
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

// Engine executes one compiled RE over data streams, on a single core
// or on the scale-out configuration. The single core is a one-rule,
// one-worker RuleSet — the paper loads one RE into one core, and a
// pattern is a rule set of one — so every single-core scan runs the
// rule set's own tier chain and roll-ups; only the multi-core divide
// and conquer (paper §6) is the Engine's own. Single-core scans are
// safe for concurrent use; a multi-core engine's FindAll, Count and Run
// are not.
type Engine struct {
	rs    *RuleSet
	multi *multicore.Engine
}

// NewEngine loads a compiled program — from Compile, or CompileWith's
// minimal or ablation options.
func NewEngine(p *Program, opts ...Option) (*Engine, error) {
	s := newSettings(opts)
	if s.cores < 1 {
		return nil, fmt.Errorf("core: %d cores", s.cores)
	}
	// No source, no language to over-approximate.
	s.approx = s.approx && p.Source != ""
	s.workers = 1
	e := &Engine{rs: buildRuleSet([]*Program{p}, s, false)}
	// Load the single core now: a program or configuration the core
	// rejects fails here, not on the first scan.
	ln, err := e.rs.newLane(0)
	if err != nil {
		return nil, err
	}
	e.rs.lanes[0].Put(ln)
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
	return e, nil
}

// ApproxEnabled reports whether the admission stage (WithApprox) is
// active on this engine — false when it was not requested or the
// filter degraded to admit-all at build time.
func (e *Engine) ApproxEnabled() bool { return e.rs.screening() }

// ApproxStats reports the admission stage's accumulated counters,
// including chunk-level screening on multi-core engines.
func (e *Engine) ApproxStats() ApproxStats { return e.rs.ApproxStats() }

// FastEnabled reports whether the hybrid fast path (WithDFA) is active
// on this engine — false when it was not requested or the pattern is
// unsupported by the lazy DFA.
func (e *Engine) FastEnabled() bool { return e.rs.rules[0].lazy != nil }

// FastStats reports the hybrid fast path's accumulated counters: gate
// outcomes (one probe per gated chunk on multi-core runs) and DFA cache
// behaviour. Zero when the fast path is off.
func (e *Engine) FastStats() FastStats {
	st := e.rs.FastStats()
	// A rule set of one has no cross-rule dispatch to report.
	st.PrefilterPasses, st.PrefilterSkips = 0, 0
	return st
}

// Program returns the loaded executable.
func (e *Engine) Program() *Program { return e.rs.rules[0].prog }

// Cores returns the scale-out width.
func (e *Engine) Cores() int {
	if e.multi != nil {
		return e.multi.Cores()
	}
	return 1
}

// engineErr maps the rule set's error onto the single-pattern taxonomy: a
// *ScanError with rule -1. A fault the policy contained, which the rule
// set joins, is unwrapped from its join.
func engineErr(err error) error {
	var se *ScanError
	if errors.As(err, &se) && se.Rule == 0 {
		return &ScanError{Rule: -1, Offset: se.Offset, Cause: se.Cause}
	}
	return scanErrFor(-1, err)
}

// Find returns the leftmost match.
func (e *Engine) Find(data []byte) (Match, bool, error) {
	return e.FindCtx(context.Background(), data)
}

// FindCtx is Find with cooperative cancellation: the core polls ctx
// between match attempts and every few thousand simulated cycles.
func (e *Engine) FindCtx(ctx context.Context, data []byte) (Match, bool, error) {
	_, m, ok, err := e.rs.firstMatch(ctx, data)
	return m, ok, engineErr(err)
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
	ms, _, _, err := e.scan(ctx, data)
	return ms, err
}

// scan is the single core's one-shot pass: ScanCtx's unit over the one
// rule — the rule set's tiers, lane and roll-ups — read straight from
// the unit, with the pass's own counters. admitted is false when a tier
// screened data out.
func (e *Engine) scan(ctx context.Context, data []byte) (ms []Match, st arch.Stats, admitted bool, err error) {
	rs := e.rs
	u := fanOut(ctx, rs, rs, data, 0, 0, nil, nil, (*RuleSet).scanRule)
	if u == nil {
		return nil, st, false, nil
	}
	ms, st, err = u.res[0].ms, u.per[0], u.res[0].err
	rs.release(u)
	if isCancel(err) {
		rs.noteCancel()
	}
	return ms, st, true, engineErr(err)
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
// The scan is RuleSet.ScanReaderCtx over the engine's one rule — the
// one pull-mode driver — and its results are that driver's. Reader
// scans run on the engine's single core regardless of WithCores: divide
// and conquer needs random access, a stream is consumed once.
func (e *Engine) ScanReader(r io.Reader, emit func(m Match, text []byte) bool) (int64, error) {
	return e.ScanReaderCtx(context.Background(), r, emit)
}

// ScanReaderCtx is ScanReader with cooperative cancellation (checked at
// every window boundary and inside each window's search) and the
// failure policy applied per window. A cancelled scan returns the bytes
// consumed so far together with a *ScanError wrapping ctx.Err().
func (e *Engine) ScanReaderCtx(ctx context.Context, r io.Reader, emit func(m Match, text []byte) bool) (int64, error) {
	n, err := e.rs.ScanReaderCtx(ctx, r, func(_ int, m Match, text []byte) bool { return emit(m, text) })
	return n, engineErr(err)
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

// runMultiCtx executes the multi-core pass. The cores run ungated —
// per-probe gating would move their simulated cycles — so the rule
// set's skip tiers judge each chunk whole: its screen, then a borrowed
// lane's gate. The pass's tier tallies and guard counters fold into
// the rule set's roll-ups, as a scan's do.
func (e *Engine) runMultiCtx(ctx context.Context, data []byte) (multicore.Result, error) {
	rs := e.rs
	var (
		st  arch.Stats // the idle lane core's: only the guard counters move
		fst FastStats
		as  ApproxStats
	)
	ln, err := rs.borrow(0, false, &st, &fst)
	if err != nil {
		return multicore.Result{}, engineErr(err)
	}
	res, err := e.multi.RunCtx(ctx, data, func(window []byte) bool {
		if rs.screening() && !screen(rs.admit, &as, window) {
			return false
		}
		if ln.gate == nil {
			return true
		}
		// A gate bail or cancellation falls through: the core applies
		// its own ctx/fault handling, so error chains are identical to
		// the ungated path.
		absent, _ := ln.gate.absent(ctx, window, 0)
		return !absent
	})
	rs.giveBack(0, ln, &st, &fst)
	if rs.screening() {
		as.ExactHitWindows += int64(res.Hits)
	}
	if err = e.contain(ctx, data, &res, err, &st.Fallbacks); isCancel(err) {
		st.CancelledScans++
	}
	rs.mu.Lock()
	rs.agg.Add(st)
	rs.fast.Add(fst)
	rs.approxCtr.Add(as)
	rs.mu.Unlock()
	return res, engineErr(err)
}

// contain applies the failure policy to a multi-core pass's chunk
// faults: recoverable ones (runaway, stack overflow) are re-scanned on
// the safe engine (Degrade, counted in *fallbacks) or reduced to the
// chunk's partial matches (Skip); cancellation and integrity faults
// propagate. Contained chunks stay listed in Result.Failed for
// observability even when the returned error is nil.
func (e *Engine) contain(ctx context.Context, data []byte, res *multicore.Result, err error, fallbacks *int64) error {
	if err == nil || e.rs.policy == FailFast {
		return err
	}
	for _, f := range res.Failed {
		if !recoverable(f.Err) {
			return fmt.Errorf("core %d: %w", f.Core, f.Err)
		}
	}
	safe := e.rs.rules[0].safe
	for _, f := range res.Failed {
		if e.rs.policy == Degrade && safe.available() {
			*fallbacks++
			// Re-scan the whole extended window on the safe engine; the
			// ownership filter keeps the result set disjoint from the
			// neighbouring chunks exactly as it does for healthy cores.
			ms, ferr := findAllWith(ctx, safe, data[f.Chunk.Lo:f.Chunk.Ext], 0)
			res.Matches = append(res.Matches, stream.OwnMatches(ms, f.Chunk.Lo, f.Chunk.Hi)...)
			if ferr != nil {
				return ferr
			}
		} else {
			// Skip (or Degrade without a safe engine): keep what the core
			// completed before its fault.
			res.Matches = append(res.Matches, f.Partial...)
		}
	}
	sort.Slice(res.Matches, func(a, b int) bool { return res.Matches[a].Start < res.Matches[b].Start })
	return nil
}

// Run executes a full multi-core pass and returns the detailed result
// (wall cycles, per-core counters). On a single-core engine it wraps
// the core's counters for this pass in the same shape.
func (e *Engine) Run(data []byte) (multicore.Result, error) {
	return e.RunCtx(context.Background(), data)
}

// RunCtx is Run with cooperative cancellation and the failure policy
// applied (see FindAllCtx).
func (e *Engine) RunCtx(ctx context.Context, data []byte) (multicore.Result, error) {
	if e.multi != nil {
		return e.runMultiCtx(ctx, data)
	}
	ms, st, admitted, err := e.scan(ctx, data)
	if !admitted {
		return multicore.Result{Chunks: 1}, nil
	}
	return multicore.Result{Matches: ms, WallCycles: st.Cycles, TotalCycles: st.Cycles,
		PerCore: []arch.Stats{st}, Chunks: 1}, err
}

// Stats returns the single core's counters accumulated across scans,
// with the guardrail counters (Fallbacks, CancelledScans) of every
// path; per-run counters of multi-core runs come from Run's result.
func (e *Engine) Stats() Stats { return e.rs.Stats() }

// StreamCounters reports the reader-scan throughput accumulated across
// ScanReader / FindReader / CountReader calls.
func (e *Engine) StreamCounters() stream.Counters { return e.rs.StreamCounters() }

// ResetStats clears the single-core counters, the guard counters, the
// stream throughput accumulators and the skip tiers' roll-ups
// (multi-core cores reset per Run).
func (e *Engine) ResetStats() { e.rs.ResetStats() }
