// Package alveare is a software implementation of ALVEARE, the
// domain-specific framework for regular expressions of Carloni,
// Conficconi and Santambrogio (DAC 2024): regular expressions are
// compiled by a three-stage flow onto a 43-bit RE-tailored RISC-style
// ISA, and executed by a cycle-level model of the paper's speculative
// microarchitecture, optionally scaled out over multiple cores.
//
// Quick start:
//
//	prog, err := alveare.Compile(`([a-z0-9]+)@acme\.(com|org)`)
//	if err != nil { ... }
//	eng, err := alveare.NewEngine(prog, alveare.WithCores(4))
//	if err != nil { ... }
//	m, ok, err := eng.Find(data)        // leftmost match
//	ms, err := eng.FindAll(data)        // all non-overlapping matches
//	ms, err = eng.FindReader(r)         // stream an io.Reader, chunked
//	st := eng.Stats()                   // cycles, speculations, rollbacks
//
// Compiled programs can be disassembled (prog.Disassemble), serialised
// to the instruction-memory binary format (prog.MarshalBinary) and
// reloaded (UnmarshalBinary). Matching is byte-oriented and PCRE-like:
// leftmost-first semantics with greedy and lazy quantifiers; see the
// package documentation of internal/syntax for the accepted operator
// set (POSIX ERE and PCRE subsets, per the paper).
package alveare

import (
	"io"

	"alveare/internal/arch"
	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/ir"
	"alveare/internal/metrics"
)

// Program is a compiled, loadable ALVEARE executable.
type Program = core.Program

// Match is one pattern occurrence: the half-open interval [Start, End).
type Match = core.Match

// Stats are the microarchitecture's performance counters: cycles,
// instructions, speculations, rollbacks, scan and refill cycles.
type Stats = core.Stats

// Engine executes one compiled program over data streams.
type Engine = core.Engine

// Option configures NewEngine.
type Option = core.Option

// WithCores selects the multi-core scale-out width (1..perf.MaxCores in
// the paper's prototype; any positive count here).
func WithCores(n int) Option { return core.WithCores(n) }

// WithPrefilter enables the necessary-factor prefilter hint attached by
// the compiler (an extension beyond the paper's baseline design);
// results are identical, candidate scanning gets cheaper.
func WithPrefilter() Option { return core.WithPrefilter() }

// WithDFA enables the hybrid fast path: a lazy (on-the-fly
// determinised, RE2-style) DFA proves match absence in one linear pass
// before the precise speculative engine runs, and a RuleSet adds one
// cross-rule Aho–Corasick literal prefilter that dispatches only
// candidate rules per window. Match offsets are byte-identical to the
// slow path — the DFA only answers existence; on cache blowup the scan
// falls back to the exact engine. Off by default in the library, and
// there is no inverse option — leave WithDFA out to scan on the exact
// engine alone; the CLI tools and scan server turn it on unless -no-dfa
// is given.
func WithDFA() Option { return core.WithDFA() }

// WithDFACache bounds the lazy DFA's evictable state cache (default
// 4096 states). Tiny caches force clear-on-full flushes and, when the
// live working set still does not fit, a fallback to the exact engine.
// Values above MaxInt32 / (the rule's alphabet classes, at most 256) are
// clamped to it: the transition table is indexed by int32 offsets.
func WithDFACache(n int) Option { return core.WithDFACache(n) }

// FastStats are the hybrid fast path's counters: probe-gate outcomes,
// DFA cache behaviour, and rule-dispatch prefilter pass/skip counts.
type FastStats = core.FastStats

// WithApprox enables the over-approximating admission stage: a small
// deterministic automaton whose language provably contains every
// rule's screens each input unit (whole buffers, overlap windows,
// multi-core chunks) and a clean verdict skips all downstream work.
// The filter only ever proves absence — results are byte-identical
// with or without it; on state-budget blowup it degrades to admitting
// everything, still sound. Off by default in the library, with no
// inverse option — leave WithApprox out to scan unscreened; the CLI
// tools and scan server turn it on unless -no-approx is given.
func WithApprox() Option { return core.WithApprox() }

// WithApproxStates bounds the admission automaton's DFA state budget
// (default 256, also the maximum). Smaller budgets coarsen the filter
// — more windows admitted — but never change results.
func WithApproxStates(n int) Option { return core.WithApproxStates(n) }

// ApproxStats are the admission stage's counters: screening volume,
// admitted windows and exact-hit windows (their ratio is precision).
type ApproxStats = core.ApproxStats

// WithOverlap sets the chunk-boundary overlap in bytes for the
// multi-core divide and conquer and the streaming reader scan — for an
// Engine as for a RuleSet, whose pull-mode driver an Engine's reader
// scans run through. The overlap bounds the longest match the chunked
// disciplines report identically to a one-shot scan; longer matches are
// the scheme's documented blind spot.
func WithOverlap(n int) Option { return core.WithOverlap(n) }

// WithChunkSize sets the refill granularity of the streaming reader
// scan (FindReader, CountReader, ScanReader).
func WithChunkSize(n int) Option { return core.WithChunkSize(n) }

// WithWorkers bounds a RuleSet's rule-level scan concurrency; the
// default (0) is GOMAXPROCS.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// Policy selects how an Engine or RuleSet contains recoverable
// execution faults — a core tripping its cycle budget (ErrRunaway) or
// speculation-stack capacity (ErrStackOverflow) on adversarial input.
// Cancellation, deadline expiry and stream read failures always
// surface regardless of policy.
type Policy = core.Policy

// The failure policies, selected with WithPolicy.
const (
	// FailFast aborts the scan on the first fault (the default); the
	// returned *ScanError names the rule and the absolute byte offset.
	FailFast = core.FailFast
	// Degrade retries the faulting window on the safe linear-time
	// engine (a Pike VM — no speculation, guaranteed O(n)), keeping the
	// match output complete; Stats.Fallbacks counts the degradations.
	Degrade = core.Degrade
	// Skip drops the poisoned region or rule and continues; matches may
	// be missed where the fault hit.
	Skip = core.Skip
)

// WithPolicy selects the failure policy (default FailFast).
func WithPolicy(p Policy) Option { return core.WithPolicy(p) }

// WithMetrics enables the detailed observability counters — per-stage
// cycle attribution (fetch/decode/execute/aggregate), speculation
// pop/flush accounting, L1 hit/miss classification and per-compute-unit
// utilization. Off by default; the hot execution loop then pays only a
// nil check per sample site. Snapshots come from
// Engine.MetricsSnapshot / RuleSet.MetricsSnapshot.
func WithMetrics() Option { return core.WithMetrics() }

// Tracer observes execution trace events (instruction dispatch,
// speculation pushes, rollbacks, flushes, matches); see internal/arch
// for the event schema and arch.RingTracer for the ring-buffer capture
// behind the tools' Chrome-trace export.
type Tracer = arch.Tracer

// WithTracer installs a tracer on every core of the engine or rule set.
// Scale-out and pooled cores run concurrently, so the tracer must be
// safe for concurrent use (RingTracer over a shared Ring is).
func WithTracer(t Tracer) Option { return core.WithTracer(t) }

// Snapshot is a point-in-time copy of an observability registry,
// sorted by metric name and stamped with its schema version; WriteJSON
// and WriteText render it byte-deterministically.
type Snapshot = metrics.Snapshot

// Ring is a fixed-capacity wraparound event buffer, safe for
// concurrent appends — one instance can be shared by every core of a
// scale-out engine or rule-set pool.
type Ring = metrics.Ring

// NewRing returns a Ring holding the most recent n events.
func NewRing(n int) *Ring { return metrics.NewRing(n) }

// RingTracer adapts a Ring into a Tracer, capturing the execution
// timeline for WriteChromeTrace.
func RingTracer(r *Ring) Tracer { return arch.RingTracer(r) }

// WriteChromeTrace renders a captured ring as a Chrome trace-event
// JSON document, viewable at chrome://tracing or in Perfetto.
func WriteChromeTrace(w io.Writer, r *Ring) error { return arch.WriteChromeTrace(w, r) }

// WithBudget caps the speculative core's cycle budget per scan attempt
// (default 2^40, effectively unbounded). A tight budget makes
// pathological backtracking trip ErrRunaway quickly — the knob that
// gives Degrade and Skip something to contain; n <= 0 keeps the
// default.
func WithBudget(n int64) Option { return core.WithBudget(n) }

// ParsePolicy maps the command-line spellings "failfast", "degrade"
// and "skip" to a Policy.
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// ScanError is the structured failure every scan path reports: the
// failing rule (-1 for single-pattern engines), the absolute byte
// offset of the failure, and the cause. It is errors.Is/As-friendly:
// errors.Is(err, ErrRunaway) and errors.Is(err, context.Canceled) see
// through it.
type ScanError = core.ScanError

// Execution fault sentinels, for errors.Is classification.
var (
	// ErrRunaway is the speculative core's cycle-budget trip.
	ErrRunaway = core.ErrRunaway
	// ErrStackOverflow is the speculation-stack capacity fault.
	ErrStackOverflow = core.ErrStackOverflow
)

// Compile translates a regular expression into an ALVEARE executable
// with all advanced ISA primitives enabled (RANGE, NOT, counters,
// operation fusion).
func Compile(re string) (*Program, error) { return core.Compile(re) }

// CompileMinimal compiles with the paper's §7.1 baseline compiler —
// no advanced primitives, unfolded counters, no fusion — useful to
// reproduce the Table 2 comparison.
func CompileMinimal(re string) (*Program, error) {
	return core.CompileWith(re, backend.Minimal())
}

// CompilerOptions exposes the fine-grained compiler switches.
type CompilerOptions struct {
	// Minimal disables every advanced primitive (implies the rest).
	Minimal bool
	// NoRange unfolds RANGE primitives into OR alternations.
	NoRange bool
	// NoNot unfolds negated classes into positive complements.
	NoNot bool
	// NoCounters unfolds bounded quantifiers.
	NoCounters bool
	// NoFusion emits every closing operator as its own instruction.
	NoFusion bool
	// CaseInsensitive folds ASCII letter case during lowering.
	CaseInsensitive bool
}

func (o CompilerOptions) backend() backend.Options {
	return backend.Options{
		IR: ir.Options{
			Minimal:         o.Minimal,
			NoRange:         o.NoRange,
			NoNot:           o.NoNot,
			NoCounters:      o.NoCounters,
			CaseInsensitive: o.CaseInsensitive,
		},
		NoFusion: o.NoFusion,
	}
}

// CompileWith compiles with explicit compiler switches.
func CompileWith(re string, opt CompilerOptions) (*Program, error) {
	return core.CompileWith(re, opt.backend())
}

// RuleSet is a compiled multi-pattern database, the deployment unit of
// DPI-style workloads. A scan fans its input out over the rules on
// pooled per-rule lanes — on the caller's goroutine, joined by helpers
// (WithWorkers bounds the width) only for large inputs — and FirstMatch
// probes on borrowed lanes too, so one RuleSet serves concurrent callers
// of every method; each rule is compiled once and no per-rule Engine
// exists.
type RuleSet = core.RuleSet

// RuleMatches reports one rule's hits in a scanned stream.
type RuleMatches = core.RuleMatches

// NewRuleSet compiles a pattern database.
func NewRuleSet(patterns []string, copt CompilerOptions, opts ...Option) (*RuleSet, error) {
	return core.NewRuleSet(patterns, copt.backend(), opts...)
}

// NewEngine loads a compiled program into an execution engine.
func NewEngine(p *Program, opts ...Option) (*Engine, error) {
	return core.NewEngine(p, opts...)
}

// MustCompile is Compile that panics on error, for initialisation of
// package-level patterns (mirroring regexp.MustCompile).
func MustCompile(re string) *Program {
	p, err := Compile(re)
	if err != nil {
		panic("alveare: MustCompile(" + re + "): " + err.Error())
	}
	return p
}
