package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"alveare/internal/approx"
	"alveare/internal/arch"
	"alveare/internal/automata"
	"alveare/internal/backend"
	"alveare/internal/prefilter"
	"alveare/internal/stream"
)

// RuleSet is a compiled multi-pattern database — the deployment unit of
// deep-packet-inspection workloads, where hundreds of rules scan the
// same stream. Rules are dispatched to a bounded worker pool (the
// multi-core ALVEARE parallelises over data; a rule set parallelises
// over rules, as the paper's per-RE evaluation runs one RE per loaded
// core). Each rule is compiled once; scanning cores and gates are
// recycled through per-rule pools, so every method of a RuleSet is safe
// for concurrent calls from multiple goroutines.
type RuleSet struct {
	rules   []rule
	cfg     arch.Config
	workers int
	stream  stream.Config
	policy  Policy

	// pools hold per-rule scanning cores; a borrowed core is Reset, its
	// speculation-stack arenas surviving recycling (arch.Core.Reset). A
	// core whose scan panicked is abandoned, never pooled again.
	pools []sync.Pool

	// tracer, when set (WithTracer), is installed on every core borrowed
	// for a scan; pooled cores run concurrently, so it must be safe for
	// concurrent use.
	tracer arch.Tracer

	// Hybrid fast path (WithDFA): pooled gate instances of each rule's
	// lazy-DFA program, plus the cross-rule Aho–Corasick literal
	// dispatcher built from the compiled programs' prefilter hints. pf
	// is nil when the fast path is off or the literal trie was too
	// large — every rule then dispatches.
	useDFA   bool
	dfaCache int
	dfaPools []sync.Pool
	pf       *prefilter.Set
	bitsPool sync.Pool

	// admit is the admission stage (WithApprox): one over-approximating
	// automaton for the union of every rule, screening whole inputs
	// (ScanCtx, FirstMatchCtx) and whole windows (Stream) before the
	// prefilter and the rule fan-out. Nil when the stage is off; kept
	// even when the build degraded to admit-all so metrics can report
	// the degradation, but screening is skipped then (screening()).
	admit *approx.Filter

	mu         sync.Mutex   // guards the roll-ups below
	agg        arch.Stats   // aggregate across all rules and scans
	perRule    []arch.Stats // per-rule roll-up (index = rule)
	occ        []int64      // jobs completed per worker slot
	dispatched int64        // rule-scan jobs handed to the pool
	streamCtr  stream.Counters
	fast       FastStats   // fast-path roll-up across all rules and scans
	approxCtr  ApproxStats // admission-stage roll-up
}

// NewRuleSet compiles every pattern with the given compiler options
// into one rule each; scanning cores and gates are instantiated on
// demand into per-rule pools.
func NewRuleSet(patterns []string, copt backend.Options, opts ...Option) (*RuleSet, error) {
	s := settings{cores: 1, cfg: arch.DefaultConfig()}
	for _, o := range opts {
		o(&s)
	}
	n := len(patterns)
	rs := &RuleSet{
		rules:    make([]rule, n),
		cfg:      s.cfg,
		workers:  s.workers,
		stream:   stream.Config{ChunkSize: s.chunk, Overlap: s.overlap},
		policy:   s.policy,
		tracer:   s.tracer,
		pools:    make([]sync.Pool, n),
		useDFA:   s.dfa,
		dfaCache: s.dfaCache,
		perRule:  make([]arch.Stats, n),
	}
	for i, re := range patterns {
		p, err := CompileWith(re, copt)
		if err != nil {
			return nil, fmt.Errorf("core: rule %d %q: %w", i, re, err)
		}
		rs.rules[i] = newRule(p, s.dfa)
	}
	if s.dfa {
		rs.dfaPools = make([]sync.Pool, n)
		var lits []prefilter.Literal
		for i, r := range rs.rules {
			if h := r.prog.Hint; h != nil && len(h.Literal) >= 2 {
				lits = append(lits, prefilter.Literal{Rule: i, Bytes: h.Literal})
			}
		}
		// A trie past the node bound just disables cross-rule dispatch
		// (pf == nil dispatches everything); the DFA gates still apply.
		if pf, perr := prefilter.NewSet(n, lits); perr == nil {
			rs.pf = pf
		}
		rs.bitsPool.New = func() any { return prefilter.NewBits(n) }
	}
	if s.approx {
		rs.admit = approx.Build(patterns, s.approxStates)
	}
	return rs, nil
}

// ApproxEnabled reports whether the admission stage (WithApprox) is
// active on this rule set (true even when the filter degraded to
// admit-all — see ApproxFilter().AdmitAll()).
func (rs *RuleSet) ApproxEnabled() bool { return rs.admit != nil }

// ApproxFilter returns the rule set's admission filter, nil when off.
func (rs *RuleSet) ApproxFilter() *approx.Filter { return rs.admit }

// ApproxStats reports the admission stage's roll-up across all scans.
func (rs *RuleSet) ApproxStats() ApproxStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.approxCtr
}

// screening reports whether window screening actually runs: the stage
// is on and the filter discriminates (an admit-all filter would walk
// every byte to admit every window — pure waste).
func (rs *RuleSet) screening() bool {
	return rs.admit != nil && !rs.admit.AdmitAll()
}

// FastEnabled reports whether the hybrid fast path (WithDFA) is active
// on this rule set.
func (rs *RuleSet) FastEnabled() bool { return rs.useDFA }

// PrefilterEnabled reports whether the cross-rule Aho–Corasick literal
// dispatcher is active (it requires the fast path and a literal trie
// within bounds).
func (rs *RuleSet) PrefilterEnabled() bool { return rs.pf != nil }

// PrefilteredRules returns how many rules are gated by a necessary
// literal (the rest always dispatch).
func (rs *RuleSet) PrefilteredRules() int {
	if rs.pf == nil {
		return 0
	}
	return rs.pf.Filtered()
}

// FastStats reports the fast-path roll-up across all rules and scans:
// gate outcomes, DFA cache behaviour and prefilter dispatch counters.
func (rs *RuleSet) FastStats() FastStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.fast
}

// getDFA borrows rule i's pooled lazy-DFA gate, or nil when the rule
// has no gate (fast path off or unsupported pattern).
func (rs *RuleSet) getDFA(i int) *automata.LazyDFA {
	lazy := rs.rules[i].lazy
	if lazy == nil {
		return nil
	}
	if d, ok := rs.dfaPools[i].Get().(*automata.LazyDFA); ok && d != nil {
		return d
	}
	return lazy.NewDFA(rs.dfaCache)
}

// putDFA returns a borrowed gate, folding its cache counters and the
// scan's gate-outcome counters into the roll-up.
func (rs *RuleSet) putDFA(i int, d *automata.LazyDFA, fst *FastStats) {
	fst.addLazy(d.TakeStats())
	rs.mu.Lock()
	rs.fast.Add(*fst)
	rs.mu.Unlock()
	rs.dfaPools[i].Put(d)
}

// tiers runs the rule set's skip tiers over one unit of input, in their
// one order: the approx screen, tallied in as — a clean verdict proves
// no rule matches, admitted is false and nothing else runs — then the
// cross-rule prefilter's candidate mask (see candidates).
func (rs *RuleSet) tiers(data []byte, as *ApproxStats) (cand prefilter.Bits, admitted bool) {
	if rs.screening() && !screen(rs.admit, as, data) {
		return nil, false
	}
	return rs.candidates(data), true
}

// candidates runs the cross-rule prefilter over one input window,
// returning the candidate mask (recycle with putBits) or nil when
// every rule must dispatch.
func (rs *RuleSet) candidates(data []byte) prefilter.Bits {
	if rs.pf == nil {
		return nil
	}
	bits := rs.bitsPool.Get().(prefilter.Bits)
	rs.pf.Candidates(data, bits)
	return bits
}

func (rs *RuleSet) putBits(bits prefilter.Bits) {
	if bits != nil {
		rs.bitsPool.Put(bits)
	}
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Pattern returns the i-th rule's source.
func (rs *RuleSet) Pattern(i int) string { return rs.rules[i].prog.Source }

// Workers returns the scan concurrency bound (0 means GOMAXPROCS).
func (rs *RuleSet) Workers() int { return rs.workers }

// workerCount clamps the configured bound to the job count: a fan-out
// that dispatches nothing starts no worker.
func (rs *RuleSet) workerCount(jobs int) int {
	n := rs.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, jobs)
}

// getCore borrows the i-th rule's scanning core, reset for a new input,
// with the rule set's tracer (if any) installed.
func (rs *RuleSet) getCore(i int) (*arch.Core, error) {
	if c, ok := rs.pools[i].Get().(*arch.Core); ok && c != nil {
		c.Reset()
		c.SetTracer(rs.tracer)
		return c, nil
	}
	c, err := arch.NewCore(rs.rules[i].prog, rs.cfg)
	if err != nil {
		return nil, err
	}
	c.SetTracer(rs.tracer)
	return c, nil
}

// merge folds one fan-out's telemetry into the roll-ups under one lock:
// per[i] is each scanned rule's counters for this batch, occ[w] each
// worker slot's completed-job count, sent and skipped the rules the
// prefilter dispatched and withheld, and as the admission stage's tally
// for the unit. Window throughput (when the batch was one stream window
// of nr bytes) rides along so every early return inside the scan loops
// leaves the roll-ups consistent.
func (rs *RuleSet) merge(per []arch.Stats, occ []int64, sent, skipped int64, as ApproxStats, windows, nr int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := range per {
		rs.agg.Add(per[i])
		rs.perRule[i].Add(per[i])
	}
	for len(rs.occ) < len(occ) {
		rs.occ = append(rs.occ, 0)
	}
	for w, c := range occ {
		rs.occ[w] += c
	}
	rs.dispatched += sent
	if rs.useDFA {
		rs.fast.PrefilterPasses += sent
		rs.fast.PrefilterSkips += skipped
	}
	rs.approxCtr.Add(as)
	rs.streamCtr.Windows += windows
	rs.streamCtr.Bytes += nr
}

// noteCancel counts one scan aborted by its context.
func (rs *RuleSet) noteCancel() {
	rs.mu.Lock()
	rs.agg.CancelledScans++
	rs.mu.Unlock()
}

// RuleMatches reports one rule's hits in a scanned stream.
type RuleMatches struct {
	Rule    int
	Matches []Match
	// Err is the rule's own isolated failure (a *ScanError), set when
	// the Skip or Degrade policy contained a fault in this rule without
	// aborting the scan. Matches holds whatever the rule completed
	// before it died. Nil on a clean rule.
	Err error
}

// ruleResult is one rule's outcome in a fan-out.
type ruleResult struct {
	ms  []Match
	err error
}

// fanOut runs one unit of input — a whole Scan input or one stream
// window of nr new bytes — through rs's skip tiers (tiers: a rule whose
// necessary literal is absent cannot match and is never dispatched),
// the worker fan-out of the remaining rules through run, and the
// telemetry roll-up. Workers are sized from the jobs actually
// dispatched, so a unit whose every rule was withheld spawns nothing;
// it and a screened-out unit return nil.
//
// s is the caller's own state, handed back to its callbacks. retired
// (nil for none) marks rules that take no part; clean (nil when the
// caller keeps no per-rule position) is told each live rule a tier
// proved match-free in this unit. run is called on a worker, at most
// once per rule, with the slot for the rule's counters (a pointer: the
// workers' stacks are deep enough without 192-byte returns), and res[i]
// holds what it returned; emission from res in rule order is
// deterministic. Callers pass method expressions, not closures: a unit
// that dispatches nothing then allocates nothing.
func fanOut[S any](ctx context.Context, rs *RuleSet, s S, data []byte, windows, nr int64, retired []error,
	clean func(S, int), run func(S, context.Context, int, []byte, *arch.Stats) ([]Match, error)) []ruleResult {
	n := rs.Len()
	live := func(i int) bool { return retired == nil || retired[i] == nil }
	var as ApproxStats
	cand, admitted := rs.tiers(data, &as)
	if !admitted {
		for i := 0; i < n; i++ {
			if clean != nil && live(i) {
				clean(s, i)
			}
		}
		rs.merge(nil, nil, 0, 0, as, windows, nr)
		return nil
	}
	defer rs.putBits(cand)
	dispatch := func(i int) bool { return live(i) && (cand == nil || cand.Has(i)) }
	var sent, skipped int
	for i := 0; i < n; i++ {
		switch {
		case dispatch(i):
			sent++
		case live(i):
			skipped++
			if clean != nil {
				clean(s, i)
			}
		}
	}
	if sent == 0 {
		rs.merge(nil, nil, 0, int64(skipped), as, windows, nr)
		return nil
	}

	// Collect per rule so the caller's emission is deterministic.
	res := make([]ruleResult, n)
	per := make([]arch.Stats, n)
	occ := make([]int64, rs.workerCount(sent))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := range occ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				res[i].ms, res[i].err = run(s, ctx, i, data, &per[i])
				occ[w]++
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if dispatch(i) {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()

	for _, r := range res {
		if len(r.ms) > 0 {
			// An exact hit is credited to a screened unit only (the
			// admitted tally is 1 then, 0 with the stage off).
			as.ExactHitWindows = as.AdmittedWindows
			break
		}
	}
	rs.merge(per, occ, int64(sent), int64(skipped), as, windows, nr)
	return res
}

// withRule borrows rule i's scanning core — wrapped in the failure
// policy, sticky carrying a stream's degraded state in — and, when the
// rule has one, its lazy-DFA gate (nil otherwise), runs search through
// them, and returns both to their pools with the core's counters
// written to st and the gate's folded into the roll-ups. A panicking
// search is recovered into a *ScanError
// at offset from, so one faulty rule (or a corrupted pooled core)
// cannot take down the whole scan; the core is pooled again only on a
// normal return — a panicked core is abandoned. nowSticky reports
// whether the rule fell back to the safe engine.
func (rs *RuleSet) withRule(i int, from int64, sticky bool, st *arch.Stats, search func(g *guarded, gate *fastFinder) ([]Match, error)) (ms []Match, nowSticky bool, err error) {
	nowSticky = sticky
	defer func() {
		if r := recover(); r != nil {
			ms = nil
			err = &ScanError{Rule: i, Offset: from, Cause: fmt.Errorf("rule fault: %v", r)}
		}
	}()
	core, cerr := rs.getCore(i)
	if cerr != nil {
		return nil, sticky, scanErrFor(i, cerr)
	}
	// Fallbacks tally in the caller's slot, so no counter is allocated
	// per borrow; the core's own counters are folded over it below.
	st.Fallbacks = 0
	g := rs.rules[i].guarded(core, rs.policy, sticky, &st.Fallbacks)
	var serr error
	if dfa := rs.getDFA(i); dfa != nil {
		// Gate stickiness (a cache bail) is scoped to this borrow; the
		// next one retries the gate on a flushed cache.
		var fst FastStats
		ms, serr = search(g, &fastFinder{dfa: dfa, slow: g, st: &fst})
		rs.putDFA(i, dfa, &fst)
	} else {
		ms, serr = search(g, nil)
	}
	fallbacks := st.Fallbacks
	*st = core.Stats()
	st.Fallbacks += fallbacks
	rs.pools[i].Put(core)
	return ms, g.degraded, scanErrFor(i, serr)
}

// scanRule is ScanCtx's per-rule scan, run on a fanOut worker: the
// one-shot FindAll discipline over the whole input.
func (rs *RuleSet) scanRule(ctx context.Context, i int, data []byte, st *arch.Stats) ([]Match, error) {
	ms, _, err := rs.withRule(i, -1, false, st, func(g *guarded, gate *fastFinder) ([]Match, error) {
		return findAll(ctx, g, gate, data)
	})
	return ms, err
}

// Scan runs every rule over data on the worker pool and returns the
// hits of the rules that matched, in rule order. Per-rule counters are
// merged race-free into the aggregate reported by Stats.
func (rs *RuleSet) Scan(data []byte) ([]RuleMatches, error) {
	return rs.ScanCtx(context.Background(), data)
}

// ScanCtx is Scan with cooperative cancellation and per-rule fault
// isolation: a rule whose core faults (or panics) is recovered into a
// *ScanError without disturbing the other rules. Under FailFast the
// first rule failure is returned as the scan's error; under Degrade and
// Skip contained failures ride along in the result's per-rule Err slots
// and the returned error stays nil. Cancellation always aborts with the
// partial results collected so far.
func (rs *RuleSet) ScanCtx(ctx context.Context, data []byte) ([]RuleMatches, error) {
	if rs.Len() == 0 {
		return nil, nil
	}
	res := fanOut(ctx, rs, rs, data, 0, 0, nil, nil, (*RuleSet).scanRule)
	var scanErr error
	for _, r := range res {
		if isCancel(r.err) {
			scanErr = r.err
			rs.noteCancel()
			break
		}
		if r.err != nil && rs.policy == FailFast && scanErr == nil {
			scanErr = r.err
		}
	}
	var out []RuleMatches
	for i, r := range res {
		if isCancel(r.err) {
			r.err = nil // reported as the scan error, not a rule fault
		}
		if len(r.ms) > 0 || r.err != nil {
			out = append(out, RuleMatches{Rule: i, Matches: r.ms, Err: r.err})
		}
	}
	return out, scanErr
}

// ScanReader scans an unbounded stream against every rule: the input
// is consumed once, window by window (WithChunkSize / WithOverlap),
// and each window is dispatched to the worker pool — one resume
// position per rule, following the same one-shot-equivalent discipline
// as Engine.ScanReader. emit is called sequentially (never
// concurrently), windows in stream order and rules in rule order
// within a window; text aliases the window buffer and is valid only
// during the call. Returning false stops the scan. The byte count
// consumed from r is returned.
//
// Matches longer than the overlap are the chunking scheme's documented
// blind spot, exactly as for Engine.ScanReader.
func (rs *RuleSet) ScanReader(r io.Reader, emit func(rule int, m Match, text []byte) bool) (int64, error) {
	return rs.ScanReaderCtx(context.Background(), r, emit)
}

// ScanReaderCtx is ScanReader with cooperative cancellation (checked
// every window) and per-rule fault isolation: a rule whose core faults
// past what its policy can contain is retired from the scan — the
// remaining rules keep scanning the stream — and its *ScanError is
// joined into the error returned after the stream drains. Under
// FailFast the first rule failure aborts the whole scan immediately;
// cancellation always aborts, reporting the bytes consumed so far. A
// rule degraded to the safe engine (Degrade policy) stays on it for the
// remainder of the stream.
// The scan is stream.Window's pull loop over the same Stream state
// machine push-mode callers (the scan service's streaming sessions)
// use, so the two paths cannot diverge: each refill is one Stream
// window.
func (rs *RuleSet) ScanReaderCtx(ctx context.Context, r io.Reader, emit func(rule int, m Match, text []byte) bool) (int64, error) {
	chunk := rs.stream.ChunkSize
	if chunk <= 0 {
		chunk = stream.DefaultChunkSize
	}
	st := rs.NewStream(rs.stream.Overlap)
	err := st.win.Fill(ctx, r, chunk, func(nr int, final bool) (bool, error) {
		return st.window(ctx, nr, final, emit)
	})
	if re, ok := err.(*stream.ReadError); ok {
		// The loop's own failure (a window's is already a *ScanError
		// and, when cancelled, already counted).
		if isCancel(re) {
			rs.noteCancel()
		}
		err = scanErrFor(-1, re)
	}
	if err != nil {
		return st.Consumed(), err
	}
	return st.Consumed(), errors.Join(st.dead...)
}

// FirstMatch returns the lowest-numbered rule that occurs in data.
func (rs *RuleSet) FirstMatch(data []byte) (rule int, ok bool, err error) {
	return rs.FirstMatchCtx(context.Background(), data)
}

// FirstMatchCtx is FirstMatch with cooperative cancellation. Behind the
// same screen and candidate mask as a scan, rules are probed in order
// on the caller's goroutine, each on a borrowed core (so concurrent
// calls share nothing); under Degrade and Skip a faulting rule is
// passed over (its error is returned, joined, only when no later rule
// matches), under FailFast the first fault aborts the probe. The
// roll-ups count the caller as worker slot 0.
func (rs *RuleSet) FirstMatchCtx(ctx context.Context, data []byte) (rule int, ok bool, err error) {
	var as ApproxStats
	cand, admitted := rs.tiers(data, &as)
	if !admitted {
		rs.merge(nil, nil, 0, 0, as, 0, 0)
		return 0, false, nil
	}
	defer rs.putBits(cand)
	per := make([]arch.Stats, rs.Len())
	var probed, skipped int64
	defer func() { rs.merge(per, []int64{probed}, probed, skipped, as, 0, 0) }()
	var deferred []error
	for i := range rs.rules {
		if cand != nil && !cand.Has(i) {
			skipped++
			continue
		}
		probed++
		ms, _, rerr := rs.withRule(i, -1, false, &per[i], func(g *guarded, gate *fastFinder) ([]Match, error) {
			m, hit, err := probeFinder(g, gate).FindFromCtx(ctx, data, 0)
			if !hit {
				return nil, err
			}
			return []Match{m}, err
		})
		switch {
		case rerr == nil && len(ms) > 0:
			as.ExactHitWindows = as.AdmittedWindows
			return i, true, nil
		case rerr == nil:
		case isCancel(rerr):
			rs.noteCancel()
			return 0, false, rerr
		case rs.policy == FailFast:
			return 0, false, rerr
		default:
			deferred = append(deferred, rerr)
		}
	}
	return 0, false, errors.Join(deferred...)
}

// Stats returns the aggregate counters merged from every pooled core
// across all Scan and ScanReader calls so far.
func (rs *RuleSet) Stats() Stats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.agg
}

// RuleStats returns rule i's accumulated counters across all scans.
func (rs *RuleSet) RuleStats(i int) Stats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.perRule[i]
}

// WorkerOccupancy returns the number of rule-scan jobs each worker slot
// completed; the values sum to Dispatched. The slice is sized to the
// widest pool any scan used.
func (rs *RuleSet) WorkerOccupancy() []int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]int64(nil), rs.occ...)
}

// Dispatched returns the total number of rule-scan jobs handed to the
// worker pool (one per live rule per Scan call or stream window).
func (rs *RuleSet) Dispatched() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.dispatched
}

// StreamCounters reports the reader-scan throughput (windows, bytes,
// matches emitted) accumulated across ScanReader calls.
func (rs *RuleSet) StreamCounters() stream.Counters {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.streamCtr
}

// ResetStats clears the aggregate scan counters, the per-rule and
// worker-occupancy roll-ups, and the stream throughput accumulators.
func (rs *RuleSet) ResetStats() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.agg = arch.Stats{}
	rs.perRule = make([]arch.Stats, len(rs.rules))
	rs.occ = nil
	rs.dispatched = 0
	rs.streamCtr = stream.Counters{}
	rs.fast = FastStats{}
	rs.approxCtr = ApproxStats{}
}
