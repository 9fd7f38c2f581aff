package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"alveare/internal/approx"
	"alveare/internal/arch"
	"alveare/internal/backend"
	"alveare/internal/prefilter"
	"alveare/internal/stream"
)

// RuleSet is a compiled multi-pattern database — the deployment unit of
// deep-packet-inspection workloads, where hundreds of rules scan the
// same stream. A unit of input fans out over its rules (the multi-core
// ALVEARE parallelises over data; a rule set parallelises over rules, as
// the paper's per-RE evaluation runs one RE per loaded core), on the
// caller's goroutine and, for large units, a bounded number of helpers.
// Each rule is compiled once and loaded into pooled lanes that are
// reused in place, as the paper loads an RE into a core once and streams
// data through it; every method of a RuleSet is safe for concurrent
// calls from multiple goroutines.
type RuleSet struct {
	rules   []rule
	cfg     arch.Config
	workers int
	stream  stream.Config
	policy  Policy

	// lanes holds, per rule, the loaded scanners a job borrows (*lane); a
	// lane whose scan panicked is abandoned, never pooled again. units
	// holds the scratch a unit of input fans out in (*unit). Both pool
	// pointers, so a borrow boxes nothing.
	lanes []sync.Pool
	units sync.Pool

	// tracer, when set (WithTracer), is installed on every lane's core;
	// lanes run concurrently, so it must be safe for concurrent use.
	tracer arch.Tracer

	// Hybrid fast path (WithDFA): each lane carries a gate instance of its
	// rule's lazy-DFA program, and pf is the cross-rule Aho–Corasick
	// literal dispatcher built from the compiled programs' prefilter
	// hints — nil when the fast path is off or the literal trie was too
	// large; every rule then dispatches.
	useDFA   bool
	dfaCache int
	pf       *prefilter.Set

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
	dispatched int64        // rule-scan jobs run
	streamCtr  stream.Counters
	fast       FastStats   // fast-path roll-up across all rules and scans
	approxCtr  ApproxStats // admission-stage roll-up
}

// NewRuleSet compiles every pattern with the given compiler options
// into one rule each; lanes are instantiated on demand into per-rule
// pools.
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
		lanes:    make([]sync.Pool, n),
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

// lane is one rule loaded and ready to scan — what a rule-scan job
// borrows, in one piece: a core wrapped in the failure policy and, when
// the rule has a lazy-DFA program, its gate in front (nil otherwise).
// Both finders are reused in place; borrow re-arms them for the job.
type lane struct {
	g    guarded
	gate *fastFinder
}

// borrow takes rule i's lane from its pool (loading a new one when the
// pool is empty), reset for a new input. sticky carries a stream's
// degraded state in; the job's counters go to st — zeroed here, so a
// job that dies early leaves nothing stale — and its gate's to fst.
func (rs *RuleSet) borrow(i int, sticky bool, st *arch.Stats, fst *FastStats) (*lane, error) {
	*st = arch.Stats{}
	ln, _ := rs.lanes[i].Get().(*lane)
	if ln != nil {
		ln.g.core.Reset()
	} else {
		r := &rs.rules[i]
		core, err := arch.NewCore(r.prog, rs.cfg)
		if err != nil {
			return nil, scanErrFor(i, err)
		}
		core.SetTracer(rs.tracer)
		ln = &lane{g: guarded{core: core, vm: r.safe, policy: rs.policy}}
		if r.lazy != nil {
			ln.gate = &fastFinder{dfa: r.lazy.NewDFA(rs.dfaCache), slow: &ln.g}
		}
	}
	// Sticky degradation and gate stickiness (a cache bail) are scoped to
	// this borrow; the next one retries the gate on a flushed cache.
	ln.g.degraded, ln.g.fallbacks = sticky, &st.Fallbacks
	if ln.gate != nil {
		ln.gate.dead, ln.gate.st = false, fst
	}
	return ln, nil
}

// giveBack pools a lane again after a job that returned normally (a
// panicked lane never gets here: it is abandoned), leaving the core's
// counters in st and the gate's cache counters in fst, and reports
// whether the rule fell back to the safe engine.
func (rs *RuleSet) giveBack(i int, ln *lane, st *arch.Stats, fst *FastStats) (nowSticky bool) {
	if ln.gate != nil {
		fst.addLazy(ln.gate.dfa.TakeStats())
	}
	fallbacks := st.Fallbacks
	*st = ln.g.core.Stats()
	st.Fallbacks += fallbacks
	nowSticky = ln.g.degraded
	// An idle lane points into no unit: a stale one could only fault.
	ln.g.fallbacks = nil
	if ln.gate != nil {
		ln.gate.st = nil
	}
	rs.lanes[i].Put(ln) // the lane is another job's from here on
	return nowSticky
}

// recoverRule, deferred by a rule-scan job, turns a panic into the
// rule's own *ScanError at offset from, so one faulty rule (or a
// corrupted lane) cannot take down the whole scan.
func recoverRule(i int, from int64, err *error) {
	if r := recover(); r != nil {
		*err = &ScanError{Rule: i, Offset: from, Cause: fmt.Errorf("rule fault: %v", r)}
	}
}

// ruleResult is one rule's outcome in a fan-out.
type ruleResult struct {
	ms  []Match
	err error
}

// slot is one worker's tally for a unit: the jobs it completed and its
// gates' outcome and cache counters.
type slot struct {
	jobs int64
	fast FastStats
}

// unit is the scratch one admitted unit of input — a one-shot input or a
// stream window — fans out in, borrowed from the rule set's pool: nothing
// in it is allocated per unit. It is idle between release and the next
// tiers call, and all zero then but for its capacity.
type unit struct {
	res   []ruleResult   // per rule, written by the worker that ran it
	per   []arch.Stats   // per rule: the job's counters
	mask  prefilter.Bits // candidate mask
	list  []int32        // rules dispatched, ascending
	slots []slot         // per worker in use (cap: the widest the unit goes); slot 0 is the caller's
	next  atomic.Int32   // cursor into list: the next job to claim
	wg    sync.WaitGroup // the unit's helpers
}

// release makes u idle once its results are emitted. The match slices
// belong to the caller by then; they are dropped here, never recycled.
func (rs *RuleSet) release(u *unit) {
	for _, i := range u.list {
		u.res[i] = ruleResult{}
	}
	u.list = u.list[:0]
	u.next.Store(0)
	clear(u.slots)
	u.slots = u.slots[:1]
	rs.units.Put(u)
}

// tiers runs the rule set's skip tiers over one unit of input, in their
// one order: the approx screen, tallied in as — a clean verdict proves
// no rule matches, u is nil and nothing else runs, nor is anything
// allocated — then the cross-rule prefilter's candidate mask into the
// unit the admitted input fans out in (cand is nil when every rule must
// dispatch). The caller releases u.
func (rs *RuleSet) tiers(data []byte, as *ApproxStats) (u *unit, cand prefilter.Bits) {
	if rs.screening() && !screen(rs.admit, as, data) {
		return nil, nil
	}
	if u, _ = rs.units.Get().(*unit); u == nil {
		n := rs.Len()
		u = &unit{res: make([]ruleResult, n), per: make([]arch.Stats, n), mask: prefilter.NewBits(n),
			list: make([]int32, 0, n), slots: make([]slot, 1, max(rs.workerCount(n), 1))}
	}
	if rs.pf != nil {
		rs.pf.Candidates(data, u.mask)
		cand = u.mask
	}
	return u, cand
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

// merge folds one unit's telemetry into the roll-ups under the unit's
// one lock acquisition: u (nil when nothing was dispatched) holds each
// dispatched rule's counters and each worker slot's jobs and gate
// tallies, skipped is the rules the prefilter withheld, and as the
// admission stage's tally for the unit. Window throughput (when the unit
// was one stream window of nr bytes) rides along so every early return
// inside the scan loops leaves the roll-ups consistent — and a metrics
// snapshot, taken under the same lock, sees whole units only.
func (rs *RuleSet) merge(u *unit, skipped int64, as ApproxStats, windows, nr int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if u != nil {
		for _, i := range u.list {
			rs.agg.Add(u.per[i])
			rs.perRule[i].Add(u.per[i])
		}
		for len(rs.occ) < len(u.slots) {
			rs.occ = append(rs.occ, 0)
		}
		for w := range u.slots {
			rs.occ[w] += u.slots[w].jobs
			rs.fast.Add(u.slots[w].fast)
		}
		rs.dispatched += int64(len(u.list))
		if rs.useDFA {
			rs.fast.PrefilterPasses += int64(len(u.list))
		}
	}
	if rs.useDFA {
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

// spawnAbove is the size of a unit — candidate rules × bytes — at which
// its fan-out starts helpers; below it the caller's goroutine runs every
// job. It is set from measurement, not a model (one caller, twenty
// PowerEN rules, two vCPUs of a shared host, helpers never against
// helpers always): a job costs ≈ 4 ns per byte, so two workers could
// save up to 2 ns per candidate·byte, and a helper's start-and-join (the
// go statement, waking a parked P through the kernel, the caller's park
// and wake-up in Wait) took back 5 µs at best and over 100 µs at worst.
// At 20 KiB the two tied, at 40 KiB wide lost four runs of six by up to
// 80 %, at 60 KiB it won four of six, and from 80 KiB it won every run
// (17 % there, 1.6× at 120 KiB, 1.9× at 20 MiB). 64 KiB is the first
// power of two past the coin-toss band: twenty rules over a 256 B record
// (5 KiB) run inline, twenty over a 4 KiB payload (80 KiB) run wide. It
// cannot see load: with several callers already keeping both vCPUs busy
// (a server's 80 KiB units) helpers neither gained nor lost.
const spawnAbove = 64 << 10

// ruleRun is a fan-out's per-rule job: the caller's state, the rule, the
// unit's bytes, and the slots for the rule's counters and the worker's
// gate tally.
type ruleRun[S any] func(S, context.Context, int, []byte, *arch.Stats, *FastStats) ([]Match, error)

// fanOut runs one unit of input — a whole Scan input or one stream
// window of nr new bytes — through rs's skip tiers (tiers: a rule whose
// necessary literal is absent cannot match and is never dispatched),
// the fan-out of the remaining rules through run, and the telemetry
// roll-up. It returns the unit holding the results — res[i] for each
// rule i in list, ascending, so emission is deterministic — for the
// caller to emit from and release, or nil when the unit was screened
// out or dispatched nothing.
//
// The caller's goroutine is worker slot 0 and claims jobs from the list
// like any other; helpers join it only when there are jobs to share,
// more than one worker configured and the unit is past spawnAbove, so a
// small unit neither spawns nor allocates.
//
// s is the caller's own state, handed back to its callbacks. retired
// (nil for none) marks rules that take no part; clean (nil when the
// caller keeps no per-rule position) is told each live rule a tier
// proved match-free in this unit. run is called on a worker, at most
// once per rule. Callers pass method expressions, not closures, and
// nothing below is a closure either: a unit that stops at a tier
// allocates nothing.
func fanOut[S any](ctx context.Context, rs *RuleSet, s S, data []byte, windows, nr int64, retired []error,
	clean func(S, int), run ruleRun[S]) *unit {
	var as ApproxStats
	u, cand := rs.tiers(data, &as)
	var skipped int64
	for i := range rs.rules {
		switch {
		case retired != nil && retired[i] != nil:
		case u != nil && (cand == nil || cand.Has(i)):
			u.list = append(u.list, int32(i))
		default: // a tier proved the rule match-free in this unit
			if u != nil {
				skipped++ // by the prefilter: the rule was withheld
			}
			if clean != nil {
				clean(s, i)
			}
		}
	}
	if u == nil || len(u.list) == 0 {
		rs.merge(nil, skipped, as, windows, nr)
		if u != nil {
			rs.release(u)
		}
		return nil
	}

	if len(u.list) >= 2 && len(u.list)*len(data) >= spawnAbove {
		u.slots = u.slots[:min(rs.workerCount(len(u.list)), cap(u.slots))]
	}
	u.wg.Add(len(u.slots) - 1)
	for w := 1; w < len(u.slots); w++ {
		go work(ctx, u, w, s, data, run)
	}
	work(ctx, u, 0, s, data, run)
	u.wg.Wait()

	for _, i := range u.list {
		if len(u.res[i].ms) > 0 {
			// An exact hit is credited to a screened unit only (the
			// admitted tally is 1 then, 0 with the stage off).
			as.ExactHitWindows = as.AdmittedWindows
			break
		}
	}
	rs.merge(u, skipped, as, windows, nr)
	return u
}

// work is worker slot w of a unit's fan-out — slot 0 on the caller's
// goroutine, a helper on its own, joined through the unit: it claims
// jobs off the list until none is left, writing only the claimed rules'
// slots and its own.
func work[S any](ctx context.Context, u *unit, w int, s S, data []byte, run ruleRun[S]) {
	if w > 0 {
		defer u.wg.Done()
	}
	for {
		k := int(u.next.Add(1)) - 1
		if k >= len(u.list) {
			return
		}
		i := int(u.list[k])
		u.res[i].ms, u.res[i].err = run(s, ctx, i, data, &u.per[i], &u.slots[w].fast)
		u.slots[w].jobs++
	}
}

// scanRule is ScanCtx's per-rule job: the one-shot FindAll discipline
// over the whole input, on a borrowed lane.
func (rs *RuleSet) scanRule(ctx context.Context, i int, data []byte, st *arch.Stats, fst *FastStats) (ms []Match, err error) {
	defer recoverRule(i, -1, &err)
	ln, err := rs.borrow(i, false, st, fst)
	if err != nil {
		return nil, err
	}
	ms, err = findAll(ctx, &ln.g, ln.gate, data)
	rs.giveBack(i, ln, st, fst)
	return ms, scanErrFor(i, err)
}

// Scan fans data out over every rule (fanOut) and returns the
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
	u := fanOut(ctx, rs, rs, data, 0, 0, nil, nil, (*RuleSet).scanRule)
	if u == nil {
		return nil, nil
	}
	defer rs.release(u)
	var cancelled, fault error
	var out []RuleMatches
	for k, i := range u.list {
		r := u.res[i]
		if isCancel(r.err) {
			if cancelled == nil {
				cancelled = r.err
			}
			r.err = nil // reported as the scan error, not a rule fault
		} else if fault == nil && rs.policy == FailFast {
			fault = r.err
		}
		if len(r.ms) > 0 || r.err != nil {
			if out == nil {
				out = make([]RuleMatches, 0, len(u.list)-k) // one allocation, not a growth series
			}
			out = append(out, RuleMatches{Rule: int(i), Matches: r.ms, Err: r.err})
		}
	}
	if cancelled != nil {
		rs.noteCancel()
		return out, cancelled
	}
	return out, fault
}

// ScanReader scans an unbounded stream against every rule: the input
// is consumed once, window by window (WithChunkSize / WithOverlap),
// and each window fans out over the rules (fanOut) — one resume
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
// on the caller's goroutine, each on a borrowed lane (so concurrent
// calls share nothing); under Degrade and Skip a faulting rule is
// passed over (its error is returned, joined, only when no later rule
// matches), under FailFast the first fault aborts the probe. The
// roll-ups count the caller as worker slot 0, like a scan's.
func (rs *RuleSet) FirstMatchCtx(ctx context.Context, data []byte) (rule int, ok bool, err error) {
	var as ApproxStats
	u, cand := rs.tiers(data, &as)
	if u == nil {
		rs.merge(nil, 0, as, 0, 0)
		return 0, false, nil
	}
	var skipped int64
	var deferred []error
probe:
	for i := range rs.rules {
		if cand != nil && !cand.Has(i) {
			skipped++
			continue
		}
		u.list = append(u.list, int32(i))
		hit, rerr := rs.probeRule(ctx, i, data, &u.per[i], &u.slots[0].fast)
		u.slots[0].jobs++
		switch {
		case rerr == nil && hit:
			rule, ok = i, true
			as.ExactHitWindows = as.AdmittedWindows
			break probe
		case rerr == nil:
		case isCancel(rerr) || rs.policy == FailFast:
			if isCancel(rerr) {
				rs.noteCancel()
			}
			err = rerr
			break probe
		default:
			deferred = append(deferred, rerr)
		}
	}
	if !ok && err == nil {
		err = errors.Join(deferred...)
	}
	rs.merge(u, skipped, as, 0, 0)
	rs.release(u)
	return rule, ok, err
}

// probeRule is FirstMatchCtx's per-rule job: one probe from offset 0.
func (rs *RuleSet) probeRule(ctx context.Context, i int, data []byte, st *arch.Stats, fst *FastStats) (hit bool, err error) {
	defer recoverRule(i, -1, &err)
	ln, err := rs.borrow(i, false, st, fst)
	if err != nil {
		return false, err
	}
	_, hit, err = probeFinder(&ln.g, ln.gate).FindFromCtx(ctx, data, 0)
	rs.giveBack(i, ln, st, fst)
	return hit, scanErrFor(i, err)
}

// Stats returns the aggregate counters merged from every lane across
// all Scan and ScanReader calls so far.
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
// completed (slot 0 is the scanning caller's own goroutine); the values
// sum to Dispatched. The slice is sized to the widest any scan went.
func (rs *RuleSet) WorkerOccupancy() []int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]int64(nil), rs.occ...)
}

// Dispatched returns the total number of rule-scan jobs run (one per
// candidate rule per Scan call or stream window).
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
