package core

import (
	"fmt"

	"alveare/internal/approx"
	"alveare/internal/arch"
	"alveare/internal/metrics"
)

// PublishMetrics writes the engine's roll-up into r under the "engine"
// prefix: the merged architectural counters (arch.Publish's naming
// contract), per-compute-unit utilization, and the reader-scan
// throughput accumulators. Detailed counters are populated only when
// the engine was built WithMetrics; the classic counters (cycles,
// instructions, speculation pushes) publish regardless.
func (e *Engine) PublishMetrics(r *metrics.Registry) {
	arch.Publish(r, "engine", e.Stats())
	arch.PublishCU(r, "engine", e.single.CUUtilization())
	if e.multi != nil {
		arch.PublishCU(r, "engine.multi", e.multi.CUUtilization())
	}
	r.Counter("engine.stream.windows").Store(e.streamCtr.Windows)
	r.Counter("engine.stream.bytes").Store(e.streamCtr.Bytes)
	r.Counter("engine.stream.matches").Store(e.streamCtr.Matches)
	if e.FastEnabled() {
		publishFast(r, "engine", e.FastStats(), false)
	}
	if e.admit != nil {
		publishApprox(r, "engine", e.ApproxStats(), e.admit)
	}
}

// publishApprox writes one admission-stage roll-up under prefix
// ("<prefix>.approx.*"): screening volume, admitted and exact-hit
// window counts (their ratio is the stage's precision), and the
// filter's shape (DFA states, truncation depth, admit-all
// degradation). Published only when the stage is enabled, so
// default-path snapshots are unchanged.
func publishApprox(r *metrics.Registry, prefix string, as ApproxStats, f *approx.Filter) {
	r.Counter(prefix + ".approx.windows.screened").Store(as.ScreenedWindows)
	r.Counter(prefix + ".approx.bytes.screened").Store(as.ScreenedBytes)
	r.Counter(prefix + ".approx.windows.admitted").Store(as.AdmittedWindows)
	r.Counter(prefix + ".approx.windows.exacthit").Store(as.ExactHitWindows)
	r.Gauge(prefix + ".approx.states").Set(int64(f.States()))
	r.Gauge(prefix + ".approx.depth").Set(int64(f.Depth()))
	admitAll := int64(0)
	if f.AdmitAll() {
		admitAll = 1
	}
	r.Gauge(prefix + ".approx.admitall").Set(admitAll)
}

// publishFast writes one FastStats roll-up under prefix: the gate
// outcome counters ("<prefix>.fast.*"), the DFA cache counters
// ("<prefix>.dfa.cache.*", "<prefix>.dfa.bails") and, for rule sets,
// the cross-rule prefilter dispatch counters ("<prefix>.prefilter.*").
// Published only when the fast path is enabled, so default-path
// snapshots are unchanged.
func publishFast(r *metrics.Registry, prefix string, fs FastStats, prefilter bool) {
	r.Counter(prefix + ".fast.probes").Store(fs.Probes)
	r.Counter(prefix + ".fast.negatives").Store(fs.Negatives)
	r.Counter(prefix + ".fast.confirms").Store(fs.Confirms)
	r.Counter(prefix + ".fast.fallback.probes").Store(fs.FallbackProbes)
	r.Counter(prefix + ".dfa.cache.hits").Store(fs.CacheHits)
	r.Counter(prefix + ".dfa.cache.misses").Store(fs.CacheMisses)
	r.Counter(prefix + ".dfa.cache.flushes").Store(fs.CacheFlushes)
	r.Counter(prefix + ".dfa.cache.evicted").Store(fs.CacheEvicted)
	r.Counter(prefix + ".dfa.bails").Store(fs.Bails)
	if prefilter {
		r.Counter(prefix + ".prefilter.passes").Store(fs.PrefilterPasses)
		r.Counter(prefix + ".prefilter.skips").Store(fs.PrefilterSkips)
	}
}

// MetricsSnapshot publishes into a fresh registry and returns the
// deterministic snapshot (sorted names, versioned schema) — what the
// tools' -metrics flag serialises.
func (e *Engine) MetricsSnapshot() *metrics.Snapshot {
	r := metrics.New()
	e.PublishMetrics(r)
	return r.Snapshot()
}

// PublishMetrics writes the rule set's roll-up into r under the
// "ruleset" prefix: the aggregate architectural counters, a per-rule
// cycle/instruction/speculation/fallback breakdown ("ruleset.rule<i>.*"),
// worker-slot occupancy ("ruleset.worker<i>.jobs", which sums to
// "ruleset.jobs.dispatched"), and the reader-scan window throughput.
// Every roll-up is copied under one lock acquisition — the one a unit's
// merge folds under — so a snapshot taken while scans run holds whole
// units only: dispatch, occupancy, prefilter and gate counters agree.
func (rs *RuleSet) PublishMetrics(r *metrics.Registry) {
	rs.mu.Lock()
	agg := rs.agg
	per := append([]arch.Stats(nil), rs.perRule...)
	occ := append([]int64(nil), rs.occ...)
	dispatched := rs.dispatched
	ctr := rs.streamCtr
	fast, admitted := rs.fast, rs.approxCtr
	rs.mu.Unlock()

	arch.Publish(r, "ruleset", agg)
	for i := range per {
		p := fmt.Sprintf("ruleset.rule%03d.", i)
		r.Counter(p + "cycles").Store(per[i].Cycles)
		r.Counter(p + "instructions").Store(per[i].Instructions)
		r.Counter(p + "spec.pushes").Store(per[i].Speculations)
		r.Counter(p + "fallbacks").Store(per[i].Fallbacks)
	}
	for w, c := range occ {
		r.Counter(fmt.Sprintf("ruleset.worker%02d.jobs", w)).Store(c)
	}
	r.Counter("ruleset.jobs.dispatched").Store(dispatched)
	r.Counter("ruleset.stream.windows").Store(ctr.Windows)
	r.Counter("ruleset.stream.bytes").Store(ctr.Bytes)
	r.Counter("ruleset.stream.matches").Store(ctr.Matches)
	if rs.FastEnabled() {
		publishFast(r, "ruleset", fast, true)
		r.Counter("ruleset.prefilter.rules.filtered").Store(int64(rs.PrefilteredRules()))
	}
	if rs.ApproxEnabled() {
		publishApprox(r, "ruleset", admitted, rs.admit)
	}
}

// MetricsSnapshot publishes into a fresh registry and returns the
// deterministic snapshot.
func (rs *RuleSet) MetricsSnapshot() *metrics.Snapshot {
	r := metrics.New()
	rs.PublishMetrics(r)
	return r.Snapshot()
}
