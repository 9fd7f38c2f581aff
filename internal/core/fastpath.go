package core

// The hybrid fast path: a lazy (on-the-fly determinised) DFA gates
// every probe before it reaches the speculative core. The DFA answers
// only existence — "does any match starting at or after the probe
// origin end in this data?" — which subset construction preserves
// exactly; a negative answer skips the precise engine entirely, a
// positive one delegates the probe unchanged, so match offsets always
// come from the same leftmost-first engine as the slow path and the
// two paths are byte-identical by construction. On cache blowup
// (automata.ErrDFABail) the finder goes sticky-slow for the rest of
// the scan: the exact engine is the fallback contract, never a lossy
// approximation.

import (
	"context"
	"errors"

	"alveare/internal/arch"
	"alveare/internal/automata"
	"alveare/internal/stream"
)

// FastStats counts the hybrid fast path's behaviour: how probes were
// resolved (gate counters), how the DFA state cache behaved (cache
// counters), and — on a RuleSet — how the cross-rule literal prefilter
// dispatched (prefilter counters).
type FastStats struct {
	// Probes is the number of gate consultations (fast-path searches).
	Probes int64
	// Negatives is the probes the DFA resolved alone: no match exists,
	// the precise engine never ran.
	Negatives int64
	// Confirms is the probes handed to the precise engine after the DFA
	// found a match end (the engine then produced the exact offsets).
	Confirms int64
	// FallbackProbes is the probes served entirely by the slow path
	// because the gate had bailed earlier in the same scan.
	FallbackProbes int64

	// CacheHits / CacheMisses are DFA transitions served from /
	// computed into the bounded state cache; CacheFlushes counts
	// clear-on-full evictions (CacheEvicted sums the states dropped)
	// and Bails the thrash detections that disabled the gate for the
	// rest of a scan.
	CacheHits    int64
	CacheMisses  int64
	CacheFlushes int64
	CacheEvicted int64
	Bails        int64

	// PrefilterPasses / PrefilterSkips count rule-windows dispatched to
	// / withheld from the scan pool by the Aho–Corasick literal
	// prefilter (RuleSet only).
	PrefilterPasses int64
	PrefilterSkips  int64
}

// Add folds o into s.
func (s *FastStats) Add(o FastStats) {
	s.Probes += o.Probes
	s.Negatives += o.Negatives
	s.Confirms += o.Confirms
	s.FallbackProbes += o.FallbackProbes
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheFlushes += o.CacheFlushes
	s.CacheEvicted += o.CacheEvicted
	s.Bails += o.Bails
	s.PrefilterPasses += o.PrefilterPasses
	s.PrefilterSkips += o.PrefilterSkips
}

// addLazy folds one DFA instance's cache counters into s.
func (s *FastStats) addLazy(ls automata.LazyStats) {
	s.CacheHits += ls.Hits()
	s.CacheMisses += ls.Misses
	s.CacheFlushes += ls.Flushes
	s.CacheEvicted += ls.Evicted
	s.Bails += ls.Bails
}

// fastFinder implements stream.Finder as gate-then-delegate: the lazy
// DFA proves absence or hands the probe to the wrapped slow finder
// (the policy-applying guarded engine). After a cache bail the finder
// is sticky-slow — results are identical either way, only the gate's
// cost model changed. Like guarded, one instance serves one scan on
// one goroutine.
type fastFinder struct {
	dfa  *automata.LazyDFA
	slow stream.Finder
	st   *FastStats
	dead bool
}

// absent consults the gate for one probe and is the only place it is
// asked: true means the DFA proved no match starts at or after from, so
// the exact engine need not run. A bail turns the finder sticky-slow and
// reads as "cannot tell"; any other error is the caller's cancellation.
func (f *fastFinder) absent(ctx context.Context, data []byte, from int) (bool, error) {
	if f.dead {
		f.st.FallbackProbes++
		return false, nil
	}
	f.st.Probes++
	_, found, err := f.dfa.FirstAcceptCtx(ctx, data, from)
	switch {
	case errors.Is(err, automata.ErrDFABail):
		f.dead = true
		return false, nil
	case err != nil:
		return false, err
	case !found:
		f.st.Negatives++
		return true, nil
	}
	f.st.Confirms++
	return false, nil
}

func (f *fastFinder) FindFromCtx(ctx context.Context, data []byte, from int) (arch.Match, bool, error) {
	absent, err := f.absent(ctx, data, from)
	if err != nil {
		// Cancellation: surface it exactly as the core does, an
		// ExecError at the probe's origin, so error chains match the
		// slow path (stream.ScanWindowCtx rebases the offset).
		return arch.Match{}, false, &arch.ExecError{Offset: from, Err: err}
	}
	if absent {
		return arch.Match{}, false, nil
	}
	return f.slow.FindFromCtx(ctx, data, from)
}

// probeFinder picks the probe-level finder of a per-scan pair: the gate
// when the rule has one, the guarded core otherwise.
func probeFinder(g *guarded, gate *fastFinder) stream.Finder {
	if gate != nil {
		return gate
	}
	return g
}

// findAll runs the one-shot FindAll discipline over a per-scan pair.
// Both legs apply the same failure policy (it lives in the guarded
// finder) and return byte-identical matches.
func findAll(ctx context.Context, g *guarded, gate *fastFinder, data []byte) ([]Match, error) {
	if gate != nil {
		return findAllWith(ctx, gate, data, 0)
	}
	// Ungated, the core's own FindAll loop runs: probing it one
	// FindFrom at a time would change the simulated cycle count.
	return g.findAll(ctx, data)
}

// findAllWith runs the one-shot FindAll resume discipline through an
// arbitrary finder, collecting every match that starts at or after
// from — the gated counterpart of guarded.findAll (the policy lives
// inside the wrapped guarded finder) and the safe engine's whole-scan
// loop.
func findAllWith(ctx context.Context, f stream.Finder, data []byte, from int) ([]Match, error) {
	var out []Match
	pos := from
	for pos <= len(data) {
		m, ok, err := f.FindFromCtx(ctx, data, pos)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, m)
		if m.End > m.Start {
			pos = m.End
		} else {
			pos = m.End + 1 // empty match: advance one byte, as FindAll does
		}
	}
	return out, nil
}
