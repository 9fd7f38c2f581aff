package automata

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Lazy (on-the-fly) determinisation, the RE2-style fast path: instead
// of materialising the full subset-construction DFA up front
// (Determinize), transitions are computed on demand while scanning and
// interned into a bounded state cache. The automaton answers one
// question exactly — "does a match (starting at or after the scan
// origin) end anywhere in this data?" — which is all a gate in front
// of the precise leftmost-first engine needs: a negative answer proves
// the slow engine would find nothing, a positive answer hands the probe
// over unchanged. Match *offsets* are never taken from the lazy DFA, so
// the priority-order information Thompson simulation carries (and
// subset construction discards) is never needed here.
//
// The cache is bounded and evictable: when it fills, it is flushed
// wholesale (clear-on-full, the scheme RE2 uses) and rebuilt from the
// in-flight subset. A scan that keeps refilling the cache faster than
// it makes progress is thrashing — live states exceed the cache — and
// bails out with ErrDFABail; callers fall back to the exact engine.

// DefaultLazyNFAStates bounds the NFA size a LazyProg will precompute
// epsilon closures for (closure bitsets are quadratic in NFA states).
const DefaultLazyNFAStates = 4096

// DefaultLazyCacheStates is the default bound on cached DFA states.
const DefaultLazyCacheStates = 4096

// lazyCancelCheckBytes is how often FirstAcceptCtx polls ctx, the
// byte-granularity counterpart of arch.CancelCheckCycles.
const lazyCancelCheckBytes = 4096

// ErrDFABail reports that the lazy DFA's working set exceeds its state
// cache (the cache was flushed without making progress); the caller
// must fall back to the exact engine.
var ErrDFABail = errors.New("automata: lazy DFA cache thrashing")

// ErrLazyUnsupported reports an NFA too large for lazy determinisation
// (the closure precomputation would not pay for itself).
var ErrLazyUnsupported = errors.New("automata: NFA too large for lazy DFA")

// LazyProg is the immutable, shareable half of a lazy DFA: the NFA,
// its epsilon closures, the unanchored start subset and the compressed
// alphabet. One LazyProg serves any number of LazyDFA instances (each
// with a private mutable cache), so pooled scanners share the expensive
// precomputation.
type LazyProg struct {
	nfa        *NFA
	closures   []*StateSet
	start      *StateSet
	classes    [256]uint8
	numClasses int
	repr       []byte
}

// CompileLazy builds the shareable lazy-DFA program of a regular
// expression using the shared ALVEARE front-end.
func CompileLazy(re string) (*LazyProg, error) {
	n, err := Compile(re)
	if err != nil {
		return nil, err
	}
	return LazyFromNFA(n)
}

// LazyFromNFA precomputes the closures and alphabet classes of n.
// NFAs beyond DefaultLazyNFAStates states are rejected with
// ErrLazyUnsupported; callers run without the fast path.
func LazyFromNFA(n *NFA) (*LazyProg, error) {
	if len(n.States) > DefaultLazyNFAStates {
		return nil, fmt.Errorf("%w: %d NFA states", ErrLazyUnsupported, len(n.States))
	}
	classes, numClasses, err := alphabetClasses(n)
	if err != nil {
		return nil, err
	}
	repr := make([]byte, numClasses)
	seen := make([]bool, numClasses)
	for c := 0; c < 256; c++ {
		if id := classes[c]; !seen[id] {
			seen[id] = true
			repr[id] = byte(c)
		}
	}
	closures := n.closures()
	start := NewStateSet(len(n.States))
	start.Or(closures[n.Start])
	return &LazyProg{
		nfa:        n,
		closures:   closures,
		start:      start,
		classes:    classes,
		numClasses: numClasses,
		repr:       repr,
	}, nil
}

// NumClasses returns the compressed alphabet size.
func (p *LazyProg) NumClasses() int { return p.numClasses }

// LazyStats counts one LazyDFA's cache behaviour. Hits are transitions
// served from the cache, misses are transitions computed by subset
// construction; every flush evicts the whole cache (Evicted sums the
// states discarded). Bails count the thrash detections that sent the
// caller to the exact fallback.
type LazyStats struct {
	Bytes   int64 // input bytes stepped
	Misses  int64 // transitions computed (subset construction)
	Flushes int64 // clear-on-full cache resets
	Evicted int64 // DFA states discarded by flushes
	Bails   int64 // thrash detections (ErrDFABail returns)
}

// Hits returns the transitions served straight from the cache.
func (s LazyStats) Hits() int64 { return s.Bytes - s.Misses }

// Add folds o into s.
func (s *LazyStats) Add(o LazyStats) {
	s.Bytes += o.Bytes
	s.Misses += o.Misses
	s.Flushes += o.Flushes
	s.Evicted += o.Evicted
	s.Bails += o.Bails
}

// LazyDFA is one mutable instance over a LazyProg: an interned subset
// cache with lazily filled transition rows. Like arch.Core it follows a
// single-goroutine discipline; share the LazyProg, not the LazyDFA.
type LazyDFA struct {
	p         *LazyProg
	maxStates int

	subsets []*StateSet // state id -> NFA subset
	trans   []int32     // state id * numClasses + class -> entry (see entry)
	accept  []bool
	index   map[string]int32
	// stay holds the bytes whose transition out of state 0 is already
	// known to lead back to state 0: the walk skips over them without
	// touching trans. Filled by step, cleared by flush.
	stay [256]bool

	scratch *StateSet // successor-subset workspace
	key     []byte    // index-key workspace (StateSet.AppendKey)
	stats   LazyStats
}

// NewDFA builds a private lazy DFA over the program. maxStates bounds
// the state cache; non-positive selects DefaultLazyCacheStates, the
// floor is 4 (start, current and successor subsets must coexist) and
// the ceiling is MaxInt32/NumClasses (a transition entry is an int32
// row offset into the table).
func (p *LazyProg) NewDFA(maxStates int) *LazyDFA {
	if maxStates <= 0 {
		maxStates = DefaultLazyCacheStates
	}
	if maxStates < 4 {
		maxStates = 4
	}
	if most := math.MaxInt32 / p.numClasses; maxStates > most {
		maxStates = most
	}
	d := &LazyDFA{
		p:         p,
		maxStates: maxStates,
		index:     map[string]int32{},
		scratch:   NewStateSet(len(p.nfa.States)),
	}
	d.intern(p.start)
	return d
}

// CacheStates returns the current number of cached DFA states.
func (d *LazyDFA) CacheStates() int { return len(d.subsets) }

// Stats returns the accumulated cache counters.
func (d *LazyDFA) Stats() LazyStats { return d.stats }

// TakeStats returns the accumulated counters and zeroes them — the
// hand-off pooled scanners use when a borrowed instance is returned.
func (d *LazyDFA) TakeStats() LazyStats {
	s := d.stats
	d.stats = LazyStats{}
	return s
}

// intern returns the id of subset s, adding it to the cache if new.
// The caller must ensure the cache has room.
func (d *LazyDFA) intern(s *StateSet) int32 {
	d.key = s.AppendKey(d.key[:0])
	if id, ok := d.index[string(d.key)]; ok {
		return id
	}
	id := int32(len(d.subsets))
	cp := NewStateSet(len(d.p.nfa.States))
	cp.CopyFrom(s)
	d.subsets = append(d.subsets, cp)
	d.index[string(d.key)] = id
	d.accept = append(d.accept, s.Has(d.p.nfa.Accept))
	row := make([]int32, d.p.numClasses)
	for i := range row {
		row[i] = -1
	}
	d.trans = append(d.trans, row...)
	return id
}

// entry encodes state id as a transition-table entry: the state's
// premultiplied row offset (id*numClasses), or -2-id when it accepts.
// With -1 for "not computed yet" the walk tests one sign per byte and
// neither multiplies nor reads accept on its fast path.
func (d *LazyDFA) entry(id int32) int32 {
	if d.accept[id] {
		return -2 - id
	}
	return id * int32(d.p.numClasses)
}

// flush evicts the whole cache and re-seeds it with the start subset,
// returning the new id of cur (the in-flight subset the scan resumes
// from). Clear-on-full keeps eviction O(1) amortised with no
// bookkeeping in the hot loop, the trade RE2 makes.
func (d *LazyDFA) flush(cur *StateSet) int32 {
	d.stats.Flushes++
	d.stats.Evicted += int64(len(d.subsets))
	d.subsets = d.subsets[:0]
	d.trans = d.trans[:0]
	d.accept = d.accept[:0]
	d.stay = [256]bool{}
	d.index = make(map[string]int32, d.maxStates)
	d.intern(d.p.start)
	return d.intern(cur)
}

// step computes the transition of the non-accepting state at row
// offset row on alphabet class cls, interning the successor and
// recording its entry. When the cache is full it flushes if canFlush
// allows, else reports ok=false (the caller must bail). The returned
// cur is the row offset of the current state (re-interned after a
// flush), next the successor's entry.
func (d *LazyDFA) step(row int32, cls int, canFlush bool) (cur, next int32, flushedNow, ok bool) {
	d.stats.Misses++
	p := d.p
	s := row / int32(p.numClasses)
	d.scratch.Clear()
	d.subsets[s].ForEach(func(i int) {
		st := &p.nfa.States[i]
		if st.Consume != nil && st.Consume.Has(p.repr[cls]) {
			d.scratch.Or(p.closures[st.Next])
		}
	})
	d.scratch.Or(p.start) // unanchored: re-inject the start closure
	d.key = d.scratch.AppendKey(d.key[:0])
	id, found := d.index[string(d.key)]
	if !found {
		if len(d.subsets) >= d.maxStates {
			if !canFlush {
				return row, 0, false, false
			}
			// subsets[s] survives the flush: flush re-interns it from the
			// still-referenced StateSet before anything else is added.
			row = d.entry(d.flush(d.subsets[s]))
			flushedNow = true
		}
		id = d.intern(d.scratch)
	}
	next = d.entry(id)
	d.trans[int(row)+cls] = next
	if row == 0 && id == 0 {
		for b := range d.stay {
			d.stay[b] = d.stay[b] || int(p.classes[b]) == cls
		}
	}
	return row, next, flushedNow, true
}

// FirstAccept reports whether any match starting at or after from ends
// in data, and if so the smallest such end offset. It is the
// gate primitive: a false answer proves the precise engine would find
// no match from that origin.
func (d *LazyDFA) FirstAccept(data []byte, from int) (end int, found bool, err error) {
	return d.FirstAcceptCtx(context.Background(), data, from)
}

// FirstAcceptCtx is FirstAccept with cooperative cancellation, polled
// every lazyCancelCheckBytes input bytes. It returns ErrDFABail when
// the state cache thrashes (the caller falls back to the exact engine)
// and the ctx error on cancellation; both leave the instance reusable.
func (d *LazyDFA) FirstAcceptCtx(ctx context.Context, data []byte, from int) (end int, found bool, err error) {
	if from < 0 {
		from = 0
	}
	if from > len(data) {
		return 0, false, nil
	}
	if d.accept[0] {
		return from, true, nil // the pattern matches the empty string
	}
	// The recurrence is one add and one load per byte: row is the
	// current state's row offset, an entry below zero is either a target
	// that accepts or a transition still to compute. trans is held in a
	// local and re-read only after step, which may grow or flush it.
	trans, classes, stay := d.trans, &d.p.classes, &d.stay
	row := int32(0)
	flushed := false
	flushedAt := from
	i := from
	for i < len(data) {
		if ctx != nil && i > from {
			if cerr := ctx.Err(); cerr != nil {
				d.stats.Bytes += int64(i - from)
				return 0, false, cerr
			}
		}
		blk := data[:min(i+lazyCancelCheckBytes, len(data))]
		for i < len(blk) {
			if row == 0 {
				// State 0 is the unanchored start subset: skip the bytes
				// already known to leave the walk there.
				for i < len(blk) && stay[blk[i]] {
					i++
				}
				if i == len(blk) {
					break
				}
			}
			cls := int(classes[blk[i]])
			next := trans[int(row)+cls]
			if next < 0 {
				if next == -1 {
					// The first flush of a scan is warming; a further flush
					// is allowed only after the cache paid for itself (4x
					// the cache size in input bytes since the last one) —
					// otherwise the live working set exceeds the cache and
					// the scan bails.
					canFlush := !flushed || i-flushedAt >= 4*d.maxStates
					var fl, ok bool
					row, next, fl, ok = d.step(row, cls, canFlush)
					if !ok {
						d.stats.Bytes += int64(i - from)
						d.stats.Bails++
						return 0, false, ErrDFABail
					}
					if fl {
						flushed = true
						flushedAt = i
					}
					trans = d.trans
				}
				if next < -1 {
					d.stats.Bytes += int64(i + 1 - from)
					return i + 1, true, nil
				}
			}
			row = next
			i++
		}
	}
	d.stats.Bytes += int64(len(data) - from)
	return 0, false, nil
}
