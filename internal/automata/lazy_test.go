package automata

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"alveare/internal/anmlzoo"
)

// eagerFirstAccept computes the reference answer with the eager
// subset-construction DFA: both constructions share the unanchored
// form, so their accept behaviour must be identical.
func eagerFirstAccept(t *testing.T, re string, data []byte, from int) (int, bool) {
	t.Helper()
	n, err := Compile(re)
	if err != nil {
		t.Fatalf("Compile(%q): %v", re, err)
	}
	d, err := Determinize(n, 1<<18)
	if err != nil {
		t.Fatalf("Determinize(%q): %v", re, err)
	}
	s := int32(0)
	if d.Accept[0] {
		return from, true
	}
	for i := from; i < len(data); i++ {
		s = d.Next(s, data[i])
		if d.Accept[s] {
			return i + 1, true
		}
	}
	return 0, false
}

func lazyInputs(r *rand.Rand) [][]byte {
	inputs := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("abc"),
		[]byte("the quick brown fox jumps over the lazy dog"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaab"),
	}
	for i := 0; i < 6; i++ {
		n := 1 + r.Intn(200)
		b := make([]byte, n)
		for j := range b {
			b[j] = "ab01 xyz"[r.Intn(8)]
		}
		inputs = append(inputs, b)
	}
	return inputs
}

func TestLazyFirstAcceptMatchesEager(t *testing.T) {
	patterns := []string{
		`abc`, `a+b`, `(a|b)*abb`, `[a-z]+[0-9]`, `x(yz)?`, `a*`,
		`fox|dog`, `.{3}k`, `(qu|br)[a-z]+`, `a{2,5}b`,
	}
	r := rand.New(rand.NewSource(61))
	inputs := lazyInputs(r)
	for _, re := range patterns {
		lp, err := CompileLazy(re)
		if err != nil {
			t.Fatalf("CompileLazy(%q): %v", re, err)
		}
		d := lp.NewDFA(0)
		for _, data := range inputs {
			for from := 0; from <= len(data); from += 1 + len(data)/7 {
				wantEnd, wantOK := eagerFirstAccept(t, re, data, from)
				end, ok, err := d.FirstAccept(data, from)
				if err != nil {
					t.Fatalf("%q FirstAccept(%q, %d): %v", re, data, from, err)
				}
				if ok != wantOK || (ok && end != wantEnd) {
					t.Fatalf("%q FirstAccept(%q, %d) = (%d,%v), want (%d,%v)",
						re, data, from, end, ok, wantEnd, wantOK)
				}
			}
		}
		if st := d.Stats(); st.Hits() < 0 {
			t.Fatalf("%q: negative cache hits: %+v", re, st)
		}
	}
}

// A tiny cache on a plain pattern flushes but stays exact: every
// answer must still agree with the eager construction.
func TestLazyTinyCacheStaysExact(t *testing.T) {
	re := `(a|b)*abb|fox|[0-9]{2}`
	lp, err := CompileLazy(re)
	if err != nil {
		t.Fatal(err)
	}
	d := lp.NewDFA(4)
	r := rand.New(rand.NewSource(7))
	for _, data := range lazyInputs(r) {
		wantEnd, wantOK := eagerFirstAccept(t, re, data, 0)
		end, ok, err := d.FirstAccept(data, 0)
		if errors.Is(err, ErrDFABail) {
			continue // bail is a legal answer for a 4-state cache
		}
		if err != nil {
			t.Fatalf("FirstAccept(%q): %v", data, err)
		}
		if ok != wantOK || (ok && end != wantEnd) {
			t.Fatalf("FirstAccept(%q) = (%d,%v), want (%d,%v)", data, end, ok, wantEnd, wantOK)
		}
	}
	if st := d.Stats(); st.Flushes == 0 && st.Bails == 0 {
		t.Fatalf("tiny cache neither flushed nor bailed: %+v", st)
	}
}

// A pattern whose live DFA working set exceeds the cache must bail
// (clear-on-full would otherwise thrash forever) and leave the
// instance reusable.
func TestLazyCacheBlowupBails(t *testing.T) {
	lp, err := CompileLazy(`a[ab]{14}`)
	if err != nil {
		t.Fatal(err)
	}
	d := lp.NewDFA(16)
	r := rand.New(rand.NewSource(3))
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = "ab"[r.Intn(2)]
	}
	// Make the input accept-free so the scan runs long enough to thrash:
	// break every candidate window with a non-[ab] byte.
	for i := 10; i < len(data); i += 11 {
		data[i] = 'x'
	}
	_, _, err = d.FirstAccept(data, 0)
	if !errors.Is(err, ErrDFABail) {
		t.Fatalf("FirstAccept = %v, want ErrDFABail", err)
	}
	if st := d.Stats(); st.Bails != 1 || st.Evicted == 0 {
		t.Fatalf("stats after bail: %+v", st)
	}
	// The instance survives a bail: a benign input still answers.
	if _, ok, err := d.FirstAccept([]byte("xxxxx"), 0); err != nil || ok {
		t.Fatalf("post-bail FirstAccept = (%v, %v)", ok, err)
	}
}

func TestLazyCancellation(t *testing.T) {
	lp, err := CompileLazy(`needle`)
	if err != nil {
		t.Fatal(err)
	}
	d := lp.NewDFA(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := make([]byte, 64*1024)
	_, _, err = d.FirstAcceptCtx(ctx, data, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FirstAcceptCtx = %v, want context.Canceled", err)
	}
}

func TestLazyEmptyMatchAndBounds(t *testing.T) {
	lp, err := CompileLazy(`a*`)
	if err != nil {
		t.Fatal(err)
	}
	d := lp.NewDFA(0)
	for from := 0; from <= 3; from++ {
		end, ok, err := d.FirstAccept([]byte("xyz"), from)
		if err != nil || !ok || end != from {
			t.Fatalf("a* FirstAccept(from=%d) = (%d,%v,%v), want (from,true,nil)", from, end, ok, err)
		}
	}
	if _, ok, _ := d.FirstAccept([]byte("xyz"), 99); ok {
		t.Fatal("out-of-range origin must not match")
	}
}

func TestLazyUnsupportedTooLarge(t *testing.T) {
	if _, err := CompileLazy(`a{2000}b{2001}c{2002}`); !errors.Is(err, ErrLazyUnsupported) {
		t.Fatalf("CompileLazy = %v, want ErrLazyUnsupported", err)
	}
}

func TestLazySharedProgIndependentInstances(t *testing.T) {
	lp, err := CompileLazy(`ab+c`)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := lp.NewDFA(0), lp.NewDFA(0)
	data := []byte("zzabbbczz")
	e1, ok1, _ := d1.FirstAccept(data, 0)
	e2, ok2, _ := d2.FirstAccept(data, 0)
	if e1 != e2 || ok1 != ok2 || !ok1 || e1 != 7 {
		t.Fatalf("instances disagree: (%d,%v) vs (%d,%v)", e1, ok1, e2, ok2)
	}
	if d1.TakeStats().Bytes == 0 {
		t.Fatal("TakeStats returned empty counters")
	}
	if d1.Stats().Bytes != 0 {
		t.Fatal("TakeStats did not zero the counters")
	}
}

// walkEvents is what the reference walker saw that the test must be
// able to prove it covered.
type walkEvents struct {
	flushInStart   int // a flush that landed while the walk was in state 0
	acceptViaCache int // an accepting target read straight from the table
	acceptViaStep  int // an accepting target first computed by step
}

// refFirstAcceptCtx is the walk FirstAcceptCtx had before its inner
// loop was rewritten — state ids, one multiply, one accept load and one
// ctx test per byte, no start-state skip — kept as the oracle. It
// drives the same step and so reads the same encoded table; only the
// decoding of an entry back to a state id is new.
func refFirstAcceptCtx(ctx context.Context, d *LazyDFA, data []byte, from int, ev *walkEvents) (end int, found bool, err error) {
	if from < 0 {
		from = 0
	}
	if from > len(data) {
		return 0, false, nil
	}
	if d.accept[0] {
		return from, true, nil
	}
	s := int32(0)
	nc := d.p.numClasses
	flushed := false
	flushedAt := from
	check := from + lazyCancelCheckBytes
	i := from
	for ; i < len(data); i++ {
		if ctx != nil && i >= check {
			if cerr := ctx.Err(); cerr != nil {
				d.stats.Bytes += int64(i - from)
				return 0, false, cerr
			}
			check = i + lazyCancelCheckBytes
		}
		cls := int(d.p.classes[data[i]])
		next := d.trans[int(s)*nc+cls]
		stepped := next == -1
		if stepped {
			canFlush := !flushed || i-flushedAt >= 4*d.maxStates
			var fl, ok bool
			_, next, fl, ok = d.step(s*int32(nc), cls, canFlush)
			if !ok {
				d.stats.Bytes += int64(i - from)
				d.stats.Bails++
				return 0, false, ErrDFABail
			}
			if fl {
				flushed = true
				flushedAt = i
				if s == 0 {
					ev.flushInStart++
				}
			}
		}
		if next < -1 {
			s = -2 - next
		} else {
			s = next / int32(nc)
		}
		if d.accept[s] {
			if stepped {
				ev.acceptViaStep++
			} else {
				ev.acceptViaCache++
			}
			d.stats.Bytes += int64(i + 1 - from)
			return i + 1, true, nil
		}
	}
	d.stats.Bytes += int64(len(data) - from)
	return 0, false, nil
}

// walkBoth drives one instance with FirstAcceptCtx and a twin with the
// reference walker through the same match-by-match scan of data from
// from, failing on the first call whose (end, found, err), LazyStats or
// cache population differ.
func walkBoth(t *testing.T, what string, got, ref *LazyDFA, data []byte, from int, ev *walkEvents) {
	t.Helper()
	for pos := from; pos <= len(data); {
		e1, ok1, err1 := got.FirstAcceptCtx(context.Background(), data, pos)
		e2, ok2, err2 := refFirstAcceptCtx(context.Background(), ref, data, pos, ev)
		if e1 != e2 || ok1 != ok2 || !errors.Is(err1, err2) {
			t.Fatalf("%s from=%d pos=%d: got (%d,%v,%v), reference (%d,%v,%v)", what, from, pos, e1, ok1, err1, e2, ok2, err2)
		}
		if got.Stats() != ref.Stats() || got.CacheStates() != ref.CacheStates() {
			t.Fatalf("%s from=%d pos=%d: stats %+v (%d states), reference %+v (%d states)",
				what, from, pos, got.Stats(), got.CacheStates(), ref.Stats(), ref.CacheStates())
		}
		if err1 != nil || !ok1 {
			return
		}
		if e1 == pos {
			e1++ // empty match
		}
		pos = e1
	}
}

// TestLazyWalkMatchesReference holds the rewritten inner loop to the
// old one: over the seeded ANMLZoo rules and their own datasets, at
// cache sizes from the floor (flushes and bails on most calls) to the
// default, from a spread of origins around the cancellation block
// size, every call must return the same answer and leave the same
// counters — Bytes, Misses, Flushes, Evicted and Bails all pin that the
// skip set and the tagged entries changed no decision.
func TestLazyWalkMatchesReference(t *testing.T) {
	const nRules, size, seed = 8, 24 << 10, 2024
	var ev walkEvents
	for _, suite := range anmlzoo.All(nRules, size, seed) {
		data := suite.Dataset
		rules := append([]string{`a*`, ``}, suite.Patterns...) // the empty match rides along
		for _, re := range rules {
			lp, err := CompileLazy(re)
			if errors.Is(err, ErrLazyUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("CompileLazy(%q): %v", re, err)
			}
			for _, cache := range []int{4, 5, 8, 16, 64, 0} {
				got, ref := lp.NewDFA(cache), lp.NewDFA(cache)
				what := suite.Name + " " + re
				// The same origin twice: the second pass meets in the table
				// what the first computed, accepting targets included.
				for _, from := range []int{0, 0, -3, 1, 4095, 4096, 4097, len(data) / 2, len(data) - 1, len(data), len(data) + 1} {
					walkBoth(t, what, got, ref, data, from, &ev)
				}
			}
		}
	}
	if ev.flushInStart == 0 || ev.acceptViaCache == 0 || ev.acceptViaStep == 0 {
		t.Fatalf("coverage hole: %+v", ev)
	}
}

// TestLazyFlushInStartClearsSkipSet is the one flush the skip set can
// get wrong: the cache fills while the walk sits in state 0, whose
// self-loop on 'z' is already in the skip set. After the flush that
// transition is unknown again and must be recomputed (a miss the
// reference walker also pays), not skipped from a stale set.
func TestLazyFlushInStartClearsSkipSet(t *testing.T) {
	lp, err := CompileLazy(`(ab|cd|ef)x`)
	if err != nil {
		t.Fatal(err)
	}
	got, ref := lp.NewDFA(4), lp.NewDFA(4)
	var ev walkEvents
	walkBoth(t, "flush in start", got, ref, []byte("zzabzczezzz"), 0, &ev)
	if ev.flushInStart != 1 {
		t.Fatalf("the flush did not land in state 0: %+v, stats %+v", ev, ref.Stats())
	}
	if !got.stay['z'] || got.stay['a'] {
		t.Fatalf("skip set after the walk: z=%v a=%v, want true,false", got.stay['z'], got.stay['a'])
	}
}

// pollCtx is a context whose Err turns non-nil on its failAt-th call.
type pollCtx struct {
	context.Context
	polls, failAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestLazyCancellationAtBlockBoundaries pins the poll cadence: ctx is
// consulted once per lazyCancelCheckBytes block after the first, a
// cancellation seen by the k-th poll stops the walk exactly k blocks
// past the origin, and the input's last partial block is not polled.
func TestLazyCancellationAtBlockBoundaries(t *testing.T) {
	lp, err := CompileLazy(`needle[0-9]`)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5*lazyCancelCheckBytes+100)
	for i := range data {
		data[i] = "nedl zz"[i%7]
	}
	for _, from := range []int{0, 7, lazyCancelCheckBytes - 1} {
		for failAt := 1; failAt <= 7; failAt++ {
			got, ref := lp.NewDFA(0), lp.NewDFA(0)
			c1 := &pollCtx{Context: context.Background(), failAt: failAt}
			c2 := &pollCtx{Context: context.Background(), failAt: failAt}
			_, ok1, err1 := got.FirstAcceptCtx(c1, data, from)
			_, ok2, err2 := refFirstAcceptCtx(c2, ref, data, from, &walkEvents{})
			if ok1 || ok2 || !errors.Is(err1, err2) || c1.polls != c2.polls || got.Stats() != ref.Stats() {
				t.Fatalf("from=%d failAt=%d: got (%v,%v) after %d polls, %+v; reference (%v,%v) after %d polls, %+v",
					from, failAt, ok1, err1, c1.polls, got.Stats(), ok2, err2, c2.polls, ref.Stats())
			}
			blocks := (len(data) - from - 1) / lazyCancelCheckBytes // polls an uncancelled walk makes
			if failAt <= blocks {
				if !errors.Is(err1, context.Canceled) || got.Stats().Bytes != int64(failAt*lazyCancelCheckBytes) {
					t.Fatalf("from=%d failAt=%d: err %v after %d bytes, want Canceled after %d",
						from, failAt, err1, got.Stats().Bytes, failAt*lazyCancelCheckBytes)
				}
			} else if err1 != nil || c1.polls != blocks {
				t.Fatalf("from=%d failAt=%d: err %v after %d polls, want nil after %d", from, failAt, err1, c1.polls, blocks)
			}
		}
	}
}

// TestLazyCacheBoundClamped: WithDFACache is public and unbounded, and
// a transition entry is an int32 row offset, so NewDFA clamps the state
// bound to what the table can index — and still scans correctly.
func TestLazyCacheBoundClamped(t *testing.T) {
	// Any doubled byte: 256 singleton consume sets, so 256 classes.
	var re strings.Builder
	for b := 0; b < 256; b++ {
		if b > 0 {
			re.WriteByte('|')
		}
		fmt.Fprintf(&re, `\x%02x\x%02x`, b, b)
	}
	lp, err := CompileLazy(re.String())
	if err != nil {
		t.Fatal(err)
	}
	if lp.NumClasses() != 256 {
		t.Fatalf("NumClasses = %d, want 256", lp.NumClasses())
	}
	d := lp.NewDFA(math.MaxInt32)
	if want := math.MaxInt32 / 256; d.maxStates != want {
		t.Fatalf("maxStates = %d, want the clamp %d", d.maxStates, want)
	}
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i * 7) // no byte doubled
	}
	data[300], data[400], data[401] = data[299], 0xFF, 0xFF
	for _, from := range []int{0, 299, 300, 400} {
		wantEnd, wantOK := eagerFirstAccept(t, re.String(), data, from)
		end, ok, err := d.FirstAccept(data, from)
		if err != nil || ok != wantOK || end != wantEnd {
			t.Fatalf("from=%d: FirstAccept = (%d,%v,%v), eager DFA (%d,%v)", from, end, ok, err, wantEnd, wantOK)
		}
	}
	if _, ok, err := d.FirstAccept(data[402:], 0); ok || err != nil {
		t.Fatalf("doubled-byte-free tail: (%v,%v)", ok, err)
	}
}
