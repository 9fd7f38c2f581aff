package alveare

import (
	"testing"
)

// FuzzLazyDFA fuzzes (pattern, input, cacheSize) and cross-checks the
// hybrid fast path against the exact slow path: the lazy-DFA gate (and,
// through tiny cache sizes, its clear-on-full flushes and thrash bail)
// must never change FindAll's spans or its error outcome. Any
// divergence is a real bug in the gate — the DFA only answers
// existence, so the spans must be byte-identical by construction.
func FuzzLazyDFA(f *testing.F) {
	f.Add("a+b", "aabab aab", 0)
	f.Add("a[ab]{10}", "abbabababababbbaaab", 4)
	f.Add("(foo|foobar)+", "foofoobarfoo", 16)
	f.Add("[^x]{3}y", "abcy xxy dddy", 5)
	f.Add("a*", "bbaabbb", 4)
	f.Add("q(w|e)*?r", "qwer qweer qr", 0)
	f.Add("[a-f]{2,6}", "xxfadebeadxx", 7)
	f.Add("", "empty pattern", 4)
	// A self-looping start state under the smallest caches: the walk's
	// start-state skip set fills, is flushed (once while in state 0) and
	// refills between matches.
	f.Add("(ab|cd)[0-9]{2}", "zzzzabzzcd12zz", 4)
	f.Add("(ab|cd)[0-9]{2}", "zzzzabzzcd12zz", 5)
	f.Add("(ab|cd|ef)x", "zzabzczezzzabxzzzzzzzzzzzzzzzzzefx", 4)
	f.Add("(ab|cd|ef)x", "zzabzczezzzabxzzzzzzzzzzzzzzzzzefx", 5)
	f.Fuzz(func(t *testing.T, pat, input string, cacheSize int) {
		if len(pat) > 40 || len(input) > 1<<12 {
			t.Skip()
		}
		prog, err := Compile(pat)
		if err != nil {
			t.Skip() // outside the supported subset
		}
		slow, err := NewEngine(prog)
		if err != nil {
			t.Skip()
		}
		cache := cacheSize
		if cache < 0 {
			cache = -cache
		}
		cache = cache % 64 // 0 keeps the default; tiny values force flushes/bails
		fast, err := NewEngine(prog, WithDFA(), WithDFACache(cache))
		if err != nil {
			t.Fatalf("fast engine for %q: %v", pat, err)
		}
		data := []byte(input)
		want, errSlow := slow.FindAll(data)
		got, errFast := fast.FindAll(data)
		if (errSlow == nil) != (errFast == nil) {
			t.Fatalf("%q cache=%d on %q: error outcome diverged: slow %v fast %v",
				pat, cache, input, errSlow, errFast)
		}
		if errSlow != nil {
			return // both tripped the same guardrail (budget/stack)
		}
		if len(got) != len(want) {
			t.Fatalf("%q cache=%d on %q:\nfast %v\nslow %v", pat, cache, input, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q cache=%d on %q: match %d = %v, slow %v", pat, cache, input, i, got[i], want[i])
			}
		}
	})
}
