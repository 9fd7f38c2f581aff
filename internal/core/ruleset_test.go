package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"alveare/internal/backend"
)

func testRules() []string {
	return []string{
		`GET [^ ]*\.php`,
		`passwd`,
		`[0-9]{3}-[0-9]{4}`,
		`(cat|dog|bird)`,
		`x[a-f]+y`,
		`ERROR|WARN`,
		`a{3,}`,
		`[^ ]+@[a-z]+\.com`,
		`--+`,
		`0x[0-9a-f]{2,8}`,
		`q(w|e)+?r`,
		`needle`,
	}
}

func testTraffic(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	alphabet := "abcdefqwrxy0123456789 .-@"
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alphabet[r.Intn(len(alphabet))]
	}
	for _, w := range []string{
		"GET /index.php", "passwd", "555-1234", "catdog", "xabcdefy",
		"ERROR", "aaaa", "bob@acme.com", "----", "0xdeadbeef", "qweer", "needle",
	} {
		p := r.Intn(len(buf) - len(w))
		copy(buf[p:], w)
	}
	return buf
}

// scanSerialReference computes per-rule results the pre-concurrency
// way: one engine per rule, sequential FindAll.
func scanSerialReference(t *testing.T, rules []string, data []byte) []RuleMatches {
	t.Helper()
	var out []RuleMatches
	for i, re := range rules {
		p, err := CompileWith(re, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := eng.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) > 0 {
			out = append(out, RuleMatches{Rule: i, Matches: ms})
		}
	}
	return out
}

func sameRuleMatches(a, b []RuleMatches) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d rules hit", len(a), len(b))
	}
	for i := range a {
		if a[i].Rule != b[i].Rule {
			return fmt.Errorf("hit %d: rule %d vs %d", i, a[i].Rule, b[i].Rule)
		}
		if len(a[i].Matches) != len(b[i].Matches) {
			return fmt.Errorf("rule %d: %d vs %d matches", a[i].Rule, len(a[i].Matches), len(b[i].Matches))
		}
		for j := range a[i].Matches {
			if a[i].Matches[j] != b[i].Matches[j] {
				return fmt.Errorf("rule %d match %d: %v vs %v", a[i].Rule, j, a[i].Matches[j], b[i].Matches[j])
			}
		}
	}
	return nil
}

// TestRuleSetConcurrentScan checks that the worker-pool scan returns
// exactly the sequential per-rule results, at several worker widths.
func TestRuleSetConcurrentScan(t *testing.T) {
	rules := testRules()
	data := testTraffic(7, 20000)
	want := scanSerialReference(t, rules, data)
	if len(want) == 0 {
		t.Fatal("corpus hit no rules; test is vacuous")
	}
	for _, workers := range []int{1, 2, 8, 32} {
		rs, err := NewRuleSet(rules, backend.Options{}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Workers() != workers {
			t.Errorf("Workers() = %d, want %d", rs.Workers(), workers)
		}
		got, err := rs.Scan(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRuleMatches(got, want); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if rs.Stats().Cycles == 0 {
			t.Errorf("workers=%d: no aggregate cycles", workers)
		}
	}
}

// TestRuleSetParallelCallers hammers one RuleSet from many goroutines —
// the sync.Pool recycling and stats merging must be race-free (run
// under -race) and every caller must see identical results.
func TestRuleSetParallelCallers(t *testing.T) {
	rules := testRules()
	rs, err := NewRuleSet(rules, backend.Options{}, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 6)
	wants := make([][]RuleMatches, len(inputs))
	for i := range inputs {
		inputs[i] = testTraffic(int64(100+i), 6000)
		wants[i] = scanSerialReference(t, rules, inputs[i])
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 24)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, in := range inputs {
				got, err := rs.Scan(in)
				if err != nil {
					errCh <- err
					return
				}
				if err := sameRuleMatches(got, wants[i]); err != nil {
					errCh <- fmt.Errorf("input %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if rs.Stats().Cycles == 0 {
		t.Error("no cycles aggregated across parallel scans")
	}
	rs.ResetStats()
	if rs.Stats().Cycles != 0 {
		t.Error("ResetStats did not clear the aggregate")
	}
}

// TestRuleSetFirstMatchConcurrent: FirstMatch is part of the RuleSet's
// safe-for-concurrent-use contract, so callers on several goroutines
// must each see the lowest matching rule (run under -race: every probe
// borrows its own core and gate, nothing is shared between callers).
func TestRuleSetFirstMatchConcurrent(t *testing.T) {
	rules := testRules()
	rs, err := NewRuleSet(rules, backend.Options{}, WithDFA(), WithApprox())
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{[]byte("zzz zzz zzz")} // no rule matches
	wants := []int{-1}
	for i := 0; i < 6; i++ {
		in := testTraffic(int64(200+i), 6000)
		want := -1
		if hits := scanSerialReference(t, rules, in); len(hits) > 0 {
			want = hits[0].Rule
		}
		inputs, wants = append(inputs, in), append(wants, want)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for i, in := range inputs {
					rule, ok, err := rs.FirstMatch(in)
					if !ok {
						rule = -1
					}
					if err != nil || rule != wants[i] {
						errCh <- fmt.Errorf("input %d: FirstMatch = %d/%v, want rule %d", i, rule, err, wants[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestRuleSetScanReader checks the streaming rule-set scan against the
// in-memory batch scan (overlaps are sized over every rule's longest
// match, so the chunked results must be identical).
func TestRuleSetScanReader(t *testing.T) {
	rules := testRules()
	data := testTraffic(13, 30000)
	for _, cfg := range []struct{ chunk, overlap, workers int }{
		{7, 64, 8}, {256, 64, 4}, {4096, 256, 2}, {1 << 16, 256, 8},
	} {
		rs, err := NewRuleSet(rules, backend.Options{},
			WithWorkers(cfg.workers), WithChunkSize(cfg.chunk), WithOverlap(cfg.overlap))
		if err != nil {
			t.Fatal(err)
		}
		want, err := rs.Scan(data)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]Match{}
		consumed, err := rs.ScanReader(bytes.NewReader(data), func(rule int, m Match, text []byte) bool {
			if !bytes.Equal(text, data[m.Start:m.End]) {
				t.Errorf("rule %d: text %q != data[%d:%d]", rule, text, m.Start, m.End)
			}
			got[rule] = append(got[rule], m)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if consumed != int64(len(data)) {
			t.Errorf("consumed %d of %d bytes", consumed, len(data))
		}
		var gotList []RuleMatches
		for i := range rules {
			if len(got[i]) > 0 {
				gotList = append(gotList, RuleMatches{Rule: i, Matches: got[i]})
			}
		}
		if err := sameRuleMatches(gotList, want); err != nil {
			t.Errorf("chunk=%d overlap=%d workers=%d: %v", cfg.chunk, cfg.overlap, cfg.workers, err)
		}
	}
}

func TestRuleSetScanReaderEarlyStop(t *testing.T) {
	rs, err := NewRuleSet([]string{"a", "b"}, backend.Options{}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("ab", 5000))
	seen := 0
	if _, err := rs.ScanReader(bytes.NewReader(data), func(int, Match, []byte) bool {
		seen++
		return seen < 5
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("emitted %d matches after stop at 5", seen)
	}
}

func TestRuleSetEmpty(t *testing.T) {
	rs, err := NewRuleSet(nil, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := rs.Scan([]byte("anything"))
	if err != nil || hits != nil {
		t.Errorf("empty set: hits=%v err=%v", hits, err)
	}
	n, err := rs.ScanReader(strings.NewReader("anything"), func(int, Match, []byte) bool { return true })
	if err != nil || n != 8 {
		t.Errorf("empty set reader: n=%d err=%v", n, err)
	}
}

// TestEngineReaderMatchesFindAll covers Engine.FindReader/CountReader
// against the in-memory path on a multi-chunk input.
func TestEngineReaderMatchesFindAll(t *testing.T) {
	p, err := Compile(`[a-f]+[0-9]`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, WithChunkSize(128), WithOverlap(32))
	if err != nil {
		t.Fatal(err)
	}
	data := testTraffic(21, 10000)
	want, err := eng.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.FindReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("FindReader %d matches, FindAll %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: %v vs %v", i, got[i], want[i])
		}
	}
	n, err := eng.CountReader(bytes.NewReader(data))
	if err != nil || n != len(want) {
		t.Errorf("CountReader = %d, want %d (err %v)", n, len(want), err)
	}
}

// TestRuleSetPoolClearsPrefilterCache is a regression pin for the
// prefilter occurrence cache on pooled cores. With WithPrefilter, a
// hinted rule ("(foo|bar)needle" carries the mandatory literal
// "needle") caches the literal's occurrence offsets for the input it
// scanned (occ/occValid in the machine scratch). RuleSet recycles
// cores through a sync.Pool between Scan calls, so a Reset that failed
// to invalidate that cache would scan the SECOND input with the FIRST
// input's candidate offsets — missing matches or fabricating them.
// Scan two inputs with the literal at disjoint offsets through one
// RuleSet and demand each result equals a fresh RuleSet's.
func TestRuleSetPoolClearsPrefilterCache(t *testing.T) {
	rules := []string{`(foo|bar)needle`}
	// Input A: occurrences early. Input B: padding shifts every
	// occurrence far from A's offsets (and drops one).
	inA := []byte("fooneedle....barneedle" + strings.Repeat(".", 400))
	inB := []byte(strings.Repeat(".", 300) + "fooneedle" + strings.Repeat(".", 100))

	scanFresh := func(data []byte) []RuleMatches {
		rs, err := NewRuleSet(rules, backend.Options{}, WithPrefilter())
		if err != nil {
			t.Fatal(err)
		}
		out, err := rs.Scan(data)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	rs, err := NewRuleSet(rules, backend.Options{}, WithPrefilter())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, in := range [][]byte{inA, inB} {
			got, err := rs.Scan(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRuleMatches(got, scanFresh(in)); err != nil {
				t.Fatalf("round %d: pooled cores diverge from fresh rule set: %v", round, err)
			}
		}
	}
	// Sanity: the inputs really exercise the hinted path differently.
	if a, b := scanFresh(inA), scanFresh(inB); len(a) == 0 || len(b) == 0 ||
		len(a[0].Matches) != 2 || len(b[0].Matches) != 1 {
		t.Fatalf("fixture drifted: A=%v B=%v", a, b)
	}
}
