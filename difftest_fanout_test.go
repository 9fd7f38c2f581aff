package alveare

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestDifferentialInlineParallel: a unit's fan-out runs on the caller's
// goroutine alone or with helpers depending only on its size (candidate
// rules × bytes against core's spawnAbove, 64 KiB), and the two must be
// indistinguishable but for which worker slot ran a job. The
// admission-stage corpora are cut to sizes either side of that constant
// — five rules: 2 KiB units stay inline at any width, 16 KiB units (each
// document twice over) go wide when workers are configured — and scanned
// one-shot and streamed on a one-worker and a four-worker rule set:
// identical matches, dispatch counts, aggregate and per-rule cycles, and
// occupancy summing to the dispatch count on both.
func TestDifferentialInlineParallel(t *testing.T) {
	corpus := approxDiffCorpus(rand.New(rand.NewSource(2020)), 2048)
	for _, tier := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"dfa+approx", []Option{WithDFA(), WithApprox()}},
	} {
		for _, size := range []int{2 << 10, 16 << 10} {
			t.Run(fmt.Sprintf("%s/%dKiB", tier.name, size>>10), func(t *testing.T) {
				one, err := NewRuleSet(approxDiffRules, CompilerOptions{}, append([]Option{WithWorkers(1)}, tier.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				four, err := NewRuleSet(approxDiffRules, CompilerOptions{}, append([]Option{WithWorkers(4)}, tier.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				for _, doc := range corpus {
					data := bytes.Repeat(doc, 2)
					data = data[:min(size, len(data))]
					want, err1 := one.Scan(data)
					got, err2 := four.Scan(data)
					if err1 != nil || err2 != nil {
						t.Fatalf("errs %v / %v", err1, err2)
					}
					assertSameRuleMatches(t, data, got, want)
					// One frame per unit: the window is the unit's size.
					if w, g := streamTranscript(t, one, data, size, 64), streamTranscript(t, four, data, size, 64); !bytes.Equal(g, w) {
						t.Fatalf("push-stream of %d bytes diverged\n got %s\nwant %s", len(data), g, w)
					}
				}
				if one.Dispatched() == 0 || one.Dispatched() != four.Dispatched() {
					t.Fatalf("dispatched %d on one worker, %d on four", one.Dispatched(), four.Dispatched())
				}
				if a, b := one.Stats(), four.Stats(); a != b {
					t.Fatalf("aggregate counters diverged:\n one %+v\nfour %+v", a, b)
				}
				for i := range approxDiffRules {
					if a, b := one.RuleStats(i), four.RuleStats(i); a != b {
						t.Fatalf("rule %d counters diverged:\n one %+v\nfour %+v", i, a, b)
					}
				}
				for _, rs := range []*RuleSet{one, four} {
					var sum int64
					for _, c := range rs.WorkerOccupancy() {
						sum += c
					}
					if sum != rs.Dispatched() {
						t.Fatalf("occupancy %v sums to %d, dispatched %d", rs.WorkerOccupancy(), sum, rs.Dispatched())
					}
				}
				// The size alone decided the width: slot 0 is the caller, and
				// helpers' slots exist only past the constant.
				if n := len(one.WorkerOccupancy()); n != 1 {
					t.Fatalf("one worker used %d slots", n)
				}
				if n, wide := len(four.WorkerOccupancy()), size*len(approxDiffRules) >= 64<<10; (n > 1) != wide {
					t.Fatalf("%d-byte units on four workers used %d slots, want wide=%v", size, n, wide)
				}
			})
		}
	}
}
