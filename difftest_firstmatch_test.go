package alveare

import (
	"context"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// TestDifferentialFirstMatch: RuleSet.FirstMatchCtx must name exactly
// the lowest rule index ScanCtx reports and the lowest rule Go's regexp
// matches, over the admission-stage corpora, with every skip tier in
// front of it and under every failure policy. The Degrade and Skip legs
// run under a budget the healthy rules fit in (their costliest one-shot
// scan of these corpora is 49k cycles) and put a runaway rule first —
// no match on the first hostile document, a late match on the second —
// so the probe must contain rule 0's fault and still answer.
func TestDifferentialFirstMatch(t *testing.T) {
	tiers := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"dfa", []Option{WithDFA()}},
		{"dfa+approx", []Option{WithDFA(), WithApprox()}},
		{"approx-states=2", []Option{WithApprox(), WithApproxStates(2)}},
	}
	policies := []struct {
		name    string
		opts    []Option
		hostile bool
	}{
		{"failfast", nil, false},
		{"degrade", []Option{WithPolicy(Degrade), WithBudget(1 << 16)}, true},
		{"skip", []Option{WithPolicy(Skip), WithBudget(1 << 16)}, true},
	}
	for _, pol := range policies {
		rules := approxDiffRules
		corpus := approxDiffCorpus(rand.New(rand.NewSource(9001)), 512)
		if pol.hostile {
			rules = append([]string{`(a|aa)+b`}, rules...)
			run := strings.Repeat("a", 40) + "x "
			corpus = append(corpus, []byte(run+"x427y"), []byte(run+"aab"))
		}
		var oracle []*regexp.Regexp
		for _, re := range rules {
			oracle = append(oracle, regexp.MustCompile(re))
		}
		for _, tier := range tiers {
			t.Run(pol.name+"/"+tier.name, func(t *testing.T) {
				rs, err := NewRuleSet(rules, CompilerOptions{}, append(append([]Option{WithWorkers(2)}, tier.opts...), pol.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				for d, data := range corpus {
					want := -1
					for i, re := range oracle {
						if re.Match(data) {
							want = i
							break
						}
					}
					hits, serr := rs.ScanCtx(context.Background(), data)
					if serr != nil {
						t.Fatalf("doc %d: ScanCtx: %v", d, serr)
					}
					scanned := -1
					for _, h := range hits {
						if len(h.Matches) > 0 {
							scanned = h.Rule
							break
						}
					}
					before := rs.Stats().Cycles
					got, ok, ferr := rs.FirstMatchCtx(context.Background(), data)
					if ferr != nil {
						t.Fatalf("doc %d: FirstMatchCtx: %v", d, ferr)
					}
					if !ok {
						got = -1
					}
					if got != want || scanned != want {
						t.Fatalf("doc %d: FirstMatch rule %d, Scan's lowest %d, regexp's %d", d, got, scanned, want)
					}
					// A reported match always comes from the exact engine,
					// and its cycles land in the rule set's own roll-up.
					if ok && rs.Stats().Cycles <= before {
						t.Fatalf("doc %d: Stats().Cycles did not grow across a matching FirstMatch", d)
					}
				}
			})
		}
	}
}
