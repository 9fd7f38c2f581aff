package alveare

import (
	"regexp"
	"strings"
	"testing"
)

// TestCaseInsensitive exercises the case-folding compiler option across
// literals, classes and alternations, differentially against stdlib's
// (?i) mode.
func TestCaseInsensitive(t *testing.T) {
	cases := []struct{ re string }{
		{"error"},
		{"[a-f]+x"},
		{"(get|post) /"},
		{"Content-Type"},
		{"a1b2C3"},
		{"[^a-z]x"},
	}
	inputs := []string{
		"ERROR here", "error here", "ErRoR", "ABCX", "abcfx", "GET /x",
		"post /y", "content-type", "CONTENT-TYPE", "A1B2c3", "noise", "9X", "zX",
	}
	for _, c := range cases {
		std := regexp.MustCompile("(?i)" + c.re)
		prog, err := CompileWith(c.re, CompilerOptions{CaseInsensitive: true})
		if err != nil {
			t.Fatalf("%q: %v", c.re, err)
		}
		eng, err := NewEngine(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			want := std.FindStringIndex(in)
			m, ok, err := eng.Find([]byte(in))
			if err != nil {
				t.Fatalf("%q on %q: %v", c.re, in, err)
			}
			if (want == nil) != !ok {
				t.Errorf("(?i)%q on %q: ok=%v stdlib=%v", c.re, in, ok, want)
				continue
			}
			if ok && (m.Start != want[0] || m.End != want[1]) {
				t.Errorf("(?i)%q on %q: [%d,%d) stdlib %v", c.re, in, m.Start, m.End, want)
			}
		}
	}

	// Sensitivity check: the same pattern without the flag must not
	// match the upper-cased input.
	prog := MustCompile("error")
	eng, _ := NewEngine(prog)
	if ok, _ := eng.Match([]byte("ERROR")); ok {
		t.Error("case-sensitive compile matched folded input")
	}
}

func TestRuleSet(t *testing.T) {
	rules := []string{
		`GET [^ ]*\.php`,
		`passwd`,
		`\x90{4,}`,
	}
	rs, err := NewRuleSet(rules, CompilerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 {
		t.Fatalf("Len = %d", rs.Len())
	}
	if rs.Pattern(1) != "passwd" {
		t.Errorf("Pattern(1) = %q", rs.Pattern(1))
	}

	data := []byte("GET /index.php HTTP/1.1 then /etc/passwd and \x90\x90\x90\x90\x90 sled")
	hits, err := rs.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %+v", hits)
	}
	for _, h := range hits {
		if len(h.Matches) == 0 {
			t.Errorf("rule %d reported without matches", h.Rule)
		}
	}

	rule, ok, err := rs.FirstMatch([]byte("cat /etc/passwd"))
	if err != nil || !ok || rule != 1 {
		t.Errorf("FirstMatch = %d/%v/%v", rule, ok, err)
	}
	if _, ok, _ := rs.FirstMatch([]byte("clean traffic")); ok {
		t.Error("FirstMatch on clean data")
	}

	if _, err := NewRuleSet([]string{"ok", "("}, CompilerOptions{}); err == nil {
		t.Error("bad rule accepted")
	} else if !strings.Contains(err.Error(), "rule 1") {
		t.Errorf("error does not identify the offending rule: %v", err)
	}
}

// TestWithPrefilterPublicAPI: the prefilter option is reachable from
// the public API and never changes results.
func TestWithPrefilterPublicAPI(t *testing.T) {
	prog := MustCompile("(GET|POST) /admin")
	plain, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(prog, WithPrefilter())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("noise ", 2000) + "POST /admin HTTP/1.1")
	m1, ok1, err1 := plain.Find(data)
	m2, ok2, err2 := fast.Find(data)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !ok1 || ok1 != ok2 || m1 != m2 {
		t.Fatalf("results differ: %v/%v vs %v/%v", m1, ok1, m2, ok2)
	}
	if fast.Stats().Cycles >= plain.Stats().Cycles {
		t.Errorf("prefilter did not save cycles: %d vs %d", fast.Stats().Cycles, plain.Stats().Cycles)
	}
}

// TestRuleSetMultiCore: rule sets compose with the scale-out option.
func TestRuleSetMultiCore(t *testing.T) {
	rs, err := NewRuleSet([]string{"needle", "n[aeiou]+dle"}, CompilerOptions{}, WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("hay ", 10000) + "needle")
	hits, err := rs.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("hits = %+v", hits)
	}
}
