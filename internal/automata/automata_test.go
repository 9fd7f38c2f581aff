package automata

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

var corpus = []struct {
	re      string
	yes, no []string
}{
	{"abc", []string{"abc", "xxabcxx"}, []string{"", "ab", "axbxc"}},
	{"a+b", []string{"ab", "aaab", "xxaab"}, []string{"b", "a", "ba"}},
	{"(a|b)+c", []string{"ac", "babac", "zabc"}, []string{"c", "ab", ""}},
	{"[0-9]{3}", []string{"123", "ab123", "99999"}, []string{"12", "1a2"}},
	{"x.y", []string{"xay", "x y", "zzx9y"}, []string{"xy", "x\ny"}},
	{"a{2,4}", []string{"aa", "aaa", "aaaa", "baab"}, []string{"a", "b"}},
	{"[^a-z]+", []string{"A", "123", "abcD"}, []string{"abc", ""}},
	{"\\w+@\\w+", []string{"a@b", "hi bob@mail x"}, []string{"@", "a@", "@b"}},
	{"(ab|cd)*ef", []string{"ef", "abef", "cdabef"}, []string{"abcd", "e f"}},
	{"a{3,}", []string{"aaa", "aaaaa"}, []string{"aa", ""}},
	{"", []string{"", "x"}, nil},
	{"colou?r", []string{"color", "colour"}, []string{"colr"}},
}

func TestNFAMatch(t *testing.T) {
	for _, c := range corpus {
		n, err := Compile(c.re)
		if err != nil {
			t.Fatalf("compile %q: %v", c.re, err)
		}
		r := NewRunner(n)
		for _, in := range c.yes {
			if !r.Match([]byte(in)) {
				t.Errorf("%q should match %q", c.re, in)
			}
		}
		for _, in := range c.no {
			if r.Match([]byte(in)) {
				t.Errorf("%q should not match %q", c.re, in)
			}
		}
	}
}

func TestDFAEquivalentToNFA(t *testing.T) {
	inputs := []string{
		"", "a", "ab", "abc", "aaab", "babac", "123", "x y", "aaaa",
		"abcD", "hi bob@mail x", "cdabef", "colour", "zzzzz", "a\nb",
		"\x00\xff", strings.Repeat("ab", 50),
	}
	for _, c := range corpus {
		n, err := Compile(c.re)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Determinize(n, 0)
		if err != nil {
			t.Fatalf("determinize %q: %v", c.re, err)
		}
		m := d.Minimize()
		if m.NumStates() > d.NumStates() {
			t.Errorf("%q: minimized has more states (%d > %d)", c.re, m.NumStates(), d.NumStates())
		}
		r := NewRunner(n)
		for _, in := range inputs {
			want := r.Match([]byte(in))
			if got := d.Match([]byte(in)); got != want {
				t.Errorf("%q on %q: DFA %v, NFA %v", c.re, in, got, want)
			}
			if got := m.Match([]byte(in)); got != want {
				t.Errorf("%q on %q: minimized DFA %v, NFA %v", c.re, in, got, want)
			}
		}
	}
}

// TestDifferentialVsStdlib checks containment semantics against Go's
// regexp engine across random ASCII inputs.
func TestDifferentialVsStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, c := range corpus {
		if c.re == "" {
			continue
		}
		std := regexp.MustCompile(c.re)
		n, err := Compile(c.re)
		if err != nil {
			t.Fatal(err)
		}
		run := NewRunner(n)
		d, err := Determinize(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			buf := make([]byte, r.Intn(40))
			for j := range buf {
				buf[j] = byte(' ' + r.Intn(95))
			}
			want := std.Match(buf)
			if got := run.Match(buf); got != want {
				t.Errorf("%q on %q: NFA %v, stdlib %v", c.re, buf, got, want)
			}
			if got := d.Match(buf); got != want {
				t.Errorf("%q on %q: DFA %v, stdlib %v", c.re, buf, got, want)
			}
		}
	}
}

func TestUnion(t *testing.T) {
	n, err := Union("abc", "[0-9]+x", "q{2}")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(n)
	for _, in := range []string{"abc", "12x", "zzqq"} {
		if !r.Match([]byte(in)) {
			t.Errorf("union should match %q", in)
		}
	}
	for _, in := range []string{"ab", "x12", "q"} {
		if r.Match([]byte(in)) {
			t.Errorf("union should not match %q", in)
		}
	}
	if _, err := Union(); err == nil {
		t.Error("empty union accepted")
	}
	if _, err := Union("a", "("); err == nil {
		t.Error("union with a bad pattern accepted")
	}
}

func TestCountEnds(t *testing.T) {
	n, err := Compile("ab")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(n)
	if got := r.CountEnds([]byte("ab ab ab")); got != 3 {
		t.Errorf("NFA CountEnds = %d, want 3", got)
	}
	d, err := Determinize(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CountEnds([]byte("ab ab ab")); got != 3 {
		t.Errorf("DFA CountEnds = %d, want 3", got)
	}
}

func TestRunnerStats(t *testing.T) {
	n, err := Compile("(a|b)+c")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(n)
	r.Match([]byte("ababab"))
	if r.Steps != 6 {
		t.Errorf("Steps = %d, want 6", r.Steps)
	}
	if r.ActiveStateSteps < r.Steps {
		t.Errorf("ActiveStateSteps = %d < Steps", r.ActiveStateSteps)
	}
}

func TestAlphabetCompression(t *testing.T) {
	n, err := Compile("[a-z]+")
	if err != nil {
		t.Fatal(err)
	}
	classes, num, err := alphabetClasses(n)
	if err != nil {
		t.Fatal(err)
	}
	// Only two behaviours exist: in [a-z] or not.
	if num != 2 {
		t.Errorf("classes = %d, want 2", num)
	}
	if classes['a'] != classes['z'] || classes['a'] == classes['0'] {
		t.Error("compression mislabeled bytes")
	}
}

func TestDFAStateCap(t *testing.T) {
	// A pattern with exponential determinization: (a|b)*a(a|b){14}.
	n, err := Compile("(a|b)*a(a|b){14}")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Determinize(n, 100)
	if !errors.Is(err, ErrDFATooLarge) {
		t.Errorf("err = %v, want ErrDFATooLarge", err)
	}
	// With a generous cap it succeeds.
	if _, err := Determinize(n, 1<<17); err != nil {
		t.Errorf("generous cap failed: %v", err)
	}
}

func TestMinimizeShrinks(t *testing.T) {
	// (a|b)*abb has redundant subset states after determinization of
	// the unfolded Thompson form.
	n, err := Compile("(a|b)*abb")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Determinize(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Minimize()
	if m.NumStates() > d.NumStates() {
		t.Errorf("minimize grew: %d -> %d", d.NumStates(), m.NumStates())
	}
	// Idempotent.
	if m2 := m.Minimize(); m2.NumStates() != m.NumStates() {
		t.Errorf("minimize not idempotent: %d -> %d", m.NumStates(), m2.NumStates())
	}
}

func TestByteSet(t *testing.T) {
	var s ByteSet
	if !s.Empty() {
		t.Error("zero ByteSet not empty")
	}
	s.AddRange('a', 'c')
	s.Add(0)
	s.Add(255)
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
	for _, c := range []byte{'a', 'b', 'c', 0, 255} {
		if !s.Has(c) {
			t.Errorf("missing %d", c)
		}
	}
	if s.Has('d') {
		t.Error("spurious member")
	}
	s.Complement()
	if s.Has('a') || !s.Has('d') {
		t.Error("complement wrong")
	}
	if s.Len() != 251 {
		t.Errorf("complement Len = %d, want 251", s.Len())
	}
}

// TestStateSetQuick drives the bitset with testing/quick against a map
// reference model.
func TestStateSetQuick(t *testing.T) {
	f := func(adds []uint16) bool {
		const n = 300
		s := NewStateSet(n)
		ref := map[int]bool{}
		for _, a := range adds {
			i := int(a) % n
			s.Add(i)
			ref[i] = true
		}
		if s.Count() != len(ref) {
			return false
		}
		okAll := true
		s.ForEach(func(i int) {
			if !ref[i] {
				okAll = false
			}
		})
		for i := range ref {
			if !s.Has(i) {
				okAll = false
			}
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStateSetOps(t *testing.T) {
	a := NewStateSet(128)
	b := NewStateSet(128)
	a.Add(1)
	a.Add(64)
	b.Add(64)
	b.Add(127)
	a.Or(b)
	if a.Count() != 3 || !a.Has(127) {
		t.Errorf("Or wrong: count=%d", a.Count())
	}
	c := NewStateSet(128)
	c.CopyFrom(a)
	if !c.Equal(a) || string(c.AppendKey(nil)) != string(a.AppendKey(nil)) {
		t.Error("CopyFrom/Equal/Key wrong")
	}
	c.Clear()
	if !c.Empty() {
		t.Error("Clear failed")
	}
	if c.Equal(a) {
		t.Error("Equal on different sets")
	}
}

// TestUnfoldedRepeatStateCount sanity-checks the Thompson construction
// size scaling for counted repetitions — the inefficiency the paper's
// counter primitive removes.
func TestUnfoldedRepeatStateCount(t *testing.T) {
	small, err := Compile("a{2}")
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compile("a{40}")
	if err != nil {
		t.Fatal(err)
	}
	if big.NumStates() < 10*small.NumStates() {
		t.Errorf("a{40} states (%d) should dwarf a{2} states (%d)", big.NumStates(), small.NumStates())
	}
}
