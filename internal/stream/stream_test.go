package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"alveare/internal/arch"
	"alveare/internal/backend"
	"alveare/internal/isa"
)

func compile(t *testing.T, re string) *isa.Program {
	t.Helper()
	p, err := backend.Compile(re, backend.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", re, err)
	}
	return p
}

func oneShot(t *testing.T, p *isa.Program, data []byte) []arch.Match {
	t.Helper()
	core, err := arch.NewCore(p, arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.FindAll(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// scanner is the overlap discipline driven over one resume position the
// way core.Stream drives it per rule: Window.Fill refills, ScanWindowCtx
// finalises the owned region, Carry keeps the tail. These tests pin the
// window machine itself; internal/core pins the rule set's driver.
type scanner struct {
	core *arch.Core
	cfg  Config
}

func newScanner(t *testing.T, p *isa.Program, cfg Config) *scanner {
	t.Helper()
	core, err := arch.NewCore(p, arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &scanner{core: core, cfg: cfg}
}

// Scan consumes r to EOF, emitting every match in stream order, and
// returns the bytes consumed.
func (s *scanner) Scan(r io.Reader, emit EmitFunc) (int64, error) {
	ctx := context.Background()
	w := NewWindow(s.cfg.Overlap, 0, nil)
	pos := 0
	err := w.Fill(ctx, r, s.cfg.ChunkSize, func(_ int, final bool) (bool, error) {
		var cont bool
		var err error
		pos, cont, err = ScanWindowCtx(ctx, s.core, w.Bytes(), w.Base(), final, w.Overlap(), pos, emit)
		if cont && err == nil && !final {
			w.Carry(w.OwnEnd(false))
		}
		return cont, err
	})
	return int64(w.Limit()), err
}

func (s *scanner) FindAll(r io.Reader) ([]arch.Match, error) {
	var out []arch.Match
	_, err := s.Scan(r, func(m arch.Match, _ []byte) bool {
		out = append(out, m)
		return true
	})
	return out, err
}

func (s *scanner) Count(r io.Reader) (int, error) {
	ms, err := s.FindAll(r)
	return len(ms), err
}

func maxMatchLen(ms []arch.Match) int {
	n := 0
	for _, m := range ms {
		if l := m.End - m.Start; l > n {
			n = l
		}
	}
	return n
}

func sameMatches(a, b []arch.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlanCoversStream(t *testing.T) {
	cases := []struct{ n, parts, overlap int }{
		{0, 1, 8}, {0, 4, 8}, {1, 4, 8}, {10, 3, 2}, {100, 7, 16},
		{4096, 10, 256}, {5, 8, 3},
	}
	for _, c := range cases {
		chunks := Plan(c.n, c.parts, c.overlap)
		if len(chunks) == 0 {
			t.Fatalf("Plan(%d,%d,%d): no chunks", c.n, c.parts, c.overlap)
		}
		if len(chunks) > c.parts {
			t.Errorf("Plan(%d,%d,%d): %d chunks > %d parts", c.n, c.parts, c.overlap, len(chunks), c.parts)
		}
		next := 0
		for i, ch := range chunks {
			if ch.Lo != next {
				t.Errorf("Plan(%d,%d,%d): chunk %d starts at %d, want %d", c.n, c.parts, c.overlap, i, ch.Lo, next)
			}
			if ch.Hi < ch.Lo || ch.Ext < ch.Hi || ch.Ext > c.n {
				t.Errorf("Plan(%d,%d,%d): bad chunk %+v", c.n, c.parts, c.overlap, ch)
			}
			if ch.Ext-ch.Hi > c.overlap {
				t.Errorf("Plan(%d,%d,%d): chunk %d read-ahead %d exceeds overlap", c.n, c.parts, c.overlap, i, ch.Ext-ch.Hi)
			}
			next = ch.Hi
		}
		if next != c.n && c.n > 0 {
			t.Errorf("Plan(%d,%d,%d): coverage ends at %d", c.n, c.parts, c.overlap, next)
		}
	}
}

func TestOwnMatches(t *testing.T) {
	ms := []arch.Match{{Start: 0, End: 3}, {Start: 5, End: 9}, {Start: 10, End: 12}}
	got := OwnMatches(ms, 100, 110)
	want := []arch.Match{{Start: 100, End: 103}, {Start: 105, End: 109}}
	if !sameMatches(got, want) {
		t.Errorf("OwnMatches = %v, want %v", got, want)
	}
	if out := OwnMatches(nil, 0, 10); out != nil {
		t.Errorf("OwnMatches(nil) = %v", out)
	}
}

func TestScannerAcrossBoundaries(t *testing.T) {
	p := compile(t, "ab+c")
	data := []byte(strings.Repeat("zzzz", 5) + "abbbc" + strings.Repeat("y", 9) + "abc" + "abbc")
	want := oneShot(t, p, data)
	for _, chunk := range []int{1, 2, 3, 5, 7, 16} {
		s := newScanner(t, p, Config{ChunkSize: chunk, Overlap: 8})
		got, err := s.FindAll(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(got, want) {
			t.Errorf("chunk %d: %v, want %v", chunk, got, want)
		}
	}
}

func TestScannerTextWindow(t *testing.T) {
	p := compile(t, "[0-9]+")
	data := []byte("a1b22c333d4444e")
	s := newScanner(t, p, Config{ChunkSize: 4, Overlap: 6})
	var texts []string
	if _, err := s.Scan(bytes.NewReader(data), func(m arch.Match, text []byte) bool {
		if !bytes.Equal(text, data[m.Start:m.End]) {
			t.Errorf("text %q != data[%d:%d] %q", text, m.Start, m.End, data[m.Start:m.End])
		}
		texts = append(texts, string(text))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "22", "333", "4444"}
	if len(texts) != len(want) {
		t.Fatalf("texts = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("texts[%d] = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestScannerEarlyStop(t *testing.T) {
	p := compile(t, "x")
	data := []byte(strings.Repeat("ax", 1000))
	s := newScanner(t, p, Config{ChunkSize: 64, Overlap: 4})
	seen := 0
	if _, err := s.Scan(bytes.NewReader(data), func(arch.Match, []byte) bool {
		seen++
		return seen < 3
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Errorf("emitted %d matches after stop at 3", seen)
	}
}

func TestScannerEmptyAndTinyInputs(t *testing.T) {
	p := compile(t, "a*")
	for _, in := range []string{"", "b", "a", "aa"} {
		want := oneShot(t, p, []byte(in))
		s := newScanner(t, p, Config{ChunkSize: 3, Overlap: 4})
		got, err := s.FindAll(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(got, want) {
			t.Errorf("%q: %v, want %v", in, got, want)
		}
	}
}

func TestScannerChunkSmallerThanOverlap(t *testing.T) {
	p := compile(t, "needle")
	data := []byte(strings.Repeat("hay", 40) + "needle" + strings.Repeat("hay", 40))
	s := newScanner(t, p, Config{ChunkSize: 5, Overlap: 64})
	n, err := s.Count(bytes.NewReader(data))
	if err != nil || n != 1 {
		t.Fatalf("Count = %d, err %v", n, err)
	}
}

// failReader returns some data, then an error.
type failReader struct {
	data []byte
	err  error
}

func (r *failReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestScannerReadError(t *testing.T) {
	p := compile(t, "x")
	boom := errors.New("boom")
	s := newScanner(t, p, Config{ChunkSize: 8, Overlap: 4})
	_, err := s.Scan(&failReader{data: []byte("axbxcx more to come"), err: boom}, func(arch.Match, []byte) bool { return true })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestScannerBytesConsumed(t *testing.T) {
	p := compile(t, "q")
	data := bytes.Repeat([]byte("pad"), 1000)
	s := newScanner(t, p, Config{ChunkSize: 100, Overlap: 10})
	n, err := s.Scan(bytes.NewReader(data), func(arch.Match, []byte) bool { return true })
	if err != nil || n != int64(len(data)) {
		t.Errorf("consumed %d, err %v, want %d", n, err, len(data))
	}
}

// TestChunkingEquivalenceProperty is the streaming correctness
// property: over a pattern/input grid, Scanner with chunk sizes
// {7, 64, 256, 4096} and varying overlaps yields byte-identical
// matches to a one-shot FindAll, whenever the overlap is at least the
// longest match (the documented contract).
func TestChunkingEquivalenceProperty(t *testing.T) {
	patterns := []string{
		"ab", "a+b", "[a-f]{3}", "[^ ]+", "(cat|dog)", "x(a|b)*y",
		"[0-9]{2,4}", "a*", "q(w|e)+?r", "z?a{2}b{1,2}", "[a-z]+ ",
		"(ab|cd)+x",
	}
	r := rand.New(rand.NewSource(2024))
	alphabet := "abcdefqwrxyz0123 "
	var inputs [][]byte
	for i := 0; i < 8; i++ {
		buf := make([]byte, 50+r.Intn(3000))
		for j := range buf {
			buf[j] = alphabet[r.Intn(len(alphabet))]
		}
		// Plant witnesses so the corpus is match-dense.
		for _, w := range []string{"ab", "aabb", "catdog", "xaby", "0123", "qwwer", "zaabb", "abcdx"} {
			p := r.Intn(len(buf) - len(w) + 1)
			copy(buf[p:], w)
		}
		inputs = append(inputs, buf)
	}

	for _, pat := range patterns {
		prog := compile(t, pat)
		for _, data := range inputs {
			want := oneShot(t, prog, data)
			minOverlap := maxMatchLen(want)
			if minOverlap < 1 {
				minOverlap = 1
			}
			for _, chunk := range []int{7, 64, 256, 4096} {
				for _, overlap := range []int{minOverlap, minOverlap + 13, 300} {
					if overlap < minOverlap {
						continue
					}
					s := newScanner(t, prog, Config{ChunkSize: chunk, Overlap: overlap})
					got, err := s.FindAll(bytes.NewReader(data))
					if err != nil {
						t.Fatalf("%q chunk=%d overlap=%d: %v", pat, chunk, overlap, err)
					}
					if !sameMatches(got, want) {
						t.Fatalf("%q chunk=%d overlap=%d len=%d:\n got %v\nwant %v",
							pat, chunk, overlap, len(data), got, want)
					}
				}
			}
		}
	}
}

// TestScannerOneByteReader exercises carry-over under the most
// fragmented reader possible (every Read returns one byte).
func TestScannerOneByteReader(t *testing.T) {
	p := compile(t, "ab+c")
	data := []byte("xxabbcxxabcx")
	want := oneShot(t, p, data)
	s := newScanner(t, p, Config{ChunkSize: 4, Overlap: 8})
	got, err := s.FindAll(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
