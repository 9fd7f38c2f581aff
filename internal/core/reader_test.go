package core

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
)

// The one pull-mode driver, RuleSet.ScanReaderCtx over a rule set of
// one — what an Engine's ScanReader runs — against the behaviours the
// window discipline promises: one-shot equivalence for every chunk and
// overlap that covers the longest match, exact read-error offsets,
// cancellation at a window boundary, and a window that grows across
// refills smaller than the overlap.

// oneRuleReader scans data with one rule through the rule set's pull
// driver and collects the matches it emits.
func oneRuleReader(t *testing.T, pattern string, chunk, overlap int, r io.Reader, data []byte) ([]Match, int64, error) {
	t.Helper()
	rs, err := NewRuleSet([]string{pattern}, backend.Options{}, WithChunkSize(chunk), WithOverlap(overlap))
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	n, err := rs.ScanReaderCtx(context.Background(), r, func(rule int, m Match, text []byte) bool {
		if !bytes.Equal(text, data[m.Start:m.End]) {
			t.Fatalf("%q: text %q is not data[%d:%d]", pattern, text, m.Start, m.End)
		}
		got = append(got, m)
		return true
	})
	return got, n, err
}

func oneShotMatches(t *testing.T, pattern string, data []byte) []Match {
	t.Helper()
	p, err := Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	c, err := arch.NewCore(p, arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := c.FindAll(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestRuleSetReaderOneRuleChunking(t *testing.T) {
	patterns := []string{"ab", "a+b", "[a-f]{3}", "[^ ]+", "x(a|b)*y", "[0-9]{2,4}", "a*", "(ab|cd)+x"}
	r := rand.New(rand.NewSource(2024))
	alphabet := "abcdefqwrxyz0123 "
	for _, pat := range patterns {
		buf := make([]byte, 50+r.Intn(2000))
		for j := range buf {
			buf[j] = alphabet[r.Intn(len(alphabet))]
		}
		for _, w := range []string{"ab", "aabb", "xaby", "0123", "abcdx"} {
			copy(buf[r.Intn(len(buf)-len(w)+1):], w)
		}
		want := oneShotMatches(t, pat, buf)
		longest := 1
		for _, m := range want {
			longest = max(longest, m.End-m.Start)
		}
		for _, chunk := range []int{1, 7, 64, 4096} {
			for _, overlap := range []int{longest, longest + 13} {
				got, n, err := oneRuleReader(t, pat, chunk, overlap, bytes.NewReader(buf), buf)
				if err != nil || n != int64(len(buf)) {
					t.Fatalf("%q chunk=%d overlap=%d: consumed %d of %d, err %v", pat, chunk, overlap, n, len(buf), err)
				}
				if !sameMatches(got, want) {
					t.Fatalf("%q chunk=%d overlap=%d:\n got %v\nwant %v", pat, chunk, overlap, got, want)
				}
			}
		}
	}

	// The most fragmented reader, and chunks far below the overlap: the
	// window grows across refills until it covers one overlap.
	data := []byte("xxabbcxxabcx" + strings.Repeat("hay", 40) + "abbbbc")
	want := oneShotMatches(t, "ab+c", data)
	for _, c := range []struct{ chunk, overlap int }{{4, 8}, {5, 64}, {3, 4}} {
		got, _, err := oneRuleReader(t, "ab+c", c.chunk, c.overlap, iotest.OneByteReader(bytes.NewReader(data)), data)
		if err != nil || !sameMatches(got, want) {
			t.Fatalf("chunk=%d overlap=%d: %v, %v; want %v", c.chunk, c.overlap, got, err, want)
		}
	}
}

// failAfter delivers data, then fails every read.
type failAfter struct {
	data []byte
	err  error
}

func (r *failAfter) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestRuleSetReaderOneRuleFaults(t *testing.T) {
	boom := errors.New("boom")
	data := []byte(strings.Repeat("axbx", 25)) // 100 bytes, 50 matches
	want := oneShotMatches(t, "x", data)
	for _, chunk := range []int{1, 8, 64, 256} {
		e, err := NewEngine(mustCompile(t, "x"), WithChunkSize(chunk), WithOverlap(4))
		if err != nil {
			t.Fatal(err)
		}
		var got []Match
		n, serr := e.ScanReader(&failAfter{data: data[:70], err: boom}, func(m Match, _ []byte) bool {
			got = append(got, m)
			return true
		})
		var se *ScanError
		if !errors.As(serr, &se) || se.Rule != -1 || se.Offset != 70 || !errors.Is(serr, boom) {
			t.Fatalf("chunk=%d: err = %v, want *ScanError{Rule: -1, Offset: 70} wrapping boom", chunk, serr)
		}
		if n != 70 || len(got) > len(want) || !sameMatches(got, want[:len(got)]) {
			t.Fatalf("chunk=%d: consumed %d, emitted %v; want 70 and a prefix of the one-shot matches", chunk, n, got)
		}
	}

	// Cancellation is observed at the first window boundary: nothing is
	// consumed, and the scan counts as cancelled.
	e, err := NewEngine(mustCompile(t, "x"), WithChunkSize(8), WithOverlap(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, serr := e.ScanReaderCtx(ctx, bytes.NewReader(data), func(Match, []byte) bool {
		t.Fatal("a cancelled scan emitted")
		return false
	})
	var se *ScanError
	if !errors.As(serr, &se) || se.Offset != 0 || !errors.Is(serr, context.Canceled) || n != 0 {
		t.Fatalf("cancelled scan: consumed %d, err %v; want 0 and a *ScanError at 0 wrapping Canceled", n, serr)
	}
	if e.Stats().CancelledScans != 1 {
		t.Fatalf("CancelledScans = %d, want 1", e.Stats().CancelledScans)
	}
}

// mustCompile compiles pattern or fails the test.
func mustCompile(t *testing.T, pattern string) *Program {
	t.Helper()
	p, err := Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
