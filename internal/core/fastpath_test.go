package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"alveare/internal/backend"
	"alveare/internal/multicore"
)

func fastCorpus(t *testing.T) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	var b bytes.Buffer
	words := []string{"lorem", "ipsum", "dolor", "sit", "amet", "alpha42", "omega", "foo", "foobar"}
	for b.Len() < 1<<16 {
		b.WriteString(words[r.Intn(len(words))])
		b.WriteByte(" .,\n"[r.Intn(4)])
	}
	return b.Bytes()
}

// The gate never changes results: every Engine entry point must return
// byte-identical matches with and without WithDFA, and the gate
// counters must show it actually ran.
func TestEngineFastPathByteIdentical(t *testing.T) {
	patterns := []string{`foobar`, `a[a-z]+42`, `(lorem|ipsum) dolor`, `om+ega`, `zzz+q`}
	data := fastCorpus(t)
	for _, re := range patterns {
		p, err := Compile(re)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewEngine(p, WithDFA())
		if err != nil {
			t.Fatal(err)
		}
		if !fast.FastEnabled() {
			t.Fatalf("%q: fast path not enabled", re)
		}
		wantAll, err1 := slow.FindAll(data)
		gotAll, err2 := fast.FindAll(data)
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: FindAll errs %v / %v", re, err1, err2)
		}
		if !sameMatches(wantAll, gotAll) {
			t.Fatalf("%q: FindAll diverged: %d vs %d matches", re, len(wantAll), len(gotAll))
		}
		wantRd, err1 := slow.FindReader(bytes.NewReader(data))
		gotRd, err2 := fast.FindReader(bytes.NewReader(data))
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: FindReader errs %v / %v", re, err1, err2)
		}
		if !sameMatches(wantRd, gotRd) {
			t.Fatalf("%q: FindReader diverged", re)
		}
		fs := fast.FastStats()
		if fs.Probes == 0 {
			t.Fatalf("%q: gate never consulted: %+v", re, fs)
		}
		if len(wantAll) == 0 && fs.Confirms != 0 {
			t.Fatalf("%q: no matches but %d confirms", re, fs.Confirms)
		}
	}
}

// Multi-core engines gate whole chunks; results stay identical and
// match-free chunks are skipped.
func TestEngineFastPathMultiCore(t *testing.T) {
	p, err := Compile(`needle[0-9]`)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("hay "), 64*1024)
	copy(data[100:], "needle7")
	slow, _ := NewEngine(p, WithCores(4))
	fast, err := NewEngine(p, WithCores(4), WithDFA())
	if err != nil {
		t.Fatal(err)
	}
	want, err1 := slow.FindAll(data)
	got, err2 := fast.FindAll(data)
	if err1 != nil || err2 != nil || !sameMatches(want, got) || len(got) != 1 {
		t.Fatalf("multicore diverged: %v/%v, %d vs %d", err1, err2, len(want), len(got))
	}
	fast.ResetStats()
	res, err := fast.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	// One probe per gated chunk; a negative is a chunk never simulated.
	fs := fast.FastStats()
	if fs.Probes != int64(res.Chunks) || fs.Negatives == 0 || fs.Negatives != idleCores(res) {
		t.Fatalf("chunk gate accounting on mostly-hay input: %+v over %d chunks, %d idle", fs, res.Chunks, idleCores(res))
	}
}

// idleCores counts the chunks of a multi-core run no core simulated.
func idleCores(res multicore.Result) (n int64) {
	for _, st := range res.PerCore {
		if st.Cycles == 0 {
			n++
		}
	}
	return n
}

// The approx twin: every chunk is screened over the bytes it actually
// walks (its extended window), and screened − admitted is exactly the
// chunks never simulated.
func TestEngineApproxMultiCore(t *testing.T) {
	p, err := Compile(`needle[0-9]`)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("hay "), 64*1024)
	copy(data[100:], "needle7")
	const cores, overlap = 4, 64
	eng, err := NewEngine(p, WithCores(cores), WithOverlap(overlap), WithApprox())
	if err != nil {
		t.Fatal(err)
	}
	if !eng.ApproxEnabled() {
		t.Fatal("admission stage not enabled")
	}
	res, err := eng.Run(data)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("run: %d matches, err %v", len(res.Matches), err)
	}
	as := eng.ApproxStats()
	if as.ScreenedWindows != cores || as.ScreenedWindows-as.AdmittedWindows != idleCores(res) || idleCores(res) == 0 {
		t.Fatalf("chunk screen accounting: %+v, %d idle", as, idleCores(res))
	}
	if want := int64(len(data) + (cores-1)*overlap); as.ScreenedBytes != want {
		t.Fatalf("ScreenedBytes = %d, want the %d bytes the chunks walked", as.ScreenedBytes, want)
	}
	if as.ExactHitWindows != 1 {
		t.Fatalf("ExactHitWindows = %d, want 1", as.ExactHitWindows)
	}
}

// A tiny DFA cache on a thrashing pattern must bail mid-scan and fall
// back — with identical results and the fallback visibly counted.
func TestEngineFastPathCacheBlowupFallsBack(t *testing.T) {
	re := `a[ab]{14}`
	p, err := Compile(re)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = "ab"[r.Intn(2)]
	}
	for i := 10; i < len(data); i += 11 {
		data[i] = 'x' // keep it accept-free so the gate runs long enough
	}
	slow, _ := NewEngine(p)
	fast, err := NewEngine(p, WithDFA(), WithDFACache(16))
	if err != nil {
		t.Fatal(err)
	}
	want, err1 := slow.FindAll(data)
	got, err2 := fast.FindAll(data)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v / %v", err1, err2)
	}
	if !sameMatches(want, got) {
		t.Fatalf("blowup path diverged: %d vs %d", len(want), len(got))
	}
	fs := fast.FastStats()
	if fs.Bails == 0 {
		t.Fatalf("cache blowup not exercised: %+v", fs)
	}
}

// Cancellation inside the gate surfaces the same error chain as the
// slow path: a *ScanError wrapping context.Canceled.
func TestEngineFastPathCancellation(t *testing.T) {
	p, err := Compile(`needle`)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(p, WithDFA())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, ferr := fast.FindAllCtx(ctx, make([]byte, 1<<20))
	var se *ScanError
	if !errors.As(ferr, &se) || !errors.Is(ferr, context.Canceled) {
		t.Fatalf("cancelled fast scan error = %v, want *ScanError wrapping Canceled", ferr)
	}
	if fast.Stats().CancelledScans == 0 {
		t.Fatal("CancelledScans not counted")
	}
}

// RuleSet: prefilter dispatch must never change Scan/ScanReader
// results, and the skip counters must show it gated.
func TestRuleSetFastPathByteIdentical(t *testing.T) {
	patterns := []string{`foobar`, `alpha[0-9]+`, `omega`, `(lorem|zzz)`, `[a-z]*qqq7`}
	data := fastCorpus(t)
	slow, err := NewRuleSet(patterns, backend.Options{}, WithChunkSize(4096), WithOverlap(64))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewRuleSet(patterns, backend.Options{}, WithChunkSize(4096), WithOverlap(64), WithDFA())
	if err != nil {
		t.Fatal(err)
	}
	if !fast.FastEnabled() || !fast.PrefilterEnabled() {
		t.Fatal("fast path / prefilter not enabled")
	}
	want, err1 := slow.Scan(data)
	got, err2 := fast.Scan(data)
	if err1 != nil || err2 != nil {
		t.Fatalf("Scan errs %v / %v", err1, err2)
	}
	if derr := sameRuleMatches(want, got); derr != nil {
		t.Fatalf("Scan diverged: %v", derr)
	}
	type hit struct {
		rule int
		m    Match
	}
	collect := func(rs *RuleSet) []hit {
		var out []hit
		_, err := rs.ScanReader(bytes.NewReader(data), func(rule int, m Match, _ []byte) bool {
			out = append(out, hit{rule, m})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	wantH, gotH := collect(slow), collect(fast)
	if len(wantH) != len(gotH) {
		t.Fatalf("ScanReader diverged: %d vs %d hits", len(wantH), len(gotH))
	}
	for i := range wantH {
		if wantH[i] != gotH[i] {
			t.Fatalf("hit %d diverged: %+v vs %+v", i, wantH[i], gotH[i])
		}
	}
	fs := fast.FastStats()
	if fs.PrefilterSkips == 0 || fs.PrefilterPasses == 0 {
		t.Fatalf("prefilter did not gate: %+v", fs)
	}
	if fs.Probes == 0 || fs.Negatives == 0 {
		t.Fatalf("gates did not run: %+v", fs)
	}
	if slow.Dispatched() <= fast.Dispatched() {
		t.Fatalf("prefilter did not reduce dispatch: %d vs %d", slow.Dispatched(), fast.Dispatched())
	}
}

// A rule the lazy DFA cannot gate (oversized NFA) still scans — on the
// exact path — and the prefilter still gates the others.
func TestRuleSetFastPathUnsupportedRule(t *testing.T) {
	big := `x` + strings.Repeat(`[ab]`, 5000) // NFA past the lazy bound
	rs, err := NewRuleSet([]string{`foobar`, big}, backend.Options{}, WithDFA())
	if err != nil {
		t.Fatal(err)
	}
	out, err := rs.Scan([]byte("a foobar b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Rule != 0 || len(out[0].Matches) != 1 {
		t.Fatalf("unexpected result: %+v", out)
	}
}

func sameMatches(a, b []Match) bool {
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
