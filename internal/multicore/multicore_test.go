package multicore

import (
	"context"
	"strings"
	"testing"

	"alveare/internal/arch"
	"alveare/internal/backend"
)

func engine(t *testing.T, re string, cores int) *Engine {
	t.Helper()
	p, err := backend.Compile(re, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, cores, arch.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCountMatchesSingleCore(t *testing.T) {
	// Short, well-separated matches: multi-core counting must agree
	// with the single core exactly.
	data := []byte(strings.Repeat(strings.Repeat("x", 97)+"needle", 64))
	want := 64
	for _, n := range []int{1, 2, 4, 10} {
		e := engine(t, "needle", n)
		got, _, err := e.Count(data)
		if err != nil {
			t.Fatalf("%d cores: %v", n, err)
		}
		if got != want {
			t.Errorf("%d cores: count = %d, want %d", n, got, want)
		}
	}
}

func TestMatchesSortedAndPositioned(t *testing.T) {
	data := []byte("..ab....ab..ab.")
	e := engine(t, "ab", 3)
	res, err := e.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	wantStarts := []int{2, 8, 12}
	if len(res.Matches) != len(wantStarts) {
		t.Fatalf("matches = %v", res.Matches)
	}
	for i, m := range res.Matches {
		if m.Start != wantStarts[i] || m.End != wantStarts[i]+2 {
			t.Errorf("match %d = %v, want start %d", i, m, wantStarts[i])
		}
	}
}

func TestBoundaryOverlap(t *testing.T) {
	// A match straddling the chunk boundary must be found by the core
	// owning its start, thanks to the overlap window.
	data := make([]byte, 1000)
	for i := range data {
		data[i] = '.'
	}
	copy(data[498:], "needle") // 2 cores -> boundary at 500
	e := engine(t, "needle", 2)
	res, err := e.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Start != 498 {
		t.Errorf("matches = %v, want one at 498", res.Matches)
	}
}

func TestWallCyclesScaleOut(t *testing.T) {
	// The paper's scale-out claim: multi-core wall cycles shrink close
	// to linearly on scan-dominated workloads.
	data := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 4000))
	p, err := backend.Compile("zebra", backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wall := map[int]int64{}
	for _, n := range []int{1, 10} {
		e, err := New(p, n, arch.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		wall[n] = res.WallCycles
	}
	speedup := float64(wall[1]) / float64(wall[10])
	if speedup < 6 {
		t.Errorf("10-core speedup = %.2f, want > 6 on scan-dominated data", speedup)
	}
	if speedup > 11 {
		t.Errorf("10-core speedup = %.2f exceeds linear", speedup)
	}
}

func TestPerCoreStats(t *testing.T) {
	e := engine(t, "a", 4)
	res, err := e.Run([]byte(strings.Repeat("ba", 2000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("PerCore = %d entries", len(res.PerCore))
	}
	var sum int64
	for _, st := range res.PerCore {
		if st.Cycles == 0 {
			t.Error("idle core recorded zero cycles despite having data")
		}
		sum += st.Cycles + StartupCycles
	}
	if sum != res.TotalCycles {
		t.Errorf("TotalCycles %d != sum (cycles+startup) %d", res.TotalCycles, sum)
	}
	if res.WallCycles > res.TotalCycles {
		t.Error("wall cycles exceed total")
	}
}

func TestDegenerateInputs(t *testing.T) {
	e := engine(t, "ab", 4)
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("empty data produced matches: %v", res.Matches)
	}

	// More cores than bytes.
	res, err = e.Run([]byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Errorf("matches = %v", res.Matches)
	}

	if _, err := New(e.prog, 0, arch.DefaultConfig(), 0); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestOverlapParameter(t *testing.T) {
	p, err := backend.Compile("longneedlepattern", backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 400)
	for i := range data {
		data[i] = '.'
	}
	copy(data[195:], "longneedlepattern") // straddles the 2-core boundary at 200

	// An overlap shorter than the match misses it (the documented blind
	// spot); the default overlap finds it.
	tiny, err := New(p, 2, arch.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tiny.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("4-byte overlap unexpectedly found %v", res.Matches)
	}
	deflt, err := New(p, 2, arch.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = deflt.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Start != 195 {
		t.Errorf("default overlap: %v", res.Matches)
	}
}

func TestRunawayPropagates(t *testing.T) {
	p, err := backend.Compile("(a|aa)+b", backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.DefaultConfig()
	cfg.MaxCycles = 1000
	e, err := New(p, 2, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run([]byte(strings.Repeat("a", 200))); err == nil {
		t.Error("runaway error did not propagate from the failing core")
	}
}

func TestCoresAccessor(t *testing.T) {
	e := engine(t, "a", 7)
	if e.Cores() != 7 {
		t.Errorf("Cores = %d", e.Cores())
	}
}

// TestAdmitPredicate: the per-chunk predicate is asked once per chunk
// in stream order with the chunk's extended window; a rejected chunk is
// never simulated (zero counters, only the start-up cost) and a nil
// predicate runs them all.
func TestAdmitPredicate(t *testing.T) {
	data := []byte(strings.Repeat(".", 4000) + "needle" + strings.Repeat(".", 4000))
	e := engine(t, "needle", 4)
	all, err := e.Run(data)
	if err != nil || len(all.Matches) != 1 || all.Hits != 1 {
		t.Fatalf("ungated run: %+v, %v", all, err)
	}
	var asked, bytes int
	res, err := e.RunCtx(context.Background(), data, func(window []byte) bool {
		asked++
		bytes += len(window)
		return strings.Contains(string(window), "needle")
	})
	if err != nil || len(res.Matches) != 1 || res.Matches[0] != all.Matches[0] || res.Hits != 1 {
		t.Fatalf("gated run: %+v, %v", res, err)
	}
	if asked != res.Chunks || bytes != len(data)+(res.Chunks-1)*DefaultOverlap {
		t.Fatalf("predicate asked %d times over %d bytes, want %d chunks with their overlap", asked, bytes, res.Chunks)
	}
	idle := 0
	for _, st := range res.PerCore {
		if st.Cycles == 0 {
			idle++
		}
	}
	if idle != res.Chunks-1 {
		t.Fatalf("%d idle cores, want all but the one holding the match: %+v", idle, res.PerCore)
	}
	if res.TotalCycles >= all.TotalCycles {
		t.Fatalf("rejected chunks still burned cycles: %d vs %d", res.TotalCycles, all.TotalCycles)
	}
}
