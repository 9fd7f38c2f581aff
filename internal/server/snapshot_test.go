package server

import (
	"sync"
	"testing"

	"alveare/internal/core"
)

// TestProgramCacheOverlappingGets: requests for one ad-hoc pattern that
// overlap — the first one's scan still running when the next arrives,
// or all of them arriving before the first compile is done — share one
// compiled rule set, so the pattern compiles once.
func TestProgramCacheOverlappingGets(t *testing.T) {
	c := newProgramCache(2)
	first, err := c.get("nee+dle", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first request still holds its rule set: nothing hands it back.
	second, err := c.get("nee+dle", nil)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("an overlapping get compiled the pattern again")
	}
	if hits, misses := c.stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits %d, misses %d; want 1, 1", hits, misses)
	}

	const callers = 8
	got := make([]*core.RuleSet, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], _ = c.get("ab+c", nil)
		}()
	}
	close(start)
	wg.Wait()
	for i, rs := range got {
		if rs == nil || rs != got[0] {
			t.Fatalf("caller %d got rule set %p, caller 0 %p: want one shared compile", i, rs, got[0])
		}
	}
	if _, misses := c.stats(); misses != 2 {
		t.Fatalf("misses %d after %d concurrent first gets, want 2 (one per pattern)", misses, callers)
	}

	// A broken pattern is returned as an error, never cached, and
	// evicts nothing; a third good one evicts the least recently used.
	for range 2 {
		if _, err := c.get("(", nil); err == nil {
			t.Fatal("a broken pattern compiled")
		}
	}
	if again, _ := c.get("nee+dle", nil); again != first {
		t.Fatal("a broken pattern evicted a compiled one")
	}
	if _, err := c.get("zz", nil); err != nil {
		t.Fatal(err)
	}
	if again, _ := c.get("ab+c", nil); again == got[0] {
		t.Fatal("the least recently used pattern survived eviction")
	}
	// Hits: the overlapping get, seven of the concurrent ones, nee+dle
	// after the broken pattern. Misses: one per compile attempt.
	if hits, misses := c.stats(); hits != 9 || misses != 6 {
		t.Fatalf("hits %d, misses %d; want 9, 6", hits, misses)
	}
}
