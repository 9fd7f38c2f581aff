package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"alveare/internal/anmlzoo"
	"alveare/internal/backend"
)

// allocFixture is a warm rule set built the way the scan server builds
// its own (both skip tiers on, twenty PowerEN rules) with the units the
// allocation budgets are stated over, picked out of the suite's own
// traffic by what the rule set's counters say happened to them.
type allocFixture struct {
	rs       *RuleSet
	screened []byte // approx proves it clean: nothing is dispatched
	barren   []byte // admitted, every rule dispatched, no rule matches
}

// newAllocFixture cuts the suite's dataset into size-byte units and keeps
// the first barren one; the screened unit is padding no rule's language
// comes near.
func newAllocFixture(t testing.TB, size int, opts ...Option) *allocFixture {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so borrows allocate")
	}
	suite := anmlzoo.PowerEN(20, 256<<10, 2024)
	rs, err := NewRuleSet(suite.Patterns, backend.Options{}, append([]Option{WithDFA(), WithApprox()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	f := &allocFixture{rs: rs, screened: bytes.Repeat([]byte("pad "), size/4)}
	if out, err := rs.Scan(f.screened); err != nil || out != nil || rs.ApproxStats().AdmittedWindows != 0 {
		t.Fatalf("fixture drifted: the padding unit was admitted (%d matching rules, %v)", len(out), err)
	}
	for off := 0; off+size <= len(suite.Dataset); off += size {
		unit := suite.Dataset[off : off+size]
		jobs := rs.Dispatched()
		out, err := rs.Scan(unit)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil && rs.Dispatched()-jobs == int64(rs.Len()) {
			f.barren = unit
			return f
		}
	}
	t.Fatalf("fixture drifted: no %d-byte unit dispatches every rule and matches nothing", size)
	return nil
}

// allocsPer is testing.AllocsPerRun over a scan that must keep answering
// what the fixture promised.
func allocsPer(t *testing.T, rs *RuleSet, unit []byte, wantRules int) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, func() {
		if out, err := rs.Scan(unit); err != nil || len(out) != wantRules {
			t.Fatalf("Scan = %d rules, %v; want %d, nil", len(out), err, wantRules)
		}
	})
}

// TestRuleSetAllocationBudget pins what a unit of input costs the
// allocator once the rule set is warm: the fan-out's scratch, the lanes
// and the candidate mask are all reused, so only results allocate.
func TestRuleSetAllocationBudget(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		f := newAllocFixture(t, 200) // 20 rules × 200 B: far below spawnAbove
		if n := allocsPer(t, f.rs, f.screened, 0); n != 0 {
			t.Errorf("a unit approx screens out allocates %v times, want 0", n)
		}
		if n := allocsPer(t, f.rs, f.barren, 0); n > 1 {
			t.Errorf("a unit that dispatches every rule and matches nothing allocates %v times inline, want <= 1", n)
		}
		if occ := f.rs.WorkerOccupancy(); len(occ) != 1 {
			t.Errorf("small units used %d worker slots, want the caller's alone", len(occ))
		}

		// k matching rules: one witness of each planted into the barren
		// unit costs one match slice per rule plus the result list.
		r := rand.New(rand.NewSource(5))
		unit, k := append([]byte(nil), f.barren...), 0
		for _, i := range []int{2, 9, 17} {
			w, err := anmlzoo.Witness(f.rs.Pattern(i), r)
			if err != nil {
				t.Fatal(err)
			}
			copy(unit[k*60:], w)
			copy(unit[k*60+len(w):], "  ")
			k++
		}
		out, err := f.rs.Scan(unit)
		if err != nil || len(out) < k {
			t.Fatalf("planted %d witnesses, Scan = %d rules, %v", k, len(out), err)
		}
		matches := 0
		for _, rm := range out {
			matches += len(rm.Matches)
		}
		if matches != len(out) {
			t.Fatalf("fixture drifted: %d matches over %d rules, want one each", matches, len(out))
		}
		if n := allocsPer(t, f.rs, unit, len(out)); n > float64(len(out)+3) {
			t.Errorf("a unit with %d matching rules allocates %v times, want <= %d", len(out), n, len(out)+3)
		}
	})

	t.Run("two-wide", func(t *testing.T) {
		f := newAllocFixture(t, 4<<10, WithWorkers(2)) // 20 rules × 4 KiB: past spawnAbove
		if n := allocsPer(t, f.rs, f.screened, 0); n != 0 {
			t.Errorf("a unit approx screens out allocates %v times, want 0", n)
		}
		if n := allocsPer(t, f.rs, f.barren, 0); n > 4 {
			t.Errorf("a unit that dispatches every rule and matches nothing allocates %v times two-wide, want <= 4", n)
		}
		if occ := f.rs.WorkerOccupancy(); len(occ) != 2 {
			t.Errorf("large units used %d worker slots, want 2", len(occ))
		}
	})

	t.Run("stream", func(t *testing.T) {
		f := newAllocFixture(t, 200)
		st := f.rs.NewStream(0)
		push := func(frame []byte) {
			cont, err := st.PushCtx(context.Background(), frame, func(rule int, m Match, _ []byte) bool {
				t.Fatalf("rule %d matched %v in a frame that matches nothing", rule, m)
				return false
			})
			if !cont || err != nil {
				t.Fatalf("PushCtx = %v, %v", cont, err)
			}
		}
		// The separator keeps one frame's tail and the next one's head
		// from forming a match across the boundary.
		frame := append(append([]byte(nil), f.barren...), "  "...)
		for i := 0; i < 8; i++ {
			push(frame) // grow the window to its steady size
		}
		jobs := f.rs.Dispatched()
		if n := testing.AllocsPerRun(200, func() { push(frame) }); n > 1 {
			t.Errorf("Stream.PushCtx of a no-match frame into a grown window allocates %v times, want <= 1", n)
		}
		if f.rs.Dispatched() == jobs {
			t.Fatal("the frames were screened out: the budget was stated over dispatched windows")
		}
		if n := testing.AllocsPerRun(200, func() { push(f.screened) }); n != 0 {
			t.Errorf("Stream.PushCtx of a frame approx screens out allocates %v times, want 0", n)
		}
	})
}
