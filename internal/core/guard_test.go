package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"alveare/internal/arch"
	"alveare/internal/backend"
	"alveare/internal/stream"
)

func TestPolicyStringAndParse(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"failfast", FailFast},
		{"fail-fast", FailFast},
		{"", FailFast},
		{"degrade", Degrade},
		{"skip", Skip},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePolicy("explode"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	for _, p := range []Policy{FailFast, Degrade, Skip} {
		round, err := ParsePolicy(p.String())
		if err != nil || round != p {
			t.Errorf("round-trip of %v failed: (%v, %v)", p, round, err)
		}
	}
}

func TestScanErrForLiftsOffsets(t *testing.T) {
	cause := errors.New("boom")
	err := scanErrFor(3, &arch.ExecError{Offset: 42, Cycle: 7, Err: cause})
	var se *ScanError
	if !errors.As(err, &se) || se.Rule != 3 || se.Offset != 42 {
		t.Fatalf("from ExecError: %+v", se)
	}
	if !errors.Is(err, cause) {
		t.Fatal("cause lost through ScanError")
	}

	err = scanErrFor(-1, &stream.ReadError{Offset: 99, Err: cause})
	if !errors.As(err, &se) || se.Rule != -1 || se.Offset != 99 {
		t.Fatalf("from ReadError: %+v", se)
	}

	err = scanErrFor(5, cause)
	if !errors.As(err, &se) || se.Rule != 5 || se.Offset != -1 {
		t.Fatalf("from bare error: %+v", se)
	}

	// A ScanError passes through, gaining the rule index if it had none.
	inner := &ScanError{Rule: -1, Offset: 7, Cause: cause}
	err = scanErrFor(2, inner)
	if !errors.As(err, &se) || se.Rule != 2 || se.Offset != 7 {
		t.Fatalf("rule upgrade: %+v", se)
	}
	if scanErrFor(0, nil) != nil {
		t.Fatal("scanErrFor(0, nil) != nil")
	}
}

// TestRuleSetPanicIsolation corrupts one rule's lane pool so that
// borrowing a lane panics, and asserts the panic is recovered into
// that rule's Err slot without disturbing its neighbours; then lets a
// scan panic on a borrowed lane and asserts the lane is abandoned.
func TestRuleSetPanicIsolation(t *testing.T) {
	rs, err := NewRuleSet([]string{`ab+c`, `xx`}, backend.Options{}, WithPolicy(Skip))
	if err != nil {
		t.Fatal(err)
	}
	rs.lanes[0].New = func() any { panic("injected core fault") }
	out, serr := rs.Scan([]byte("xxabbcxx"))
	if serr != nil {
		t.Fatalf("scan err = %v, want nil under Skip", serr)
	}
	byRule := map[int]RuleMatches{}
	for _, rm := range out {
		byRule[rm.Rule] = rm
	}
	var se *ScanError
	if rm := byRule[0]; !errors.As(rm.Err, &se) || se.Rule != 0 {
		t.Fatalf("poisoned rule: err = %v, want its own *ScanError", rm.Err)
	}
	if rm := byRule[1]; rm.Err != nil || len(rm.Matches) != 2 {
		t.Fatalf("healthy rule: %d matches, err %v; want 2, nil", len(rm.Matches), rm.Err)
	}

	// Under FailFast the same fault aborts the whole scan.
	rsf, err := NewRuleSet([]string{`ab+c`, `xx`}, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsf.lanes[0].New = func() any { panic("injected core fault") }
	if _, serr := rsf.Scan([]byte("xxabbcxx")); serr == nil {
		t.Fatal("FailFast swallowed a rule panic")
	}

	// A lane whose scan panicked is never pooled again: its core and gate
	// may be mid-update. The tracer is the one caller-supplied code a
	// lane runs.
	armed := false
	rst, err := NewRuleSet([]string{`ab+c`}, backend.Options{}, WithPolicy(Skip), WithTracer(func(arch.TraceEvent) {
		if armed {
			panic("injected mid-scan fault")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if out, serr := rst.Scan([]byte("abbc")); serr != nil || len(out) != 1 || out[0].Err != nil {
		t.Fatalf("clean scan = %+v, %v", out, serr)
	}
	armed = true // whichever lane is borrowed now, pooled or new, runs the tracer
	if out, serr := rst.Scan([]byte("abbc")); serr != nil || len(out) != 1 || !errors.As(out[0].Err, &se) {
		t.Fatalf("faulted scan = %+v, %v; want the rule's own *ScanError", out, serr)
	}
	// Under the race detector sync.Pool drops Puts at random, so an empty
	// pool would prove nothing there.
	if ln := rst.lanes[0].Get(); !raceEnabled && ln != nil {
		t.Fatal("the lane whose scan panicked was pooled again")
	}
	armed = false
	if out, serr := rst.Scan([]byte("abbc")); serr != nil || len(out) != 1 || out[0].Err != nil || len(out[0].Matches) != 1 {
		t.Fatalf("scan on a fresh lane = %+v, %v", out, serr)
	}
}

// TestDegradeWithoutSourceFallsBackToSkip: a program with no pattern
// source (hand-assembled or deserialised without provenance) cannot
// feed the safe engine, so Degrade must contain the fault like Skip
// instead of failing.
func TestDegradeWithoutSourceFallsBackToSkip(t *testing.T) {
	p, err := Compile(`(a|aa)+b`)
	if err != nil {
		t.Fatal(err)
	}
	p.Source = ""
	cfg := arch.DefaultConfig()
	cfg.MaxCycles = 2000
	e, err := NewEngine(p, WithArchConfig(cfg), WithPolicy(Degrade))
	if err != nil {
		t.Fatal(err)
	}
	ms, ferr := e.FindAll([]byte(strings.Repeat("aab", 5) + strings.Repeat("a", 64)))
	if ferr != nil {
		t.Fatalf("err = %v, want nil (Degrade should degrade to Skip)", ferr)
	}
	if len(ms) == 0 {
		t.Fatal("the pre-fault matches were dropped")
	}
	if e.Stats().Fallbacks != 0 {
		t.Fatalf("Stats.Fallbacks = %d with no safe engine", e.Stats().Fallbacks)
	}
}

// TestEngineStatsMergeGuardCounters: Fallbacks and CancelledScans live
// in the engine layer and must survive Stats()/ResetStats().
func TestEngineStatsMergeGuardCounters(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.MaxCycles = 2000
	p, err := Compile(`(a|aa)+b`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p, WithArchConfig(cfg), WithPolicy(Degrade))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FindAll([]byte(strings.Repeat("a", 64))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.FindAllCtx(ctx, []byte("aab")); err == nil {
		t.Fatal("cancelled scan returned nil error")
	}
	st := e.Stats()
	if st.Fallbacks != 1 || st.CancelledScans != 1 {
		t.Fatalf("Stats = {Fallbacks:%d CancelledScans:%d}, want 1/1", st.Fallbacks, st.CancelledScans)
	}
	e.ResetStats()
	st = e.Stats()
	if st.Fallbacks != 0 || st.CancelledScans != 0 {
		t.Fatalf("counters survived ResetStats: %+v", st)
	}
}
