package client

import (
	"testing"
	"time"
)

// The health-probe interval must be full-jittered — uniform draws
// over (0, interval) with an interval/16 floor — so a fleet of
// gateways sharing a config cannot synchronise into a probe storm
// against a recovering shard. This pins the jitter's bounds, spread
// and determinism.
func TestBackendsProbeJitter(t *testing.T) {
	srv := newFakeSrv(t, pongHandler)
	const interval = 160 * time.Millisecond
	bs, err := NewBackends([]string{srv.addr()}, BackendsConfig{
		Seed: 99,
		// ProbeInterval deliberately unset: the loop must not start,
		// but probeWait still draws over the window set below.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	bs.probeWait.base, bs.probeWait.max = interval, interval

	floor := interval / 16
	seen := map[time.Duration]bool{}
	var prev time.Duration
	monotone := true
	for i := 0; i < 200; i++ {
		d := bs.probeWait.Delay(1)
		if d < floor || d >= interval {
			t.Fatalf("draw %d: %v outside [%v, %v)", i, d, floor, interval)
		}
		seen[d] = true
		if i > 0 && d != prev {
			monotone = false
		}
		prev = d
	}
	if len(seen) < 50 {
		t.Errorf("only %d distinct draws in 200; the interval is not jittered", len(seen))
	}
	if monotone {
		t.Error("every draw identical; a fixed ticker in disguise")
	}

	// Same seed, same schedule: the jitter is replayable.
	bs2, err := NewBackends([]string{srv.addr()}, BackendsConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer bs2.Close()
	bs2.probeWait.base, bs2.probeWait.max = interval, interval
	for i := 0; i < 20; i++ {
		// bs has consumed 200 draws; use a third fresh instance to
		// compare against bs2 from the start.
	}
	bs3, err := NewBackends([]string{srv.addr()}, BackendsConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer bs3.Close()
	bs3.probeWait.base, bs3.probeWait.max = interval, interval
	for i := 0; i < 50; i++ {
		if a, b := bs2.probeWait.Delay(1), bs3.probeWait.Delay(1); a != b {
			t.Fatalf("draw %d: seeds equal but draws differ (%v vs %v)", i, a, b)
		}
	}
	// Different seeds decorrelate.
	bs4, err := NewBackends([]string{srv.addr()}, BackendsConfig{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer bs4.Close()
	bs4.probeWait.base, bs4.probeWait.max = interval, interval
	same := 0
	for i := 0; i < 50; i++ {
		if bs2.probeWait.Delay(1) == bs4.probeWait.Delay(1) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("%d/50 draws collide across different seeds; fleet members would synchronise", same)
	}
}

// The prober actually drives a non-closed breaker back to closed
// without any request traffic.
func TestBackendsProberRecoversBreaker(t *testing.T) {
	srv := newFakeSrv(t, pongHandler)
	bs, err := NewBackends([]string{srv.addr()}, BackendsConfig{
		Seed:            7,
		BreakerFailures: 1,
		BreakerCooldown: 2 * time.Millisecond,
		ProbeInterval:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()

	// Fail the breaker open by hand; the prober must rescue it.
	bs.members[0].brk.onFailure()
	if bs.State(0) != BreakerOpen {
		t.Fatalf("breaker not open after forced failure")
	}
	deadline := time.Now().Add(5 * time.Second)
	for bs.State(0) != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("prober never closed the breaker (state %v)", bs.State(0))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
