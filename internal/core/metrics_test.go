package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"alveare/internal/arch"
	"alveare/internal/backend"
	"alveare/internal/metrics"
	"alveare/internal/metrics/metricstest"
)

// TestEngineMetricsReplay pins the deterministic-replay contract on a
// single-core engine: the same input scanned twice yields byte-identical
// metrics snapshots.
func TestEngineMetricsReplay(t *testing.T) {
	p, err := Compile(`[a-z]+@[a-z]+\.(com|org)`)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("mail bob@acme.com and eve@evil.org now ", 40))
	metricstest.Replay(t, func() *metrics.Snapshot {
		eng, err := NewEngine(p, WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.FindAll(data); err != nil {
			t.Fatal(err)
		}
		return eng.MetricsSnapshot()
	})
}

// TestEngineMetricsReplayStream is the replay contract over the chunked
// reader scan, including the stream throughput counters.
func TestEngineMetricsReplayStream(t *testing.T) {
	p, err := Compile(`err(or)?`)
	if err != nil {
		t.Fatal(err)
	}
	data := strings.Repeat("boot ok\nerror: disk\nerr 12\n", 300)
	metricstest.Replay(t, func() *metrics.Snapshot {
		eng, err := NewEngine(p, WithMetrics(), WithChunkSize(512), WithOverlap(64))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.FindReader(strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		snap := eng.MetricsSnapshot()
		ctr := eng.StreamCounters()
		if ctr.Windows == 0 || ctr.Bytes != int64(len(data)) || ctr.Matches != 600 {
			t.Fatalf("stream counters %+v (want bytes=%d matches=600)", ctr, len(data))
		}
		return snap
	})
}

// TestMulticoreMetricsTotals pins the order-insensitive contract on the
// scale-out engine: per-run totals (summed over cores) replay exactly
// even though the cores race.
func TestMulticoreMetricsTotals(t *testing.T) {
	p, err := Compile(`ab+a`)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("x abba y abbba ", 500))
	metricstest.ReplayTotals(t, func() map[string]int64 {
		eng, err := NewEngine(p, WithCores(4), WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := eng.Run(data)
		if runErr != nil {
			t.Fatal(runErr)
		}
		if res.Chunks != 4 {
			t.Fatalf("Chunks = %d, want 4", res.Chunks)
		}
		var sum arch.Stats
		for _, st := range res.PerCore {
			sum.Add(st)
		}
		return map[string]int64{
			"matches":       int64(len(res.Matches)),
			"chunks":        int64(res.Chunks),
			"cycles":        sum.Cycles,
			"instructions":  sum.Instructions,
			"spec.pushes":   sum.Speculations,
			"spec.flushes":  sum.SpecFlushes,
			"dmem.accesses": sum.DMemAccesses,
			"l1.hits":       sum.L1Hits,
			"l1.misses":     sum.L1Misses,
		}
	})
}

// TestRuleSetOccupancyInvariant ties the worker-pool roll-ups to ground
// truth: every dispatched job lands on exactly one worker slot, so the
// occupancy counters sum to the dispatch count, for both the one-shot
// and the streaming scan.
func TestRuleSetOccupancyInvariant(t *testing.T) {
	rules := []string{"cat", "[0-9]+", "do+r", "x{3,5}y"}
	rs, err := NewRuleSet(rules, backend.Options{}, WithWorkers(3), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("cat 42 door xxxxy ", 100))
	const scans = 5
	for range [scans]struct{}{} {
		if _, err := rs.Scan(data); err != nil {
			t.Fatal(err)
		}
	}
	sum := int64(0)
	for _, c := range rs.WorkerOccupancy() {
		sum += c
	}
	if want := int64(scans * len(rules)); sum != want || rs.Dispatched() != want {
		t.Fatalf("occupancy sum %d, dispatched %d, want %d", sum, rs.Dispatched(), want)
	}

	// Streaming: dispatched grows by one job per live rule per window.
	before := rs.Dispatched()
	stream := strings.Repeat("cat 7 door xxxxy pad pad ", 400)
	if _, err := rs.ScanReader(strings.NewReader(stream), func(int, Match, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	windows := rs.StreamCounters().Windows
	if windows == 0 {
		t.Fatal("no windows recorded")
	}
	sum = 0
	for _, c := range rs.WorkerOccupancy() {
		sum += c
	}
	if sum != rs.Dispatched() {
		t.Fatalf("occupancy sum %d != dispatched %d", sum, rs.Dispatched())
	}
	if got, want := rs.Dispatched()-before, windows*int64(len(rules)); got != want {
		t.Fatalf("stream dispatched %d, want windows(%d) * rules(%d) = %d", got, windows, len(rules), want)
	}
	if rs.StreamCounters().Bytes != int64(len(stream)) {
		t.Fatalf("stream bytes %d, want %d", rs.StreamCounters().Bytes, len(stream))
	}

	// A unit whose every rule the prefilter withheld dispatches nothing
	// and starts no worker: no slot appears, none moves.
	lits := []string{"needle", "haystack"}
	pf, err := NewRuleSet(lits, backend.Options{}, WithWorkers(3), WithDFA())
	if err != nil {
		t.Fatal(err)
	}
	if pf.PrefilteredRules() != len(lits) {
		t.Fatalf("prefilter gates %d of %d rules", pf.PrefilteredRules(), len(lits))
	}
	clean := strings.Repeat("pad pad pad ", 50)
	scanClean := func() {
		t.Helper()
		if out, err := pf.Scan([]byte(clean)); err != nil || out != nil {
			t.Fatalf("clean Scan = %v, %v", out, err)
		}
		if _, err := pf.ScanReader(strings.NewReader(clean), func(int, Match, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	scanClean()
	if occ := pf.WorkerOccupancy(); len(occ) != 0 || pf.Dispatched() != 0 {
		t.Fatalf("all-skipped units: occupancy %v, dispatched %d, want none", occ, pf.Dispatched())
	}
	if _, err := pf.Scan([]byte("a needle in a haystack")); err != nil {
		t.Fatal(err)
	}
	before, sum = pf.Dispatched(), 0
	for _, c := range pf.WorkerOccupancy() {
		sum += c
	}
	if before != int64(len(lits)) || sum != before {
		t.Fatalf("dispatched %d, occupancy sum %d, want %d", before, sum, len(lits))
	}
	skips := pf.FastStats().PrefilterSkips
	scanClean()
	for _, c := range pf.WorkerOccupancy() {
		sum -= c
	}
	if pf.Dispatched() != before || sum != 0 {
		t.Fatalf("all-skipped units moved dispatched %d -> %d, occupancy sum by %d", before, pf.Dispatched(), -sum)
	}
	if got, want := pf.FastStats().PrefilterSkips-skips, int64(2*len(lits)); got != want {
		t.Fatalf("prefilter skips grew by %d, want %d (every rule, both units)", got, want)
	}
}

// TestRuleSetSnapshotUnitAtomic: a metrics snapshot taken while scans run
// holds whole units only. A unit's dispatch count, its worker slots'
// jobs, its prefilter passes and its gates' outcomes are folded under
// one lock acquisition and copied out under one, so in every snapshot
// they agree — a STATS reader never sees gate probes of a unit whose
// dispatch is not counted yet.
func TestRuleSetSnapshotUnitAtomic(t *testing.T) {
	rs, err := NewRuleSet(testRules(), backend.Options{}, WithDFA(), WithApprox(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(data []byte, streamed bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if streamed {
					_, err = rs.ScanReader(bytes.NewReader(data), func(int, Match, []byte) bool { return true })
				} else {
					_, err = rs.Scan(data)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(testTraffic(int64(300+g), 2000), g == 0)
	}
	for n := 0; n < 2000 && !t.Failed(); n++ {
		snap := rs.MetricsSnapshot()
		dispatched := snap.Get("ruleset.jobs.dispatched")
		var jobs int64
		for _, m := range snap.Metrics {
			if strings.HasPrefix(m.Name, "ruleset.worker") {
				jobs += m.Value
			}
		}
		if passes := snap.Get("ruleset.prefilter.passes"); passes != dispatched || jobs != dispatched {
			t.Errorf("snapshot %d: prefilter.passes %d, jobs.dispatched %d, worker jobs sum %d; want all equal", n, passes, dispatched, jobs)
		}
		probes, resolved := snap.Get("ruleset.fast.probes"), snap.Get("ruleset.fast.negatives")+snap.Get("ruleset.fast.confirms")
		if resolved > probes {
			t.Errorf("snapshot %d: %d gate probes resolved of %d made", n, resolved, probes)
		}
	}
	close(stop)
	wg.Wait()
	if rs.Dispatched() == 0 {
		t.Fatal("no unit was dispatched while the snapshots were taken")
	}
}

// TestRuleSetPerRuleRollup checks the per-rule breakdown decomposes the
// aggregate and survives ResetStats.
func TestRuleSetPerRuleRollup(t *testing.T) {
	rules := []string{"aa+", "zz"}
	rs, err := NewRuleSet(rules, backend.Options{}, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Scan([]byte(strings.Repeat("aaa b ", 50))); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := range rules {
		st := rs.RuleStats(i)
		if st.Cycles <= 0 {
			t.Errorf("rule %d cycles = %d, want > 0", i, st.Cycles)
		}
		sum += st.Cycles
	}
	if agg := rs.Stats().Cycles; sum != agg {
		t.Errorf("per-rule cycle sum %d != aggregate %d", sum, agg)
	}
	snap := rs.MetricsSnapshot()
	if snap.Get("ruleset.rule000.cycles") != rs.RuleStats(0).Cycles {
		t.Error("snapshot rule000.cycles diverges from RuleStats")
	}
	rs.ResetStats()
	if rs.RuleStats(0).Cycles != 0 || rs.Dispatched() != 0 || len(rs.WorkerOccupancy()) != 0 {
		t.Error("ResetStats left per-rule/occupancy roll-ups populated")
	}
}

// TestRuleSetMetricsReplayTotals pins order-insensitive replay on a
// concurrent rule-set scan: worker scheduling varies run to run, but
// every total in the snapshot is a sum of per-rule contributions and so
// replays exactly. (Per-worker occupancy is scheduling-dependent and is
// deliberately excluded.)
func TestRuleSetMetricsReplayTotals(t *testing.T) {
	rules := []string{"GET|POST", "[0-9]{1,3}(\\.[0-9]{1,3}){3}", "admin"}
	data := []byte(strings.Repeat("GET /admin from 10.0.0.1\n", 200))
	metricstest.ReplayTotals(t, func() map[string]int64 {
		rs, err := NewRuleSet(rules, backend.Options{}, WithWorkers(4), WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Scan(data); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, m := range rs.MetricsSnapshot().Metrics {
			if strings.HasPrefix(m.Name, "ruleset.worker") {
				continue // scheduling-dependent by design
			}
			out[m.Name] = m.Value
		}
		return out
	})
}

// TestEngineTracerOption checks WithTracer reaches the engine's core
// and the rule set's pooled cores.
func TestEngineTracerOption(t *testing.T) {
	p, err := Compile(`(a|ab)c`)
	if err != nil {
		t.Fatal(err)
	}
	ring := metrics.NewRing(1 << 10)
	eng, err := NewEngine(p, WithTracer(arch.RingTracer(ring)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FindAll([]byte("xx abc ac yy")); err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Error("engine tracer captured no events")
	}

	ring2 := metrics.NewRing(1 << 10)
	rs, err := NewRuleSet([]string{"abc"}, backend.Options{}, WithTracer(arch.RingTracer(ring2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Scan([]byte("zz abc")); err != nil {
		t.Fatal(err)
	}
	if ring2.Len() == 0 {
		t.Error("rule-set tracer captured no events")
	}
	var buf bytes.Buffer
	if err := arch.WriteChromeTrace(&buf, ring2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Error("chrome trace missing traceEvents")
	}
}
