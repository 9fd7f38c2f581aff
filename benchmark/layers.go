package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"alveare/internal/metrics"
)

// residualFloor is how negative the rule-set layer's residual (the real
// scan's time minus its tiers', measured in separate calls) may be, as a
// share of the scan, before the walk is judged not to mirror it. The
// other residuals (server.shell_us, client.wire_us, gateway.hop_us)
// subtract means of separate windows and are reported, sign and all,
// but not enforced: on a shared box they would fail runs for noise.
const residualFloor = -0.10

// walkAttempts is how often the layer walk is made before a residual
// past the floor fails the run. The real call and its tiers are timed
// milliseconds apart, and on a shared host one of the two can come out a
// fifth slower for reasons outside the process; a walk that really no
// longer mirrors the scan path is past the floor every time.
const walkAttempts = 3

// runtimeSampler watches the process while a window runs.
type runtimeSampler struct {
	stop       chan struct{}
	done       chan struct{}
	goroutines int
	heapInuse  uint64
}

func startRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; the peaks are then final.
func (s *runtimeSampler) finish() {
	close(s.stop)
	<-s.done
}

func (s *runtimeSampler) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.goroutines = max(s.goroutines, runtime.NumGoroutine())
	s.heapInuse = max(s.heapInuse, m.HeapInuse)
}

// endpoint is the server's name for each request kind.
var endpoint = map[opKind]string{scanOp: "scan", batchOp: "batch", sessionOp: "session.data"}

// histogramDelta is the named latency histogram's movement summed over
// the rule sets' snapshots, as one metric Quantile can read.
func (d counterDelta) histogramDelta(name string) metrics.Metric {
	buckets := map[uint64]int64{}
	out := metrics.Metric{Name: name, Kind: "histogram"}
	fold := func(snaps []*metrics.Snapshot, sign int64) {
		for _, s := range snaps {
			m, ok := s.Find(name)
			if !ok {
				continue
			}
			out.Count += sign * m.Count
			out.Sum += sign * m.Sum
			for _, b := range m.Buckets {
				buckets[b.Le] += sign * b.Count
			}
		}
	}
	fold(d.after, 1)
	fold(d.before, -1)
	for le, n := range buckets {
		if n > 0 {
			out.Buckets = append(out.Buckets, metrics.Bucket{Le: le, Count: n})
		}
	}
	sort.Slice(out.Buckets, func(a, b int) bool { return out.Buckets[a].Le < out.Buckets[b].Le })
	return out
}

// fanoutResidual is the real scan calls' time less their tiers', as a
// share of the real calls'.
func fanoutResidual(tr *tracer) float64 {
	coreTime := tr.total(spCore)
	return float64(coreTime-tr.total(spTiers)) / float64(coreTime)
}

// tracedRun is the separate run that yields the per-layer numbers: the
// layer walk over the verification inputs, an untraced reference window,
// then a traced window with a span around every op (and, behind a
// gateway, a paired call straight to the owning shard).
func tracedRun(ctx context.Context, w *workload, st stack, in *inputs, opt options, verified counterDelta, rep *report) error {
	fleet, _ := st.(*fleetStack)
	kind, fr := st.shape()
	var tr *tracer
	var walk *walked
	for attempt := 1; ; attempt++ {
		tr = newTracer()
		var err error
		if walk, err = layerWalk(ctx, tr, in, kind, fr, fleet != nil); err != nil {
			return err
		}
		if fanoutResidual(tr) >= residualFloor || attempt == walkAttempts {
			break
		}
	}

	half := opt.window / 2
	runtime.GC()
	m0 := readMem()
	refLogs, err := runWindow(ctx, st, half, false, false)
	refMem := readMem().since(m0)
	if err != nil {
		return err
	}
	ref := summarize(refLogs, half)

	sampler := startRuntimeSampler()
	m0 = readMem()
	var logs []*callLog
	window, err := snapshotDelta(st, func() (int, int, int, error) {
		logs, err = runWindow(ctx, st, half, true, opt.tamper)
		return 0, 0, 0, err
	})
	mem := readMem().since(m0)
	sampler.finish()
	if err != nil {
		return err
	}
	ws := summarize(logs, half)
	if ref.samples == 0 || ws.samples == 0 {
		return fmt.Errorf("no op completed inside a %v window", half)
	}
	rep.Attempted += ref.attempted + ws.attempted
	rep.Failed += ref.failed + ws.failed
	rep.Samples = ws.samples

	var hops []float64
	op := 0
	for c, l := range logs {
		for i, s := range l.samples {
			op++
			tr.add("client.op", l.t0.Add(s.start), s.lat, op, c+1)
			if i < len(l.direct) {
				tr.add("shard.direct", l.t0.Add(l.direct[i].start), l.direct[i].lat, op, c+1)
				hops = append(hops, float64((s.lat-l.direct[i].lat).Nanoseconds())/1e3)
			}
		}
	}
	if opt.traceOut != "" {
		if err := tr.writeChrome(opt.traceOut); err != nil {
			return err
		}
	}

	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	perByte := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(walk.bytes) }
	perOp := func(n int64) float64 { return ratio(n, int64(verified.ops)) }

	// Compiler stages and the shape of what they built.
	set("syntax.parse_us", us(tr.total(spParse)))
	set("ir.lower_us", us(tr.total(spLower)))
	set("backend.emit_us", us(tr.total(spEmit)))
	set("approx.build_us", us(tr.total(spApproxB)))
	set("prefilter.build_us", us(tr.total(spPrefB)))
	set("automata.lazy_compile_us", us(tr.total(spLazyB)))
	set("isa.instructions", float64(walk.t.instructions()))
	set("approx.states", float64(walk.t.admit.States()))
	set("approx.depth", float64(walk.t.admit.Depth()))
	filtered := 0
	if walk.t.pf != nil {
		filtered = walk.t.pf.Filtered()
	}
	set("prefilter.rules_filtered", float64(filtered))

	// Skip tiers and exact engine: host time from the walk, decisions
	// and simulated counts from the verification pass's counters, which
	// repeat exactly.
	screened, admitted := verified.n("ruleset.approx.windows.screened"), verified.n("ruleset.approx.windows.admitted")
	set("approx.ns_per_byte", perByte(tr.total(spSuspect)))
	set("approx.screened_ratio", ratio(screened-admitted, screened))
	set("approx.precision", ratio(verified.n("ruleset.approx.windows.exacthit"), admitted))
	passes, skips := verified.n("ruleset.prefilter.passes"), verified.n("ruleset.prefilter.skips")
	set("prefilter.ns_per_byte", perByte(tr.total(spCandidate)))
	set("prefilter.skip_ratio", ratio(skips, passes+skips))
	set("automata.gate_ns_per_byte", perByte(tr.total(spGate)))
	set("automata.gate_negative_ratio", ratio(verified.n("ruleset.fast.negatives"), verified.n("ruleset.fast.probes")))
	set("automata.cache_flushes", float64(verified.n("ruleset.dfa.cache.flushes")))
	set("automata.bails", float64(verified.n("ruleset.dfa.bails")))
	archTime := tr.total(spFind)
	set("arch.host_ns_per_byte", perByte(archTime))
	set("arch.host_ns_per_sim_cycle", ratio(archTime.Nanoseconds(), walk.t.simCycles))
	set("arch.sim_cycles", float64(verified.n("ruleset.cycles")))
	set("arch.instructions", float64(verified.n("ruleset.instructions")))
	set("arch.speculations", float64(verified.n("ruleset.spec.pushes")))
	set("arch.rollbacks", float64(verified.n("ruleset.spec.rollbacks")))
	set("arch.fallbacks", float64(verified.n("ruleset.guard.fallbacks")))

	// Rule-set layer: the real call against the sum of its tiers, timed
	// back to back on the same inputs. The difference is a residual, and
	// the one that says whether the walk still mirrors the scan path.
	coreTime, tiersTime := tr.total(spCore), tr.total(spTiers)
	fanout := coreTime - tiersTime
	if fanoutResidual(tr) < residualFloor {
		return fmt.Errorf("core.fanout_self is %v of a %v scan in each of %d walks: the tiers cost more than the call they make up, so the walk no longer mirrors the scan path", fanout, coreTime, walkAttempts)
	}
	oneShot, pull, push := 0.0, 0.0, 0.0
	switch kind {
	case pullOp:
		pull = perByte(coreTime)
	case sessionOp:
		push = perByte(coreTime)
	default:
		oneShot = perByte(coreTime)
	}
	set("core.scan_ns_per_byte", oneShot)
	set("core.fanout_self_ns_per_op", float64(fanout.Nanoseconds())/float64(walk.ops))
	set("core.jobs_dispatched_per_op", perOp(verified.n("ruleset.jobs.dispatched")))
	set("core.reader_ns_per_byte", pull)
	set("core.stream.push_ns_per_byte", push)
	set("core.stream.windows", float64(verified.n("ruleset.stream.windows")))
	exports := 0.0
	if push > 0 {
		exports = float64(walk.ops)
	}
	set("core.stream.export_us", us(tr.total(spExport))/max(exports, 1))
	set("core.stream.checkpoint_bytes", float64(walk.ckptBytes)/max(exports, 1))

	// Serving shell: what the server's own histogram says a frame took,
	// against the same frames scanned in process by as many callers, and
	// against what the clients saw.
	set("server.codec_decode_ns_per_op", float64(tr.total(spDecode).Nanoseconds())/float64(walk.ops))
	set("server.codec_encode_ns_per_op", float64(tr.total(spEncode).Nanoseconds())/float64(walk.ops))
	set("server.bytes_out_per_op", perOp(verified.n("server.bytes.out")))
	serverMean, serverP99, shell, wire := 0.0, 0.0, 0.0, 0.0
	if fleet != nil {
		h := window.histogramDelta("server." + endpoint[kind] + ".latency_us")
		serverMean, serverP99 = ratio(h.Sum, h.Count), float64(h.Quantile(0.99))
		inProcess, err := shellFree(ctx, in, kind, fleet.callers(), half)
		if err != nil {
			return err
		}
		shell, wire = serverMean-inProcess, ws.meanus-serverMean
	}
	set("server.latency_mean_us", serverMean)
	set("server.latency_p99_us", serverP99)
	set("server.shell_us", shell)
	highwater := int64(0)
	for _, s := range window.after {
		highwater = max(highwater, s.Get("server.queue.highwater"))
	}
	set("server.queue_highwater", float64(highwater))
	set("server.shed", float64(verified.n("server.shed")+window.n("server.shed")))
	set("server.errors", float64(verified.n("server.errors")+window.n("server.errors")))
	set("client.wire_us", wire)
	set("client.latency_p99_us", ws.p99us)
	set("client.latency_max_us", ws.maxus)
	retries := int64(0)
	if fleet != nil {
		retries = fleet.clientM.Snapshot().Get("client.retries")
	}
	set("client.retries", float64(retries))

	set("gateway.hop_us", median(hops))
	set("gateway.requests", float64(window.gw("gateway.requests")))
	set("gateway.rerouted", float64(window.gw("gateway.rerouted")))
	set("gateway.shed", float64(window.gw("gateway.shed")))
	imbalance := 0.0
	if fleet != nil && fleet.gw != nil {
		var most, sum int64
		for _, n := range window.served() {
			most, sum = max(most, n), sum+n
		}
		imbalance = ratio(most*int64(len(window.after)), sum)
		if err := everyShardServed(window); err != nil {
			return fmt.Errorf("out of regime: %w", err)
		}
	}
	set("gateway.shard_imbalance", imbalance)
	set("gateway.session_failovers", float64(window.gw("gateway.sessions.failovers")))
	set("gateway.session_replays", float64(window.gw("gateway.sessions.replays")))

	set(latencyP90, ref.p90us)
	set(allocBytes, float64(refMem.bytes)/float64(ref.attempted))
	set("runtime.gc_pause_ms", float64(mem.gcPauseNs)/1e6)
	set("runtime.goroutines_peak", float64(sampler.goroutines))
	set("runtime.heap_inuse_peak_mb", float64(sampler.heapInuse)/1e6)
	set("trace.spans", float64(len(tr.spans)))
	set("trace.overhead_ratio", ws.mbps/ref.mbps)

	// lib-exact exists to time the simulator: if the walk says the
	// simulator is not where the time goes, the workload has drifted.
	if w.archShare > 0 {
		if share := float64(archTime) / float64(tiersTime); share < w.archShare {
			return fmt.Errorf("out of regime: arch is %.0f%% of the walk, want at least %.0f%%", share*100, w.archShare*100)
		}
	}
	return nil
}

// shellFree is the mean time a frame's worth of scanning takes with no
// serving shell around it: the service workload's inputs, scanned in
// process, on a rule set built as the server builds its own, by the same
// number of closed-loop callers.
func shellFree(ctx context.Context, in *inputs, kind opKind, callers int, d time.Duration) (meanUs float64, err error) {
	twin, err := buildLib(kind, callers, serverOptions)(in)
	if err != nil {
		return 0, err
	}
	logs, err := runWindow(ctx, twin, min(d, 2*time.Second), false, false)
	if err != nil {
		return 0, err
	}
	return summarize(logs, d).meanus, nil
}
