package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"alveare/internal/metrics"
)

// stack is one workload's serving stack as its callers see it. build
// (workload.build) is what setup_s times; everything below runs on a
// built stack.
type stack interface {
	// shape is what one iteration does and how the inputs are framed.
	shape() (opKind, framing)
	// callers is the closed loop's width: each caller keeps one request
	// in flight and sends the next only when the answer is in.
	callers() int
	// verify sends every distinct input once through the real path and
	// compares each answer with the oracle byte for byte.
	verify(ctx context.Context) (ops, bad, bytes int, err error)
	// iter runs caller c's k-th iteration and logs one sample per op. A
	// transport error ends the run; a wrong answer is a failed sample.
	iter(ctx context.Context, c, k int, log *callLog) error
	// ruleSets returns one snapshot per rule set behind the stack (one
	// per shard), in the "ruleset.*"/"server.*" naming STATS uses.
	ruleSets() []*metrics.Snapshot
	// fleet returns the gateway's snapshot, nil when there is none.
	fleet() *metrics.Snapshot
	close()
}

// sample is one op group as its caller saw it: ops ops (64 records of a
// batch, else 1) answered together after lat.
type sample struct {
	start time.Duration // since the window opened
	lat   time.Duration
	bytes int
	ops   int
	bad   int // ops of the group that were refused or answered wrongly
}

// callLog is one caller's record of a window.
type callLog struct {
	t0      time.Time
	samples []sample
	// pair asks a gateway stack to repeat each op directly against the
	// owning shard (traced run only): direct[i] is samples[i] without
	// the gateway hop.
	pair   bool
	direct []sample
	// tamper corrupts every response before it is checked: the test
	// seam that proves the oracle check bites.
	tamper bool
}

func (l *callLog) add(start time.Time, bytes, ops, bad int) {
	l.samples = append(l.samples, sample{
		start: start.Sub(l.t0), lat: time.Since(start), bytes: bytes, ops: ops, bad: bad,
	})
}

// bad counts a single-op sample: 0 when it was answered rightly.
func bad(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// failFrom marks every single-op sample from index first on as failed:
// the oracle speaks for a whole stream, so a wrong stream fails every
// frame it was made of.
func (l *callLog) failFrom(first int, failed bool) {
	for i := first; failed && i < len(l.samples); i++ {
		l.samples[i].bad = 1
	}
}

// same reports whether a response's digest is the oracle's.
func (l *callLog) same(got, want digest) bool {
	if l.tamper {
		got.n++
	}
	return got == want
}

// runWindow drives the closed loop for d and returns each caller's log.
func runWindow(ctx context.Context, st stack, d time.Duration, pair, tamper bool) ([]*callLog, error) {
	logs := make([]*callLog, st.callers())
	errs := make([]error, len(logs))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &callLog{t0: t0, samples: make([]sample, 0, 1<<14), pair: pair, tamper: tamper}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(t0) < d; k++ {
				if errs[c] = st.iter(ctx, c, k, logs[c]); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return logs, nil
}

// windowStats summarises a window. Ops still in flight when the window
// closed are left out of the time-based figures and kept in the counts.
type windowStats struct {
	attempted, failed int // ops
	samples           int // op groups timed inside the window
	mbps              float64
	p50us, p90us      float64
	p99us, maxus      float64 // whole window; too jumpy to bound
	meanus            float64
}

const slices = 10

func summarize(logs []*callLog, d time.Duration) windowStats {
	var ws windowStats
	var all []sample
	bySlice := make([][]sample, slices)
	// A slice's throughput is the good bytes in flight during it: an op
	// that straddles a slice boundary counts in each by the share of its
	// time spent there, so that a 30 ms op does not make a slice's rate
	// jump by a whole op.
	goodBytes := make([]float64, slices)
	width := d / slices
	for _, l := range logs {
		for _, s := range l.samples {
			ws.attempted += s.ops
			ws.failed += s.bad
			end := s.start + s.lat
			good := float64(s.bytes*(s.ops-s.bad)) / float64(s.ops)
			for i := int(s.start / width); i < slices && s.lat > 0; i++ {
				lo, hi := max(s.start, time.Duration(i)*width), min(end, time.Duration(i+1)*width)
				if hi <= lo {
					break
				}
				goodBytes[i] += good * float64(hi-lo) / float64(s.lat)
			}
			if end >= d {
				continue
			}
			i := int(end / width)
			bySlice[i] = append(bySlice[i], s)
			all = append(all, s)
		}
	}
	ws.samples = len(all)
	var mbps, p50, p90 []float64
	for i, ss := range bySlice {
		if len(ss) == 0 {
			continue
		}
		mbps = append(mbps, goodBytes[i]/1e6/width.Seconds())
		sortByLatency(ss)
		p50 = append(p50, quantileUs(ss, 0.50))
		p90 = append(p90, quantileUs(ss, 0.90))
	}
	ws.mbps, ws.p50us, ws.p90us = median(mbps), median(p50), median(p90)
	if len(all) > 0 {
		sortByLatency(all)
		ws.p99us = quantileUs(all, 0.99)
		ws.maxus = float64(all[len(all)-1].lat.Nanoseconds()) / 1e3
		var sum, ops float64
		for _, s := range all {
			sum += float64(s.lat.Nanoseconds()) / 1e3 * float64(s.ops)
			ops += float64(s.ops)
		}
		ws.meanus = sum / ops
	}
	return ws
}

func sortByLatency(ss []sample) {
	sort.Slice(ss, func(a, b int) bool { return ss[a].lat < ss[b].lat })
}

// quantileUs is the q-quantile of per-op latency over latency-sorted
// samples, each weighted by the ops it answered.
func quantileUs(ss []sample, q float64) float64 {
	total := 0
	for _, s := range ss {
		total += s.ops
	}
	need := q * float64(total)
	cum := 0
	for _, s := range ss {
		cum += s.ops
		if float64(cum) >= need {
			return float64(s.lat.Nanoseconds()) / 1e3
		}
	}
	return float64(ss[len(ss)-1].lat.Nanoseconds()) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// memDelta is the whole process's allocation over a window.
type memDelta struct{ mallocs, bytes, gcPauseNs uint64 }

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcPauseNs - b.gcPauseNs}
}

// sumOf adds a counter or gauge up across snapshots.
func sumOf(snaps []*metrics.Snapshot, name string) int64 {
	var n int64
	for _, s := range snaps {
		n += s.Get(name)
	}
	return n
}
