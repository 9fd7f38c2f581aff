// Replay mode: instead of hammering one synthetic payload in a closed
// loop, -replay generates a seeded corpus of realistic small records —
// "log" lines or "pcap"-like binary packet payloads — and replays it
// through the batched and streaming protocol paths:
//
//   - -batch N (default) packs N records into each SCAN-BATCH frame;
//     -batch 1 degenerates to one SCAN per record, which is exactly
//     the unamortised baseline batching is measured against.
//   - -stream-chunk N instead concatenates each worker's share of the
//     corpus and pushes it through one streaming session in N-byte
//     SESSION-DATA frames.
//
// The corpus is deterministic for a fixed -seed and -records, so two
// runs against two builds replay byte-identical traffic.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"alveare/internal/server/client"
)

// replaySpec is one corpus replay, parsed from the -replay flag family.
type replaySpec struct {
	style  string // "log" or "pcap"
	batch  int    // records per SCAN-BATCH frame; 1 = one SCAN per record
	chunk  int    // >0: stream each worker's share in chunk-byte frames
	corpus [][]byte
	bytes  int64
	seed   int64
}

// note renders the replay line of the report.
func (rs replaySpec) note() string {
	mode := fmt.Sprintf("batch=%d", rs.batch)
	if rs.chunk > 0 {
		mode = fmt.Sprintf("stream-chunk=%d", rs.chunk)
	}
	return fmt.Sprintf("%s corpus records=%d bytes=%d %s seed=%d",
		rs.style, len(rs.corpus), rs.bytes, mode, rs.seed)
}

// opLabel names the replay mode in the report header.
func (rs replaySpec) opLabel() string {
	if rs.chunk > 0 {
		return "replay-stream"
	}
	if rs.batch == 1 {
		return "replay-scan"
	}
	return "replay-batch"
}

// genCorpus builds the deterministic record corpus. Log records are
// printable request-log lines in the 64-256 byte band the batch
// amortisation targets; pcap records are binary packet payloads with a
// 16-byte pseudo-header and mixed printable/binary bodies up to 1400
// bytes.
func genCorpus(style string, records int, seed int64) ([][]byte, int64, error) {
	if records <= 0 {
		return nil, 0, fmt.Errorf("-records %d: want a positive count", records)
	}
	rng := rand.New(rand.NewSource(seed))
	corpus := make([][]byte, 0, records)
	var total int64
	switch style {
	case "log":
		levels := []string{"INFO", "WARN", "ERROR", "DEBUG"}
		methods := []string{"GET", "POST", "PUT", "DELETE"}
		paths := []string{"/api/v1/scan", "/index/html", "/a/b/c", "/health", "/rules/reload"}
		agents := []string{"curl/8.1", "alveare-probe/2", "Mozilla/5.0", "kube-probe/1.29"}
		for i := 0; i < records; i++ {
			line := fmt.Sprintf("%s [%06d] %s %s?q=%d status=%d agent=%q rt=%dus",
				levels[rng.Intn(len(levels))], i,
				methods[rng.Intn(len(methods))], paths[rng.Intn(len(paths))],
				rng.Intn(100000), 200+rng.Intn(400), agents[rng.Intn(len(agents))],
				rng.Intn(500000))
			for len(line) < 64+rng.Intn(193) {
				line += " pad" + fmt.Sprint(rng.Intn(1000))
			}
			corpus = append(corpus, []byte(line))
			total += int64(len(line))
		}
	case "pcap":
		for i := 0; i < records; i++ {
			n := 64 + rng.Intn(1337)
			rec := make([]byte, n)
			for j := 0; j < 16 && j < n; j++ { // pseudo-header
				rec[j] = byte(rng.Intn(256))
			}
			for j := 16; j < n; j++ { // mixed body, mostly printable
				if rng.Intn(4) == 0 {
					rec[j] = byte(rng.Intn(256))
				} else {
					rec[j] = byte(' ' + rng.Intn(95))
				}
			}
			corpus = append(corpus, rec)
			total += int64(n)
		}
	default:
		return nil, 0, fmt.Errorf("unknown -replay style %q (want log or pcap)", style)
	}
	return corpus, total, nil
}

// replaySlot is one in-flight replay worker: a full client (replay
// needs the batch and session APIs, so pool mode is out) and the
// tenant it bills to.
type replaySlot struct {
	c  *client.Client
	tc *tenantCounters
}

// replayRun drives the whole corpus through the slots once and
// accumulates outcomes into the same counters the closed loop uses.
// Batch/scan mode deals frames from a shared index so slots drain the
// corpus together; stream mode gives each slot one contiguous share of
// the corpus as its own session. A SHED is retried in place up to the
// retry budget (a shed frame or chunk was never absorbed); any other
// failure is counted and, for a session, ends that share.
func replayRun(ctx context.Context, slots []replaySlot, spec replaySpec,
	retries int, backoff, backoffMax time.Duration,
	lat interface{ Observe(int64) }, counts *[5]atomic.Int64,
	requests, matches *int64) time.Duration {

	account := func(slot replaySlot, oc outcome, n int64) {
		atomic.AddInt64(requests, 1)
		counts[oc].Add(1)
		if slot.tc != nil {
			slot.tc.counts[oc].Add(1)
		}
		if oc == outcomeOK {
			atomic.AddInt64(matches, n)
		}
	}
	sleepShed := func(rng *rand.Rand, attempt int) {
		d := backoff << (attempt - 1)
		if d > backoffMax || d <= 0 {
			d = backoffMax
		}
		time.Sleep(time.Duration(rng.Int63n(int64(d) + 1)))
	}

	start := time.Now()
	var wg sync.WaitGroup
	if spec.chunk > 0 {
		// Stream mode: one session per slot over its contiguous share.
		share := (len(spec.corpus) + len(slots) - 1) / len(slots)
		for i, slot := range slots {
			lo := i * share
			if lo >= len(spec.corpus) {
				break
			}
			hi := lo + share
			if hi > len(spec.corpus) {
				hi = len(spec.corpus)
			}
			var flat []byte
			for _, rec := range spec.corpus[lo:hi] {
				flat = append(flat, rec...)
			}
			wg.Add(1)
			go func(i int, slot replaySlot, flat []byte) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(spec.seed + int64(i)))
				t0 := time.Now()
				sess, err := slot.c.OpenSession(0)
				lat.Observe(time.Since(t0).Microseconds())
				if err != nil {
					account(slot, classify(err), 0)
					return
				}
				account(slot, outcomeOK, 0)
				for off := 0; off < len(flat) && ctx.Err() == nil; {
					end := off + spec.chunk
					if end > len(flat) {
						end = len(flat)
					}
					t0 := time.Now()
					ms, _, err := sess.Write(flat[off:end])
					lat.Observe(time.Since(t0).Microseconds())
					if err != nil {
						oc := classify(err)
						account(slot, oc, 0)
						if oc == outcomeShed {
							// Not absorbed; resend the same chunk.
							sleepShed(rng, 1)
							continue
						}
						return // terminal: the session is gone
					}
					account(slot, outcomeOK, int64(len(ms)))
					off = end
				}
				t0 = time.Now()
				ms, _, err := sess.Close()
				lat.Observe(time.Since(t0).Microseconds())
				if err != nil {
					account(slot, classify(err), 0)
					return
				}
				account(slot, outcomeOK, int64(len(ms)))
			}(i, slot, flat)
		}
		wg.Wait()
		return time.Since(start)
	}

	// Batch/scan mode: deal frames from a shared cursor.
	var frames [][][]byte
	for off := 0; off < len(spec.corpus); off += spec.batch {
		end := off + spec.batch
		if end > len(spec.corpus) {
			end = len(spec.corpus)
		}
		frames = append(frames, spec.corpus[off:end])
	}
	var cursor atomic.Int64
	for i, slot := range slots {
		wg.Add(1)
		go func(i int, slot replaySlot) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.seed + int64(i)))
			for ctx.Err() == nil {
				fi := cursor.Add(1) - 1
				if fi >= int64(len(frames)) {
					return
				}
				items := frames[fi]
				for attempt := 1; ; attempt++ {
					t0 := time.Now()
					n, err := issueReplayFrame(slot.c, spec, items)
					lat.Observe(time.Since(t0).Microseconds())
					oc := classify(err)
					account(slot, oc, n)
					if oc == outcomeShed && attempt <= retries {
						sleepShed(rng, attempt)
						continue
					}
					break
				}
			}
		}(i, slot)
	}
	wg.Wait()
	return time.Since(start)
}

// issueReplayFrame sends one replay frame — a SCAN-BATCH of the items,
// or a plain SCAN when -batch is 1 — and returns its match count. A
// batch whose every item failed the same way collapses to that error
// (so SHED retries work framewise); mixed per-item failures surface as
// the first item error.
func issueReplayFrame(c *client.Client, spec replaySpec, items [][]byte) (int64, error) {
	if spec.batch == 1 {
		ms, err := c.Scan(items[0])
		return int64(len(ms)), err
	}
	res, err := c.ScanBatch(items)
	if err != nil {
		return 0, err
	}
	var n int64
	var firstErr error
	for _, r := range res {
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		n += int64(len(r.Matches))
	}
	return n, firstErr
}
