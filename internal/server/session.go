// Streaming sessions: the server side of SESSION-OPEN / SESSION-DATA /
// SESSION-CLOSE. A session pins a core.Stream — the push-mode
// carry-over state of the chunked overlap discipline — so a client can
// scan an unbounded flow through the service with byte-identical
// semantics to a local RuleSet.ScanReader, including matches that
// straddle frame boundaries and fast-path gating across chunks.
//
// Ordering, admission and lifecycle (arrival-order FIFO with one runner
// in the shared queue, owner binding, the session cap, idle reaping) are
// the SessionTable's (sessions.go). What the server adds: a session is
// pinned to the rule snapshot at open (a RELOAD never splits one flow
// across two generations) and holds an overlap tail resident, which is
// why the cap is a memory cap.
package server

import (
	"context"
	"fmt"
	"time"

	"alveare/internal/core"
)

// stream is the server's per-session state.
type stream struct {
	st   *core.Stream
	ckpt bool        // piggyback a post-frame checkpoint on SESSION-MATCHES
	ms   []RuleMatch // one frame's matches; the array is reused frame to frame
}

// keptMatches bounds the match array a session keeps between frames.
const keptMatches = 4096

// session is one open streaming session; its queued frames are jobs.
type session = Session[stream, job]

// startSession executes an admitted SESSION-OPEN or SESSION-RESTORE:
// build the stream against the current snapshot — fresh, or rebuilt
// from the carried checkpoint — install it in the table and answer
// SESSION-OK, carrying the rule generation when the caller negotiated
// checkpoints (the generation is the failover fence — a checkpoint may
// only be restored under the generation it was exported under). A body
// or checkpoint that fails validation — garbage bytes, a rule count
// that disagrees with the snapshot, broken carry invariants — answers a
// parseable ERROR on this frame alone; the connection never desyncs and
// no session state is created. At the MaxSessions cap it sheds — an
// authoritative refusal before any state escaped, safe to retry after
// backoff.
func (s *Server) startSession(j *job) {
	start, err := DecodeSessionStart(j.f.Op, j.f.Body)
	if err != nil {
		j.c.ReplyErr(j.f.ID, ErrCodeBadFrame, err)
		return
	}
	snap := s.snap.Load()
	var st *core.Stream
	started := s.met.sessOpens
	if start.Ckpt == nil {
		st = snap.rules.NewStream(int(start.Overlap))
	} else {
		if st, err = snap.rules.RestoreStream(start.Ckpt); err == nil && st.Overlap() > MaxSessionOverlap {
			err = fmt.Errorf("%w: checkpoint overlap %d exceeds %d", ErrMalformedFrame, st.Overlap(), MaxSessionOverlap)
		}
		if err != nil {
			j.c.ReplyErr(j.f.ID, ErrCodeBadFrame, err)
			return
		}
		started = s.met.sessRestores
	}
	sess := s.sessions.Open(j.c, stream{st: st, ckpt: start.Flags&SessionOpenFlagCheckpoint != 0})
	if sess == nil {
		s.shed(j.c, j.f.ID)
		return
	}
	j.c.WriteFrame(Frame{Op: OpSessionOK, ID: j.f.ID,
		Body: EncodeSessionOK(sess.ID, uint32(st.Overlap()), snap.generation, start.Flags)})
	started.Inc()
}

// dispatchSession admits one SESSION-DATA/SESSION-CLOSE frame on the
// reader goroutine. A full FIFO or a full queue answers SHED — the
// frame was not absorbed into the stream, so the client may resend the
// same chunk after backoff without corrupting the flow.
func (s *Server) dispatchSession(c *Conn, f Frame, start time.Time) {
	id, err := SessionID(f.Op, f.Body)
	if err != nil {
		c.ReplyErr(f.ID, ErrCodeBadFrame, err)
		return
	}
	verdict := SessionGone
	if sess := s.sessions.Lookup(c, id); sess != nil {
		verdict = s.sessions.Push(sess, job{c: c, f: f, admitted: start})
	}
	switch verdict {
	case SessionGone:
		c.ReplyErr(f.ID, ErrCodeUnknownSession, fmt.Errorf("unknown session %d", id))
	case SessionShed:
		s.shed(c, f.ID)
	}
}

// scheduleSession places sess's runner in the scan queue.
func (s *Server) scheduleSession(sess *session) bool {
	return s.enqueue(job{c: sess.Owner, runner: sess})
}

// executeSession runs one admitted session frame under the per-request
// timeout and writes its response. A scan fault (guardrail, timeout,
// cancellation) is terminal: the carry state past it is unreliable, so
// the session closes and the client must re-open — it can never
// silently lose or duplicate matches across the fault. Frames that
// raced in behind the close are answered unknown-session.
func (s *Server) executeSession(sess *session, j job, closed bool) {
	if closed {
		j.c.ReplyErr(j.f.ID, ErrCodeUnknownSession, fmt.Errorf("unknown session %d", sess.ID))
		return
	}
	ctx, cancel := s.begin()
	defer cancel()
	ms := sess.State.ms[:0]
	emit := func(rule int, m core.Match, _ []byte) bool {
		ms = append(ms, RuleMatch{Rule: uint32(rule), Start: uint64(m.Start), End: uint64(m.End)})
		return true
	}
	// The response is encoded before the next frame runs, so the next
	// frame may reuse the array — unless one frame grew it past
	// keptMatches, whose memory the session must not hold for its life.
	defer func() {
		if cap(ms) <= keptMatches {
			sess.State.ms = ms[:0]
		}
	}()
	st := sess.State.st
	switch j.f.Op {
	case OpSessionData:
		_, chunk, _ := DecodeSessionData(j.f.Body) // dispatchSession read the id: it parses
		s.met.sessData.requests.Inc()
		s.met.sessData.bytes.Add(int64(len(chunk)))
		if _, err := st.PushCtx(ctx, chunk, emit); err != nil {
			s.sessions.Close(sess)
			j.c.ReplyErr(j.f.ID, ErrCodeScan, err)
			return
		}
		s.met.matches.Add(int64(len(ms)))
		var ckpt []byte
		if sess.State.ckpt {
			// Post-frame carry state, exactly what SESSION-RESTORE
			// accepts: a relay holding this can move the session to a
			// replica after losing this shard.
			ckpt = st.Export()
		}
		j.c.WriteBody(OpSessionMatches, j.f.ID, func(buf []byte) []byte {
			return AppendSessionMatches(buf, false, uint64(st.Consumed()), ms, ckpt)
		})
		s.met.sessData.latency.Observe(time.Since(j.admitted).Microseconds())
	case OpSessionClose:
		if _, err := DecodeSessionClose(j.f.Body); err != nil {
			j.c.ReplyErr(j.f.ID, ErrCodeBadFrame, err)
			return
		}
		_, err := st.FinishCtx(ctx, emit)
		s.sessions.Close(sess)
		s.met.sessCloses.Inc()
		if err != nil {
			j.c.ReplyErr(j.f.ID, ErrCodeScan, err)
			return
		}
		s.met.matches.Add(int64(len(ms)))
		j.c.WriteBody(OpSessionMatches, j.f.ID, func(buf []byte) []byte {
			return AppendSessionMatches(buf, true, uint64(st.Consumed()), ms, nil)
		})
	}
}

// SessionCount reports the open-session count (tests and diagnostics).
func (s *Server) SessionCount() int { return s.sessions.Count() }

// executeBatch runs one admitted SCAN-BATCH: every item scanned
// against one snapshot capture (a concurrent RELOAD never splits a
// batch across generations), per-item fault isolation — one payload
// hitting a guardrail fault or timeout fails that item alone.
func (s *Server) executeBatch(ctx context.Context, j *job) {
	items, err := DecodeScanBatch(j.f.Body)
	if err != nil {
		j.c.ReplyErr(j.f.ID, ErrCodeBadFrame, err)
		return
	}
	s.met.batch.requests.Inc()
	s.met.batchItems.Add(int64(len(items)))
	snap := s.snap.Load()
	results := make([]BatchItemResult, len(items))
	var matched int64
	for i, payload := range items {
		s.met.batch.bytes.Add(int64(len(payload)))
		out, err := scanRules(ctx, snap.rules, payload)
		if err != nil {
			results[i] = BatchItemResult{Code: ErrCodeScan, Msg: err.Error()}
			continue
		}
		results[i] = BatchItemResult{Matches: out}
		matched += int64(len(out))
	}
	s.met.matches.Add(matched)
	j.c.WriteBody(OpBatchResp, j.f.ID, func(buf []byte) []byte { return AppendBatchResults(buf, results) })
	s.met.batch.latency.Observe(time.Since(j.admitted).Microseconds())
}

// scanRules runs one payload against a rule set — a pinned snapshot's,
// or an ad-hoc pattern's from the cache — into one list sized from the
// rule set's result.
func scanRules(ctx context.Context, rs *core.RuleSet, payload []byte) ([]RuleMatch, error) {
	out, err := rs.ScanCtx(ctx, payload)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, rm := range out {
		n += len(rm.Matches)
	}
	if n == 0 {
		return nil, nil
	}
	ms := make([]RuleMatch, 0, n)
	for _, rm := range out {
		for _, m := range rm.Matches {
			ms = append(ms, RuleMatch{Rule: uint32(rm.Rule), Start: uint64(m.Start), End: uint64(m.End)})
		}
	}
	return ms, nil
}
