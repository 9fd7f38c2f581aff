// Streaming sessions through the gateway, with transparent failover. A
// stream's carry state lives on one shard at a time, but the gateway
// always negotiates checkpoints with that shard: every SESSION-MATCHES
// ack piggybacks the post-frame carry state, so the gateway holds
// everything needed to rebuild the stream elsewhere. The gateway speaks
// its own id space to clients — the SESSION-OK a client sees carries a
// gateway id, and each forwarded frame leads with the shard's id
// instead — so a client never learns (or depends on) fleet topology.
// Nothing on the relay path is re-encoded: a frame goes on as the
// shard's id head plus the chunk slice of the body the client sent,
// and the answer comes back as the shard's match records, forwarded
// without being decoded into a list.
//
// Failure contract, end to end: a shard SHED is forwarded as SHED (the
// chunk was not absorbed; the client may resend it). Transport loss, a
// breaker-open shard, or an unknown-session verdict after a shard
// restart triggers FAILOVER instead of a dead session: the gateway
// walks the ring to the next replica, SESSION-RESTOREs the last acked
// checkpoint there (fenced to the same rule generation it was exported
// under), replays only the in-flight unacked frame, and forwards its
// matches — deduplicated against the finalised-prefix high-water mark,
// so the client transcript stays byte-identical to an uninterrupted
// stream. If no replica at the right generation is reachable the frame
// answers SHED (the chunk was absorbed nowhere — the restore point
// predates it), and the session stays alive for the client's resend.
// Only an authoritative shard verdict about the stream itself (a scan
// fault) terminally ends the session. Frames of one session execute in
// arrival order through the server.SessionTable the scan server also
// uses — its runner is a fair-queue job here — so pipelined frames keep
// a coherent stream while sharing the worker pool fairly, and a frame
// pipelined behind the CLOSE answers unknown-session without reaching
// a shard.
package gateway

import (
	"bytes"
	"errors"
	"fmt"

	"alveare/internal/core"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// placement is a client stream's gateway-side state: which shard holds
// it (backend, head) and what failover needs to rebuild it elsewhere
// (ckpt, fin, gen). Only the session's single runner touches it —
// frames of one session execute strictly in arrival order.
type placement struct {
	backend int    // current shard index
	head    []byte // the current shard's session id, as its frames lead with it; rebuilt on failover
	ts      *tenantState

	key         uint64 // ring hash of the placement key, reused for failover walks
	overlap     uint32 // negotiated carry, reused for fresh-open failover
	gen         uint32 // rule generation fence for SESSION-RESTORE
	ckpt        []byte // last acked post-frame checkpoint (nil: none acked)
	fin         uint64 // finalised-prefix offset: every forwarded match starts before it
	clientFlags byte   // the SESSION-OPEN flags the client itself started with
}

// gwSession is one client stream; its ID is the gateway-assigned id the
// client holds. Its FIFO holds the client's SESSION-DATA/SESSION-CLOSE
// frames by value, their bodies led by the gateway id; they all arrived
// on the session's owner connection.
type gwSession = server.Session[placement, server.Frame]

// shardHead is the head of a frame for the shard session backendID:
// the id alone, which is exactly a SESSION-CLOSE body.
func shardHead(backendID uint64) []byte { return server.EncodeSessionClose(backendID) }

// openGwSession places one new stream — a fresh SESSION-OPEN or a
// client-carried SESSION-RESTORE: walk the tenant's ring order to the
// first shard that accepts it, register the mapping, and answer
// SESSION-OK carrying the gateway's id. The shard-side open ALWAYS
// negotiates checkpoints, whatever the client asked — the piggybacked
// carry state is what makes failover possible. A shard that sheds or
// is unreachable just moves the walk on — no state was created that
// the client could observe. The gateway's own session cap sheds with
// reason capacity: up front when the table is already full (no shard is
// bothered), and again at the insert, which is what holds the cap when
// several opens race — the loser's shard-side open falls to the shard's
// idle reaper like every other abandoned open.
func (g *Gateway) openGwSession(c *server.Conn, ts *tenantState, key uint64, op byte, body []byte, id uint32) {
	if g.sessions.Count() >= g.cfg.MaxSessions {
		g.shedReply(c, id, ts, server.ShedReasonCapacity)
		return
	}

	// Parse the client's request and re-encode it for the shard with the
	// checkpoint flag forced on.
	start, err := server.DecodeSessionStart(op, body)
	if err != nil {
		g.replyErr(c, id, ts, server.ErrCodeBadFrame, err)
		return
	}
	clientFlags := start.Flags
	start.Flags, start.Ckpt = server.SessionOpenFlagCheckpoint, bytes.Clone(start.Ckpt)
	op, wire, err := server.EncodeSessionStart(start)
	if err != nil {
		g.replyErr(c, id, ts, server.ErrCodeBadFrame, err)
		return
	}

	walk := g.ring.walk(key)
	for attempt := 0; attempt < g.cfg.Retries; attempt++ {
		idx := walk.next()
		if !g.bs.Acquire(idx) {
			continue
		}
		f, err := g.bs.Do(g.Context(), idx, op, server.OpSessionOK, wire)
		if err != nil {
			var se *client.ServerError
			if errors.As(err, &se) && se.Code != server.ErrCodeDraining {
				// Authoritative verdict (for a restore: a garbage
				// checkpoint, answered as a parseable ERROR); replicas
				// would repeat it.
				g.replyErr(c, id, ts, se.Code, errors.New(se.Msg))
				return
			}
			// Shed, draining or transport failure: the stream was never
			// placed as far as the client knows; walk on. A session the
			// shard DID open before the failure is orphaned there and
			// falls to its idle reaper.
			continue
		}
		backendID, overlap, gen, derr := server.DecodeSessionOK(f.Body, server.SessionOpenFlagCheckpoint)
		if derr != nil {
			g.replyErr(c, id, ts, server.ErrCodeScan, fmt.Errorf("shard session-ok: %w", derr))
			return
		}
		p := placement{backend: idx, head: shardHead(backendID), ts: ts,
			key: key, overlap: overlap, gen: gen, ckpt: start.Ckpt, clientFlags: clientFlags}
		if start.Ckpt != nil {
			if info, perr := core.PeekCheckpoint(start.Ckpt); perr == nil {
				p.fin = info.Consumed - info.Buffered
			}
		}
		sess := g.sessions.Open(c, p)
		if sess == nil {
			break
		}
		g.met.sessOpens.Inc()
		if start.Ckpt != nil {
			g.met.sessRestores.Inc()
		}
		ts.ok.Inc()
		g.met.ok.Inc()
		c.WriteFrame(server.Frame{Op: server.OpSessionOK, ID: id,
			Body: server.EncodeSessionOK(sess.ID, overlap, gen, clientFlags)})
		return
	}
	g.shedReply(c, id, ts, server.ShedReasonCapacity)
}

// dispatchSessionFrame admits one SESSION-DATA/SESSION-CLOSE on the
// reader goroutine (quota already taken): resolve the gateway id and
// join the session's FIFO. Every refusal refunds the quota token; a
// full FIFO or fair queue sheds — the frame was not forwarded, so the
// client may resend it.
func (g *Gateway) dispatchSessionFrame(c *server.Conn, ts *tenantState, op byte, body []byte, id uint32) {
	gwID, err := server.SessionID(op, body)
	if err != nil {
		ts.quota.give()
		g.replyErr(c, id, ts, server.ErrCodeBadFrame, err)
		return
	}
	verdict := server.SessionGone
	if sess := g.sessions.Lookup(c, gwID); sess != nil && sess.State.ts == ts {
		verdict = g.sessions.Push(sess, server.Frame{Op: op, ID: id, Body: body})
	}
	switch verdict {
	case server.SessionGone:
		g.unknownSession(c, ts, id, gwID)
	case server.SessionShed:
		ts.quota.give()
		g.shedReply(c, id, ts, server.ShedReasonFairQ)
	}
}

// unknownSession refuses one session frame whose id is not (or no
// longer) an open session of this connection and tenant.
func (g *Gateway) unknownSession(c *server.Conn, ts *tenantState, id uint32, gwID uint64) {
	ts.quota.give()
	g.replyErr(c, id, ts, server.ErrCodeUnknownSession, fmt.Errorf("unknown session %d", gwID))
}

// scheduleSession places sess's runner in its tenant's fair queue.
func (g *Gateway) scheduleSession(sess *gwSession) bool {
	c := sess.Owner
	c.Pending.Add(1)
	if g.fq.push(sess.State.ts.name, job{c: c, sess: sess}) {
		return true
	}
	c.Pending.Done()
	return false
}

// runSessionFrame answers one queued session frame on the runner's
// worker: forward it, or refuse it unknown-session when a frame ahead
// of it closed the session.
func (g *Gateway) runSessionFrame(sess *gwSession, fr server.Frame, closed bool) {
	if closed {
		g.unknownSession(sess.Owner, sess.State.ts, fr.ID, sess.ID)
		return
	}
	g.forwardSessionFrame(sess, fr)
}

// forwardSessionFrame relays one session frame to its current shard
// under the shard's own id. Transport loss, an open breaker, or an
// unknown-session verdict (shard restarted or reaped the stream) does
// not kill the session: the frame fails over.
func (g *Gateway) forwardSessionFrame(sess *gwSession, fr server.Frame) {
	if !g.bs.Acquire(sess.State.backend) {
		// The current shard's breaker is open: move the stream instead
		// of queueing against a dead shard.
		g.failoverSessionFrame(sess, fr)
		return
	}
	f, err := g.relay(sess, fr)
	if err != nil {
		if !g.answerFrameFault(sess, fr.ID, err) {
			// Transport loss mid-stream, a draining shard, or a shard
			// that restarted/reaped and no longer knows the stream.
			g.failoverSessionFrame(sess, fr)
		}
		return
	}
	g.ackSessionReply(sess, fr, f, false)
}

// answerFrameFault answers a session frame whose shard call failed with
// a verdict the client must see, and reports whether it did: a SHED
// (the shard refused the frame without absorbing it; the session is
// intact and the client may resend the chunk), or an authoritative
// verdict about the stream itself (a scan fault that killed it: the
// carry state is gone on every replica equally, so the session is
// over). Any other failure is the caller's to fail over.
func (g *Gateway) answerFrameFault(sess *gwSession, id uint32, err error) bool {
	if errors.Is(err, client.ErrShed) {
		g.shedReply(sess.Owner, id, sess.State.ts, server.ShedReasonCapacity)
		return true
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code == server.ErrCodeUnknownSession || se.Code == server.ErrCodeDraining {
		return false
	}
	g.sessions.Close(sess)
	g.replyErr(sess.Owner, id, sess.State.ts, se.Code, errors.New(se.Msg))
	return true
}

// relay sends one session frame to the current shard: the shard's id
// head, then the chunk that follows the gateway id in the client's
// body (nothing, for a SESSION-CLOSE), as one frame — the chunk is
// never copied. Dispatch already read the id, so the body parses.
func (g *Gateway) relay(sess *gwSession, fr server.Frame) (server.Frame, error) {
	_, chunk, _ := server.DecodeSessionData(fr.Body)
	return g.bs.DoPrefixed(g.Context(), sess.State.backend, fr.Op, server.OpSessionMatches, sess.State.head, chunk)
}

// failoverSessionFrame moves a stream whose shard was lost mid-frame:
// walk the ring order for the session's key, SESSION-RESTORE the last
// acked checkpoint on the next replica (or a fresh checkpointed open
// when nothing was acked yet — the stream had absorbed nothing), fence
// the restore to the generation the checkpoint was exported under, and
// replay the one in-flight frame there. The replayed matches are
// deduplicated against the finalised-prefix high-water mark before
// forwarding, so a client transcript can never carry a match twice.
// When no replica at the right generation is reachable within the
// attempt budget the frame answers SHED — the chunk was absorbed
// nowhere (the restore point predates it), the client may resend it,
// and the session stays alive for the next attempt.
func (g *Gateway) failoverSessionFrame(sess *gwSession, fr server.Frame) {
	g.met.sessFailovers.Inc()
	lost := sess.State.backend
	walk := g.ring.walk(sess.State.key)
	for attempt := 0; attempt < g.cfg.Retries; attempt++ {
		idx := walk.next()
		if idx == lost && attempt < g.ring.n {
			// First pass: prefer any other replica over the shard that
			// just failed. Later passes re-admit it — a shard that
			// restarted (answered unknown-session) is reachable and may
			// be the only replica at the checkpoint's generation.
			continue
		}
		if !g.bs.Acquire(idx) {
			continue
		}

		// Rebuild the stream on the candidate replica: a restore of the
		// last acked checkpoint, or a fresh open when none was acked.
		rop, wire, err := server.EncodeSessionStart(server.SessionStart{Overlap: sess.State.overlap,
			Flags: server.SessionOpenFlagCheckpoint, Ckpt: sess.State.ckpt})
		if err != nil {
			continue
		}
		f, err := g.bs.Do(g.Context(), idx, rop, server.OpSessionOK, wire)
		if err != nil {
			// Shed, transport loss, or an ERROR (a replica whose rule
			// set disagrees with the checkpoint answers one): walk on.
			continue
		}
		backendID, _, gen, derr := server.DecodeSessionOK(f.Body, server.SessionOpenFlagCheckpoint)
		if derr != nil {
			continue
		}
		if gen != sess.State.gen {
			// Generation fence: the replica serves a different rule set
			// than the checkpoint was exported under; restoring there
			// could change results mid-stream. Refuse it — the orphaned
			// restore falls to the shard's idle reaper — and let the
			// anti-entropy reconciler converge the fleet.
			g.met.sessGenRefused.Inc()
			continue
		}
		sess.State.backend, sess.State.head = idx, shardHead(backendID)
		g.met.sessRestores.Inc()

		// Replay the one in-flight frame on the replacement shard.
		if !g.bs.Acquire(idx) {
			continue
		}
		rf, rerr := g.relay(sess, fr)
		if rerr != nil {
			if g.answerFrameFault(sess, fr.ID, rerr) {
				return
			}
			// The replacement died too; keep walking — the checkpoint
			// still restores the same stream on the next replica.
			continue
		}
		g.met.sessReplays.Inc()
		g.ackSessionReply(sess, fr, rf, true)
		return
	}
	// No replica absorbed the frame: SHED this chunk only. The session
	// mapping survives — the next frame (a resend, or the next chunk)
	// re-attempts the failover.
	g.shedReply(sess.Owner, fr.ID, sess.State.ts, server.ShedReasonCapacity)
}

// ackSessionReply forwards one shard SESSION-MATCHES to the client:
// harvest the checkpoint piggyback (the state the next failover would
// restore), advance the finalised-prefix high-water mark, dedup
// replayed matches against it, and encode the answer for the client
// straight into its frame buffer — the shard's match records as they
// arrived, plain unless the client negotiated checkpoints itself.
func (g *Gateway) ackSessionReply(sess *gwSession, fr, f server.Frame, replayed bool) {
	c, id := sess.Owner, fr.ID
	final, consumed, recs, ckpt, derr := server.DecodeSessionMatchesBytes(f.Body, server.SessionOpenFlagCheckpoint)
	if derr != nil {
		// The shard broke the protocol; nothing downstream can be
		// trusted. Terminal.
		g.sessions.Close(sess)
		g.replyErr(c, id, sess.State.ts, server.ErrCodeScan, fmt.Errorf("shard session-matches: %w", derr))
		return
	}
	if fin := sess.State.fin; replayed && fin > 0 {
		// Every match already forwarded to the client starts before the
		// finalised prefix (the checkpoint's window base); every match a
		// correctly restored replay emits starts at or past it. Matches
		// below the mark are re-emissions and must not reach the client
		// twice.
		recs = recs.Keep(func(m server.RuleMatch) bool {
			if m.Start < fin {
				g.met.sessDedup.Inc()
				return false
			}
			return true
		})
	}
	if ckpt != nil {
		sess.State.ckpt = append(sess.State.ckpt[:0], ckpt...)
		if info, perr := core.PeekCheckpoint(ckpt); perr == nil {
			sess.State.fin = info.Consumed - info.Buffered
		}
	}
	if fr.Op == server.OpSessionClose {
		g.sessions.Close(sess)
		g.met.sessCloses.Inc()
	}
	sess.State.ts.ok.Inc()
	g.met.ok.Inc()
	if sess.State.clientFlags&server.SessionOpenFlagCheckpoint == 0 {
		ckpt = nil
	}
	c.WriteBody(server.OpSessionMatches, id, func(buf []byte) []byte {
		return server.AppendSessionMatches(buf, final, consumed, recs, ckpt)
	})
}

// SessionCount reports the open mapping count (tests and diagnostics).
func (g *Gateway) SessionCount() int { return g.sessions.Count() }
