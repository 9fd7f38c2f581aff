package client

import (
	"context"
	"errors"
	"fmt"

	"alveare/internal/server"
)

// ErrSessionClosed reports a write into a client session after Close
// or after a terminal failure ended it.
var ErrSessionClosed = errors.New("client: session closed")

// Session is one server-side streaming scan: chunks pushed with Write
// are absorbed into the server's carry-over state, and the matches come
// back with absolute stream offsets, byte-identical to a local
// Engine.ScanReader over the concatenated stream — including matches
// that straddle Write boundaries (up to the negotiated overlap).
//
// Sessions are stateful and therefore live OUTSIDE the client's retry
// budget: a retried SESSION-DATA could double-absorb its chunk, so no
// session request is ever retried automatically. The failure contract
// is explicit instead — a SHED means the chunk was NOT absorbed (the
// caller may resend the same chunk after backoff); any other error is
// terminal for the session (the server dropped the carry state; the
// caller re-opens and replays from its own source). A session is bound
// to the TCP connection that opened it, so a client reconnect kills it
// — the next Write answers unknown-session.
//
// A Session is single-goroutine, like the local scanners it mirrors;
// the Client underneath stays safe for concurrent use by other
// requests.
type Session struct {
	c       *Client
	id      uint64
	overlap uint32
	done    bool
	// head is what every SESSION-DATA chunk follows on the wire: the
	// session id (encoded as the SESSION-CLOSE body, which is the id
	// alone), behind the client's TENANT envelope when it has one.
	head []byte

	// Checkpoint negotiation (OpenSessionCheckpointCtx /
	// RestoreSessionCtx): flags are the SESSION-OPEN flags the stream
	// started with, gen the server rule generation it runs under, ckpt
	// the post-frame carry state the last acked SESSION-MATCHES
	// piggybacked — together everything a caller needs to
	// SESSION-RESTORE the stream on a replica after losing this server.
	flags byte
	gen   uint32
	ckpt  []byte
}

// OpenSessionCtx opens a streaming session against the server's
// current rule snapshot. overlap is the boundary carry in bytes (the
// longest match reported identically to a one-shot scan); non-positive
// selects the server's default, and one above server.MaxSessionOverlap
// is refused before anything is sent. The session is pinned to the snapshot
// at open — a concurrent RELOAD never splits one stream across two
// rule-set generations.
func (c *Client) OpenSessionCtx(ctx context.Context, overlap int) (*Session, error) {
	return c.startSession(ctx, server.SessionStart{Overlap: uint32(max(overlap, 0))})
}

// OpenSession opens a streaming session.
func (c *Client) OpenSession(overlap int) (*Session, error) {
	return c.OpenSessionCtx(context.Background(), overlap)
}

// OpenSessionCheckpointCtx opens a streaming session with checkpoint
// negotiation: the server answers with its rule generation and
// piggybacks a post-frame checkpoint on every SESSION-MATCHES ack
// (Checkpoint/Generation expose them). A relay — or the caller itself —
// can RestoreSessionCtx that checkpoint on a replica running the same
// rule generation and continue the stream byte-identically.
func (c *Client) OpenSessionCheckpointCtx(ctx context.Context, overlap int) (*Session, error) {
	return c.startSession(ctx, server.SessionStart{Overlap: uint32(max(overlap, 0)), Flags: server.SessionOpenFlagCheckpoint})
}

// RestoreSessionCtx opens a streaming session seeded from an exported
// checkpoint (SESSION-RESTORE). The server must hold a rule set
// equivalent to the checkpoint's exporter — callers enforce that with
// Generation. The restored session keeps checkpoint negotiation on, so
// it can itself be checkpointed onward. A garbage checkpoint answers a
// clean typed error; no session is created.
func (c *Client) RestoreSessionCtx(ctx context.Context, ckpt []byte) (*Session, error) {
	return c.startSession(ctx, server.SessionStart{Flags: server.SessionOpenFlagCheckpoint, Ckpt: ckpt})
}

// startSession sends the SESSION-OPEN or SESSION-RESTORE that start
// describes and binds the stream the server answers with.
func (c *Client) startSession(ctx context.Context, start server.SessionStart) (*Session, error) {
	op, body, err := server.EncodeSessionStart(start)
	if err != nil {
		return nil, err
	}
	f, err := c.do(ctx, op, server.OpSessionOK, body, false)
	if err != nil {
		return nil, err
	}
	id, overlap, gen, err := server.DecodeSessionOK(f.Body, start.Flags)
	if err != nil {
		return nil, fmt.Errorf("client: protocol desync: %w", err)
	}
	env := c.tenantHeads[server.OpSessionData] // nil without a tenant
	return &Session{c: c, id: id, overlap: overlap, flags: start.Flags, gen: gen,
		head: append(env[:len(env):len(env)], server.EncodeSessionClose(id)...),
		ckpt: append([]byte(nil), start.Ckpt...)}, nil
}

// ID returns the server-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Overlap returns the negotiated boundary carry in bytes.
func (s *Session) Overlap() int { return int(s.overlap) }

// Generation returns the server rule generation the session runs under
// (0 unless the session negotiated checkpoints). A checkpoint may only
// be restored onto a server at the same generation.
func (s *Session) Generation() uint32 { return s.gen }

// Checkpoint returns the post-frame checkpoint the last acked write
// piggybacked (nil before the first ack, or when the session did not
// negotiate checkpoints). The bytes are owned by the session and
// overwritten by the next ack; copy to retain.
func (s *Session) Checkpoint() []byte { return s.ckpt }

// WriteCtx pushes one chunk into the stream and returns the matches it
// finalised (absolute stream offsets) plus the total bytes the server
// has absorbed. On ErrShed the chunk was not absorbed and may be
// resent as-is after backoff; any other error ends the session.
func (s *Session) WriteCtx(ctx context.Context, chunk []byte) (ms []server.RuleMatch, consumed uint64, err error) {
	if s.done {
		return nil, 0, ErrSessionClosed
	}
	f, err := s.c.doPrefixed(ctx, server.OpSessionData, server.OpSessionMatches, s.head, chunk, false)
	if err != nil {
		if !errors.Is(err, ErrShed) {
			s.done = true
		}
		return nil, 0, err
	}
	final, consumed, ms, ckpt, derr := server.DecodeSessionMatches(f.Body, s.flags)
	if derr != nil || final {
		s.done = true
		if derr != nil {
			return nil, 0, fmt.Errorf("client: protocol desync: %w", derr)
		}
		return nil, 0, errors.New("client: protocol desync: final session answer to a data frame")
	}
	if ckpt != nil {
		s.ckpt = append(s.ckpt[:0], ckpt...)
	}
	return ms, consumed, nil
}

// Write pushes one chunk into the stream.
func (s *Session) Write(chunk []byte) (ms []server.RuleMatch, consumed uint64, err error) {
	return s.WriteCtx(context.Background(), chunk)
}

// CloseCtx finalises the stream: the server scans the carry-over tail
// as the final window, returns its last matches, and drops the
// session. Close is terminal whatever the outcome.
func (s *Session) CloseCtx(ctx context.Context) (ms []server.RuleMatch, consumed uint64, err error) {
	if s.done {
		return nil, 0, ErrSessionClosed
	}
	s.done = true
	f, err := s.c.do(ctx, server.OpSessionClose, server.OpSessionMatches, server.EncodeSessionClose(s.id), false)
	if err != nil {
		return nil, 0, err
	}
	final, consumed, ms, _, derr := server.DecodeSessionMatches(f.Body, s.flags)
	if derr != nil {
		return nil, 0, fmt.Errorf("client: protocol desync: %w", derr)
	}
	if !final {
		return nil, 0, errors.New("client: protocol desync: non-final session answer to a close frame")
	}
	return ms, consumed, nil
}

// Close finalises the stream.
func (s *Session) Close() (ms []server.RuleMatch, consumed uint64, err error) {
	return s.CloseCtx(context.Background())
}
