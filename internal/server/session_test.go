package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// streamRules and streamPayload build a corpus dense in matches that
// straddle arbitrary chunk boundaries: repeated runs whose matches
// (e.g. "ab+c" over "abbbbbc") span more bytes than the small frame
// sizes the tests push.
var streamRules = []string{"ab+c", "needle", "x[0-9]+y", "GET /[a-z/]+"}

func streamPayload(n int) []byte {
	rng := rand.New(rand.NewSource(42))
	var b bytes.Buffer
	pieces := []string{
		"abc", "abbbbbbbbbbbc", "needle", "x12345y", "GET /index/html",
		"..", "nee", "ab", "x9", "filler filler",
	}
	for b.Len() < n {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.Bytes()
}

// localStreamMatches is the ground truth: the local engine's streaming
// scan over the same payload and overlap.
func localStreamMatches(t *testing.T, rules []string, payload []byte, overlap int) []server.RuleMatch {
	t.Helper()
	opts := []core.Option{core.WithDFA()}
	if overlap > 0 {
		opts = append(opts, core.WithOverlap(overlap))
	}
	rs, err := core.NewRuleSet(rules, backend.Options{}, opts...)
	if err != nil {
		t.Fatalf("NewRuleSet: %v", err)
	}
	var want []server.RuleMatch
	if _, err := rs.ScanReaderCtx(context.Background(), bytes.NewReader(payload),
		func(rule int, m core.Match, _ []byte) bool {
			want = append(want, server.RuleMatch{Rule: uint32(rule), Start: uint64(m.Start), End: uint64(m.End)})
			return true
		}); err != nil {
		t.Fatalf("ScanReaderCtx: %v", err)
	}
	sortMatches(want)
	return want
}

// TestServerSessionMatchesLocalStreaming pins the tentpole invariant:
// a session fed arbitrary-sized frames returns exactly the matches the
// local streaming engine produces over the concatenated stream —
// including matches straddling frame boundaries.
func TestServerSessionMatchesLocalStreaming(t *testing.T) {
	t.Cleanup(leakCheck(t))
	payload := streamPayload(64 << 10)
	_, addr := startServer(t, server.Config{Rules: streamRules})
	c := dial(t, addr)

	for _, chunk := range []int{7, 64, 1024, 100_000 /* single frame > payload */} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			sess, err := c.OpenSession(0)
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			var got []server.RuleMatch
			for off := 0; off < len(payload); off += chunk {
				end := off + chunk
				if end > len(payload) {
					end = len(payload)
				}
				ms, consumed, err := sess.Write(payload[off:end])
				if err != nil {
					t.Fatalf("Write at %d: %v", off, err)
				}
				if consumed != uint64(end) {
					t.Fatalf("consumed = %d, want %d", consumed, end)
				}
				got = append(got, ms...)
			}
			ms, consumed, err := sess.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			if consumed != uint64(len(payload)) {
				t.Fatalf("final consumed = %d, want %d", consumed, len(payload))
			}
			got = append(got, ms...)
			sortMatches(got)
			want := localStreamMatches(t, streamRules, payload, 0)
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("match count: session %d, local %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("match %d: session %+v, local %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestServerSessionStraddle pins one match that spans a frame boundary
// exactly: no frame alone contains it, only the overlap carry finds it.
func TestServerSessionStraddle(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, addr := startServer(t, server.Config{Rules: []string{"needle"}})
	c := dial(t, addr)
	sess, err := c.OpenSession(64)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if sess.Overlap() != 64 {
		t.Fatalf("negotiated overlap = %d, want 64", sess.Overlap())
	}
	var got []server.RuleMatch
	for _, frame := range []string{"....nee", "dle...."} {
		ms, _, err := sess.Write([]byte(frame))
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		got = append(got, ms...)
	}
	ms, _, err := sess.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	got = append(got, ms...)
	if len(got) != 1 || got[0] != (server.RuleMatch{Rule: 0, Start: 4, End: 10}) {
		t.Fatalf("straddling match = %+v, want [{0 4 10}]", got)
	}
}

// TestServerSessionPinnedAcrossReload: a streaming session is bound to
// the rule snapshot it opened against — a RELOAD mid-session must not
// leak the new generation's rules into the flow (nor lose the old
// ones). Every DATA frame after the reload still scans with the
// opening generation; only sessions opened afterwards see the new
// rules.
func TestServerSessionPinnedAcrossReload(t *testing.T) {
	t.Cleanup(leakCheck(t))
	srv, addr := startServer(t, server.Config{Rules: []string{"foo"}})
	c := dial(t, addr)

	sess, err := c.OpenSession(0)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	chunk := []byte("..foo..bar..")
	collect := func(ms []server.RuleMatch, err error) []server.RuleMatch {
		t.Helper()
		if err != nil {
			t.Fatalf("session op: %v", err)
		}
		return ms
	}
	var got []server.RuleMatch
	ms, _, err := sess.Write(chunk)
	got = append(got, collect(ms, err)...)

	// Swap the rule set under the open session.
	if gen, err := srv.Reload([]string{"bar"}); err != nil || gen != 1 {
		t.Fatalf("Reload: gen %d err %v", gen, err)
	}

	// Frames after the reload still scan with generation 0: "foo"
	// matches keep coming, "bar" never appears.
	for i := 0; i < 3; i++ {
		ms, _, err := sess.Write(chunk)
		got = append(got, collect(ms, err)...)
	}
	ms, _, err = sess.Close()
	got = append(got, collect(ms, err)...)

	if len(got) != 4 {
		t.Fatalf("pinned session matches = %d, want 4 (one foo per frame): %+v", len(got), got)
	}
	for i, m := range got {
		if m.Rule != 0 {
			t.Fatalf("match %d rule = %d, want 0 (opening generation)", i, m.Rule)
		}
		off := uint64(i * len(chunk))
		if m.Start != off+2 || m.End != off+5 {
			t.Fatalf("match %d = [%d,%d), want foo at [%d,%d)", i, m.Start, m.End, off+2, off+5)
		}
	}

	// A session opened after the reload scans with the new generation.
	sess2, err := c.OpenSession(0)
	if err != nil {
		t.Fatalf("OpenSession after reload: %v", err)
	}
	var got2 []server.RuleMatch
	ms, _, err = sess2.Write(chunk)
	got2 = append(got2, collect(ms, err)...)
	ms, _, err = sess2.Close()
	got2 = append(got2, collect(ms, err)...)
	if len(got2) != 1 || got2[0] != (server.RuleMatch{Rule: 0, Start: 7, End: 10}) {
		t.Fatalf("post-reload session matches = %+v, want [{0 7 10}] (bar)", got2)
	}
}

// TestServerSessionUnknownID: data for a session that never existed is
// an authoritative unknown-session error, not a hang or a scan.
func TestServerSessionUnknownID(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, addr := startServer(t, server.Config{Rules: streamRules})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if err := server.WriteFrame(nc, server.Frame{Op: server.OpSessionData, ID: 1,
		Body: server.EncodeSessionData(12345, []byte("abc"))}); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := server.ReadFrame(nc, server.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	code, _, err := server.DecodeError(f.Body)
	if f.Op != server.OpError || err != nil || code != server.ErrCodeUnknownSession {
		t.Fatalf("got op %s code %d err %v, want ERROR/unknown-session", server.OpName(f.Op), code, err)
	}
}

// TestServerSessionCrossConnRejected: a session id is bound to the
// connection that opened it — another connection presenting the same
// id gets unknown-session, never the other flow's state.
func TestServerSessionCrossConnRejected(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		addr := serve(t, build(frontOpts{}))
		c := dial(t, addr)
		sess, err := c.OpenSession(0)
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		if err := server.WriteFrame(nc, server.Frame{Op: server.OpSessionData, ID: 9,
			Body: server.EncodeSessionData(sess.ID(), []byte("abc"))}); err != nil {
			t.Fatalf("write: %v", err)
		}
		f, err := server.ReadFrame(nc, server.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		code, _, _ := server.DecodeError(f.Body)
		if f.Op != server.OpError || code != server.ErrCodeUnknownSession {
			t.Fatalf("cross-conn data answered %s code %d, want ERROR/unknown-session", server.OpName(f.Op), code)
		}
		// The rightful owner is unaffected.
		if _, _, err := sess.Write([]byte("needle")); err != nil {
			t.Fatalf("owner Write after hijack attempt: %v", err)
		}
		if _, _, err := sess.Close(); err != nil {
			t.Fatalf("owner Close: %v", err)
		}
	})
}

// TestServerSessionLimit: MaxSessions is a hard cap answered with SHED
// (retryable after backoff), and closing a session frees its slot.
func TestServerSessionLimit(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		addr := serve(t, build(frontOpts{MaxSessions: 1}))
		c := dial(t, addr)
		sess, err := c.OpenSession(0)
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		if _, err := c.OpenSession(0); !errors.Is(err, client.ErrShed) {
			t.Fatalf("second open err = %v, want ErrShed", err)
		}
		if _, _, err := sess.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		sess2, err := c.OpenSession(0)
		if err != nil {
			t.Fatalf("open after close: %v", err)
		}
		sess2.Close()
	})
}

// TestServerSessionIdleReap: an abandoned session is reaped after the
// idle timeout and its id answers unknown-session afterwards.
func TestServerSessionIdleReap(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		srv := build(frontOpts{SessionIdleTimeout: 50 * time.Millisecond})
		addr := serve(t, srv)
		c := dial(t, addr)
		sess, err := c.OpenSession(0)
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.SessionCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("session not reaped; count = %d", srv.SessionCount())
			}
			time.Sleep(5 * time.Millisecond)
		}
		_, _, err = sess.Write([]byte("abc"))
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != server.ErrCodeUnknownSession {
			t.Fatalf("write after reap err = %v, want unknown-session", err)
		}
	})
}

// TestServerSessionConnCloseReaps: the owner connection going away
// reaps its sessions — no leak from clients that die mid-stream.
func TestServerSessionConnCloseReaps(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		srv := build(frontOpts{})
		addr := serve(t, srv)
		c := dial(t, addr)
		if _, err := c.OpenSession(0); err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		if n := srv.SessionCount(); n != 1 {
			t.Fatalf("SessionCount = %d, want 1", n)
		}
		c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for srv.SessionCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("session survived its connection; count = %d", srv.SessionCount())
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestServerSessionPipelinedFIFO pipelines many DATA frames without
// waiting for responses and asserts the session executed them in
// arrival order: consumed offsets come back strictly increasing and
// the union of matches equals the local streaming scan.
func TestServerSessionPipelinedFIFO(t *testing.T) {
	t.Cleanup(leakCheck(t))
	payload := streamPayload(8 << 10)
	const chunk = 512
	nFrames := (len(payload) + chunk - 1) / chunk
	_, addr := startServer(t, server.Config{Rules: streamRules, Workers: 4, SessionPending: nFrames + 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	if err := server.WriteFrame(nc, server.Frame{Op: server.OpSessionOpen, ID: 1,
		Body: make([]byte, 4)}); err != nil { // SESSION-OPEN, default overlap
		t.Fatalf("open: %v", err)
	}
	f, err := server.ReadFrame(nc, server.DefaultMaxFrame)
	if err != nil || f.Op != server.OpSessionOK {
		t.Fatalf("open answer: op %s err %v", server.OpName(f.Op), err)
	}
	sid, _, _, err := server.DecodeSessionOK(f.Body, 0)
	if err != nil {
		t.Fatalf("DecodeSessionOK: %v", err)
	}

	// Blast every frame, then the close, before reading anything.
	id := uint32(1)
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		id++
		if err := server.WriteFrame(nc, server.Frame{Op: server.OpSessionData, ID: id,
			Body: server.EncodeSessionData(sid, payload[off:end])}); err != nil {
			t.Fatalf("data write: %v", err)
		}
	}
	id++
	if err := server.WriteFrame(nc, server.Frame{Op: server.OpSessionClose, ID: id,
		Body: server.EncodeSessionClose(sid)}); err != nil {
		t.Fatalf("close write: %v", err)
	}

	var got []server.RuleMatch
	var lastConsumed uint64
	for i := 0; i < nFrames+1; i++ {
		f, err := server.ReadFrame(nc, server.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if f.Op != server.OpSessionMatches {
			t.Fatalf("response %d: op %s body %q", i, server.OpName(f.Op), f.Body)
		}
		if f.ID != uint32(i+2) {
			t.Fatalf("response %d: id %d, want %d (FIFO order violated)", i, f.ID, i+2)
		}
		final, consumed, ms, _, err := server.DecodeSessionMatches(f.Body, 0)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if consumed < lastConsumed {
			t.Fatalf("consumed went backwards: %d after %d", consumed, lastConsumed)
		}
		lastConsumed = consumed
		if final != (i == nFrames) {
			t.Fatalf("response %d: final = %v", i, final)
		}
		got = append(got, ms...)
	}
	sortMatches(got)
	want := localStreamMatches(t, streamRules, payload, 0)
	if len(got) != len(want) {
		t.Fatalf("match count: pipelined session %d, local %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: session %+v, local %+v", i, got[i], want[i])
		}
	}
}

// TestServerSessionPendingSheds: a session's FIFO bound answers SHED
// once the pipelined backlog exceeds SessionPending — per-session
// memory stays bounded no matter how fast the client pushes.
func TestServerSessionPendingSheds(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, build func(frontOpts) frontEnd) {
		release := make(chan struct{})
		var hooked sync.Once
		started := make(chan struct{})
		var block atomic.Bool // armed after OPEN so only DATA frames stall
		addr := serve(t, build(frontOpts{
			Workers: 1, SessionPending: 2,
			ScanHook: func() {
				if !block.Load() {
					return
				}
				hooked.Do(func() { close(started) })
				<-release
			},
		}))
		defer close(release)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		if err := server.WriteFrame(nc, server.Frame{Op: server.OpSessionOpen, ID: 1,
			Body: make([]byte, 4)}); err != nil { // SESSION-OPEN, default overlap
			t.Fatalf("open: %v", err)
		}
		f, _ := server.ReadFrame(nc, server.DefaultMaxFrame)
		sid, _, _, err := server.DecodeSessionOK(f.Body, 0)
		if err != nil {
			t.Fatalf("DecodeSessionOK: %v", err)
		}
		block.Store(true)
		// First data frame occupies the lone worker (ScanHook blocks).
		server.WriteFrame(nc, server.Frame{Op: server.OpSessionData, ID: 2,
			Body: server.EncodeSessionData(sid, []byte("abc"))})
		<-started
		// The FIFO now absorbs SessionPending frames; the next must shed.
		sawShed := false
		for i := uint32(0); i < 8 && !sawShed; i++ {
			server.WriteFrame(nc, server.Frame{Op: server.OpSessionData, ID: 3 + i,
				Body: server.EncodeSessionData(sid, []byte("abc"))})
			nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			f, err := server.ReadFrame(nc, server.DefaultMaxFrame)
			if err == nil && f.Op == server.OpShed {
				sawShed = true
			}
		}
		nc.SetReadDeadline(time.Time{})
		if !sawShed {
			t.Fatal("pipelined past SessionPending without a SHED")
		}
	})
}

// TestServerSessionDraining: session traffic during a drain answers
// ERROR draining; the open session's already-admitted work completes.
func TestServerSessionDraining(t *testing.T) {
	srv, err := server.New(server.Config{Rules: streamRules})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sess, err := c.OpenSessionCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if _, _, err := sess.Write([]byte("needle")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, _, err := sess.Write([]byte("more")); err == nil {
		t.Fatal("Write after drain succeeded")
	}
}

// TestServerBatchMatchesPerItem pins SCAN-BATCH semantics: per-item
// results equal individual SCANs in order, empty payloads included.
func TestServerBatchMatchesPerItem(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, addr := startServer(t, server.Config{Rules: streamRules})
	c := dial(t, addr)
	payloads := [][]byte{
		[]byte("..abc.."),
		{},
		[]byte("needle x42y needle"),
		[]byte(strings.Repeat("GET /a/b abbbc ", 100)),
		[]byte("no hits here"),
	}
	got, err := c.ScanBatch(payloads)
	if err != nil {
		t.Fatalf("ScanBatch: %v", err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("item count = %d, want %d", len(got), len(payloads))
	}
	for i, p := range payloads {
		want, err := c.Scan(p)
		if err != nil {
			t.Fatalf("Scan item %d: %v", i, err)
		}
		if got[i].Err != nil {
			t.Fatalf("item %d failed: %v", i, got[i].Err)
		}
		sortMatches(got[i].Matches)
		sortMatches(want)
		if len(got[i].Matches) != len(want) {
			t.Fatalf("item %d: batch %d matches, scan %d", i, len(got[i].Matches), len(want))
		}
		for j := range want {
			if got[i].Matches[j] != want[j] {
				t.Fatalf("item %d match %d: batch %+v, scan %+v", i, j, got[i].Matches[j], want[j])
			}
		}
	}
}

// TestServerSessionRestoreHandoff is the checkpoint tentpole at the
// protocol layer: a checkpointed session streams half its flow into
// server A, the last acked piggyback is SESSION-RESTOREd on server B
// (same rules), and the second half plus close completes there. The
// combined transcript must be byte-identical to the local streaming
// engine over the uninterrupted flow — the client-visible definition
// of a lossless handoff.
func TestServerSessionRestoreHandoff(t *testing.T) {
	t.Cleanup(leakCheck(t))
	payload := streamPayload(32 << 10)
	want := localStreamMatches(t, streamRules, payload, 0)
	_, addrA := startServer(t, server.Config{Rules: streamRules})
	_, addrB := startServer(t, server.Config{Rules: streamRules})
	ca := dial(t, addrA)
	cb := dial(t, addrB)

	for _, chunk := range []int{97, 1024, 8192} {
		sa, err := ca.OpenSessionCheckpointCtx(context.Background(), 0)
		if err != nil {
			t.Fatalf("chunk=%d open on A: %v", chunk, err)
		}
		var got []server.RuleMatch
		half := len(payload) / 2
		for off := 0; off < half; off += chunk {
			end := off + chunk
			if end > half {
				end = half
			}
			ms, _, err := sa.WriteCtx(context.Background(), payload[off:end])
			if err != nil {
				t.Fatalf("chunk=%d write A at %d: %v", chunk, off, err)
			}
			got = append(got, ms...)
		}
		ckpt := sa.Checkpoint()
		if ckpt == nil {
			t.Fatalf("chunk=%d: no checkpoint piggybacked after %d writes", chunk, (half+chunk-1)/chunk)
		}
		info, err := core.PeekCheckpoint(ckpt)
		if err != nil {
			t.Fatalf("chunk=%d: piggybacked checkpoint unparseable: %v", chunk, err)
		}
		if info.Consumed != uint64(half) {
			t.Fatalf("chunk=%d: checkpoint consumed %d, want %d", chunk, info.Consumed, half)
		}

		// Hand off to B. A's half-open session is abandoned (its reaper's
		// problem); B continues the stream from the checkpoint.
		sb, err := cb.RestoreSessionCtx(context.Background(), ckpt)
		if err != nil {
			t.Fatalf("chunk=%d restore on B: %v", chunk, err)
		}
		if sb.Generation() != sa.Generation() {
			t.Fatalf("chunk=%d: generation changed across handoff: %d -> %d", chunk, sa.Generation(), sb.Generation())
		}
		if sb.Overlap() != sa.Overlap() {
			t.Fatalf("chunk=%d: overlap changed across handoff: %d -> %d", chunk, sa.Overlap(), sb.Overlap())
		}
		for off := half; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			ms, _, err := sb.WriteCtx(context.Background(), payload[off:end])
			if err != nil {
				t.Fatalf("chunk=%d write B at %d: %v", chunk, off, err)
			}
			got = append(got, ms...)
		}
		if sb.Checkpoint() == nil {
			t.Fatalf("chunk=%d: restored session stopped piggybacking checkpoints", chunk)
		}
		ms, consumed, err := sb.CloseCtx(context.Background())
		if err != nil {
			t.Fatalf("chunk=%d close on B: %v", chunk, err)
		}
		if consumed != uint64(len(payload)) {
			t.Fatalf("chunk=%d: consumed %d, want %d", chunk, consumed, len(payload))
		}
		got = append(got, ms...)
		sortMatches(got)
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: handoff transcript %d matches, local %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d match %d: handoff %+v, local %+v", chunk, i, got[i], want[i])
			}
		}
	}
	snap, err := cb.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if snap.Get("server.session.restores") < 3 {
		t.Fatalf("server.session.restores = %d, want >= 3", snap.Get("server.session.restores"))
	}
}

// TestServerSessionRestoreGarbage: a SESSION-RESTORE carrying garbage —
// truncated frames, corrupt checkpoints, or a checkpoint exported under
// a different rule set — must answer a parseable typed ERROR on that
// frame alone, create no session state, and leave the connection in
// sync for subsequent requests.
func TestServerSessionRestoreGarbage(t *testing.T) {
	t.Cleanup(leakCheck(t))
	srv, addr := startServer(t, server.Config{Rules: streamRules})
	c := dial(t, addr)

	// A structurally valid checkpoint from a ONE-rule server: the rule
	// count disagrees with this server's four.
	_, addrOther := startServer(t, server.Config{Rules: []string{"needle"}})
	co := dial(t, addrOther)
	so, err := co.OpenSessionCheckpointCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("open on one-rule server: %v", err)
	}
	if _, _, err := so.WriteCtx(context.Background(), []byte("..needle..")); err != nil {
		t.Fatalf("write on one-rule server: %v", err)
	}
	foreign := append([]byte(nil), so.Checkpoint()...)

	// A checkpoint from THIS rule set, corrupted after export.
	sv, err := c.OpenSessionCheckpointCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, err := sv.WriteCtx(context.Background(), streamPayload(4096)); err != nil {
		t.Fatalf("write: %v", err)
	}
	valid := append([]byte(nil), sv.Checkpoint()...)
	truncated := valid[:len(valid)-1]
	badVersion := append([]byte(nil), valid...)
	badVersion[0] = 99
	badFlags := append([]byte(nil), valid...)
	badFlags[1] = 0xFF
	// Header defects a relay must see too (layout: core/checkpoint.go): the
	// overlap is the u32 at [2,6), the carry length the u32 at [14,18),
	// the rule count the u32 right after the carry.
	carryLen := binary.BigEndian.Uint32(valid[14:18])
	if carryLen < 2 {
		t.Fatalf("checkpoint carries %d bytes; the carry-past-overlap row needs >= 2", carryLen)
	}
	hugeOverlap := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hugeOverlap[2:6], 1<<30+1)
	carryPastOverlap := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(carryPastOverlap[2:6], carryLen-1)
	hugeRuleCount := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hugeRuleCount[18+carryLen:], 1<<20+1)

	// header marks defects ahead of the per-rule records, which
	// core.PeekCheckpoint — the gateway's view of a checkpoint it cannot
	// restore — must reject exactly as RestoreStream does: a dedup
	// prefix computed from a checkpoint no shard restores is wrong.
	for name, tc := range map[string]struct {
		ckpt   []byte
		header bool
	}{
		"empty":              {[]byte{}, true},
		"one-byte":           {[]byte{1}, true},
		"junk":               {[]byte("this is not a checkpoint"), true},
		"truncated":          {truncated, false},
		"bad-version":        {badVersion, true},
		"bad-flags":          {badFlags, true},
		"foreign-rules":      {foreign, false},
		"huge-overlap":       {hugeOverlap, true},
		"carry-past-overlap": {carryPastOverlap, true},
		"huge-rule-count":    {hugeRuleCount, true},
	} {
		ckpt := tc.ckpt
		if _, perr := core.PeekCheckpoint(ckpt); tc.header && !errors.Is(perr, core.ErrBadCheckpoint) {
			t.Fatalf("%s: PeekCheckpoint = %v, want ErrBadCheckpoint like RestoreStream", name, perr)
		}
		_, err := c.RestoreSessionCtx(context.Background(), ckpt)
		if err == nil {
			t.Fatalf("%s: garbage restore succeeded", name)
		}
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("%s: garbage restore failed without a typed server error: %v", name, err)
		}
		if se.Code != server.ErrCodeBadFrame {
			t.Fatalf("%s: error code %d, want bad-frame %d", name, se.Code, server.ErrCodeBadFrame)
		}
	}

	// No state leaked: only the one valid session remains, and the
	// connection never desynced — a fresh restore of the intact
	// checkpoint and a plain scan both still work.
	if got := srv.SessionCount(); got != 1 {
		t.Fatalf("garbage restores leaked sessions: %d, want 1", got)
	}
	sr, err := c.RestoreSessionCtx(context.Background(), valid)
	if err != nil {
		t.Fatalf("valid restore after garbage barrage: %v", err)
	}
	if _, _, err := sr.CloseCtx(context.Background()); err != nil {
		t.Fatalf("close restored session: %v", err)
	}
	if _, err := c.Scan([]byte("..needle..")); err != nil {
		t.Fatalf("scan after garbage barrage: %v", err)
	}
}

// TestServerSessionPlainNoCheckpoint: a session opened WITHOUT the
// checkpoint flag must never see a piggyback (the strict decode in the
// plain client would reject it) and answers the 12-byte SESSION-OK.
func TestServerSessionPlainNoCheckpoint(t *testing.T) {
	t.Cleanup(leakCheck(t))
	_, addr := startServer(t, server.Config{Rules: streamRules})
	c := dial(t, addr)
	sess, err := c.OpenSession(0)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	// The plain client decodes with its own (flagless) start flags: a
	// stray piggyback would fail this write loudly.
	if _, _, err := sess.Write(streamPayload(8192)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, _, err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
