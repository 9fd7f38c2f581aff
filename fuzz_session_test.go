// Fuzzers for the batched and streaming service protocol, both run as
// 30-second smokes by `make fuzzsmoke`:
//
//   - FuzzScanBatch: arbitrary payloads split into arbitrary item
//     sizes; every SCAN-BATCH item's matches must equal a local
//     one-shot scan of that item.
//   - FuzzSessionFraming: arbitrary payloads pushed through a session
//     in arbitrary frame splits must reproduce the one-shot scan
//     (the overlap is opened wider than the payload, so no blind
//     spot applies); and raw garbage bodies on SESSION-DATA /
//     SESSION-CLOSE frames must come back as clean typed errors
//     without desyncing or killing the connection.
//
// Both share one real TCP server per fuzz target, torn down with it;
// iterations are sequential, so one client and one raw connection
// serve the whole run.
package alveare_test

import (
	"context"
	"net"
	"testing"

	"alveare/internal/core"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// fuzzSessionOverlap is opened wider than any accepted fuzz payload,
// so the one-shot scan is a valid oracle for every chunking.
const fuzzSessionOverlap = 4096

// fuzzMaxData caps fuzz payloads below the session overlap.
const fuzzMaxData = 2048

// startFuzzService boots the shared server plus a client, a raw
// connection and the local oracle rule set for one fuzz target.
func startFuzzService(f *testing.F) (*client.Client, net.Conn, *core.RuleSet) {
	f.Helper()
	srv, err := server.New(server.Config{Rules: diffSessRules})
	if err != nil {
		f.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	f.Cleanup(func() { srv.Close() })
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		f.Fatalf("dial: %v", err)
	}
	f.Cleanup(func() { c.Close() })
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		f.Fatalf("raw dial: %v", err)
	}
	f.Cleanup(func() { raw.Close() })
	return c, raw, diffLocalRuleSet(f, 0)
}

// FuzzScanBatch cross-checks SCAN-BATCH against per-item one-shot
// scans for arbitrary payloads and arbitrary item splits.
func FuzzScanBatch(f *testing.F) {
	c, _, rs := startFuzzService(f)
	f.Add([]byte("abcneedlex12y GET /a/b aabbaaab"), uint16(5))
	f.Add([]byte("abbbbbbbbbbbbbbbbc"), uint16(1))
	f.Add([]byte(""), uint16(40))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		if len(data) > 2*fuzzMaxData {
			t.Skip("oversized")
		}
		size := 1 + int(split)%127
		var items [][]byte
		for off := 0; off < len(data); off += size {
			end := off + size
			if end > len(data) {
				end = len(data)
			}
			items = append(items, data[off:end])
		}
		items = append(items, nil) // always one empty item
		res, err := c.ScanBatch(items)
		if err != nil {
			t.Fatalf("ScanBatch(%d items): %v", len(items), err)
		}
		if len(res) != len(items) {
			t.Fatalf("batch answered %d items for %d payloads", len(res), len(items))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("item %d (%d bytes) failed: %v", i, len(items[i]), r.Err)
			}
			want := diffLocalOneShot(t, rs, items[i])
			got := append([]server.RuleMatch(nil), r.Matches...)
			sortRuleMatches(got)
			if !diffMatchesEqual(got, want) {
				t.Fatalf("item %d (%d bytes): batch got %d matches, one-shot wants %d",
					i, len(items[i]), len(got), len(want))
			}
		}
	})
}

// FuzzSessionFraming cross-checks a session's matches against the
// one-shot scan for arbitrary frame splits, and throws garbage bodies
// at the session opcodes expecting clean errors.
func FuzzSessionFraming(f *testing.F) {
	c, raw, rs := startFuzzService(f)
	f.Add([]byte("abbbcneedle GET /a/b"), uint16(3), []byte{})
	f.Add([]byte("aaabx12y"), uint16(96), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte(""), uint16(0), []byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte, chunkSeed uint16, garbage []byte) {
		if len(data) > fuzzMaxData || len(garbage) > 64 {
			t.Skip("oversized")
		}

		// Garbage session frames: too-short bodies and made-up ids must
		// answer ERROR on the same frame id and leave the connection
		// usable. The raw connection owns no sessions, so even a body
		// that parses as a valid id is unknown to it.
		for _, op := range []byte{server.OpSessionData, server.OpSessionClose} {
			if err := server.WriteFrame(raw, server.Frame{Op: op, ID: 77, Body: garbage}); err != nil {
				t.Fatalf("write garbage %s: %v", server.OpName(op), err)
			}
			rf, err := server.ReadFrame(raw, server.DefaultMaxFrame)
			if err != nil {
				t.Fatalf("read reply to garbage %s: %v", server.OpName(op), err)
			}
			if rf.Op != server.OpError || rf.ID != 77 {
				t.Fatalf("garbage %s answered op=0x%02x id=%d, want ERROR id=77",
					server.OpName(op), rf.Op, rf.ID)
			}
			if _, _, err := server.DecodeError(rf.Body); err != nil {
				t.Fatalf("garbage %s: malformed ERROR body: %v", server.OpName(op), err)
			}
		}

		// Framing differential: any chunking must equal the one-shot
		// scan, because the overlap exceeds the payload.
		want := diffLocalOneShot(t, rs, data)
		sess, err := c.OpenSession(fuzzSessionOverlap)
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		chunk := 1 + int(chunkSeed)%97
		var got []server.RuleMatch
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			ms, _, err := sess.Write(data[off:end])
			if err != nil {
				t.Fatalf("Write(off=%d): %v", off, err)
			}
			got = append(got, ms...)
		}
		ms, consumed, err := sess.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		got = append(got, ms...)
		if consumed != uint64(len(data)) {
			t.Fatalf("consumed %d bytes, pushed %d", consumed, len(data))
		}
		sortRuleMatches(got)
		if !diffMatchesEqual(got, want) {
			t.Fatalf("chunk=%d: session got %d matches, one-shot wants %d", chunk, len(got), len(want))
		}
	})
}

// FuzzSessionRestore fuzzes the checkpoint handoff from both sides.
// The valid side: push an arbitrary payload into a checkpointed
// session, cut it at an arbitrary frame boundary, SESSION-RESTORE the
// piggybacked checkpoint and finish the stream — the combined
// transcript must equal the one-shot scan (the overlap exceeds the
// payload), no match duplicated by the handoff, none lost. The garbage
// side: raw SESSION-RESTORE bodies — arbitrary bytes and single-byte
// corruptions of a genuine checkpoint — must answer either a clean
// SESSION-OK (a corruption that still decodes is a sound session,
// closed and discarded) or a parseable ERROR on the same frame id,
// never a desync, panic or half-created session.
func FuzzSessionRestore(f *testing.F) {
	c, raw, rs := startFuzzService(f)
	f.Add([]byte("abbbcneedle GET /a/b x12y"), uint16(3), []byte{})
	f.Add([]byte("aaabaaab"), uint16(213), []byte{1, 0, 0, 0, 16})
	f.Add([]byte(""), uint16(0), []byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte, seed uint16, garbage []byte) {
		if len(data) > fuzzMaxData || len(garbage) > 256 {
			t.Skip("oversized")
		}

		// Valid handoff at an arbitrary frame boundary.
		want := diffLocalOneShot(t, rs, data)
		sessA, err := c.OpenSessionCheckpointCtx(context.Background(), fuzzSessionOverlap)
		if err != nil {
			t.Fatalf("OpenSessionCheckpointCtx: %v", err)
		}
		chunk := 1 + int(seed)%61
		nChunks := (len(data) + chunk - 1) / chunk
		cut := chunk * (int(seed/61) % (nChunks + 1))
		if cut > len(data) {
			cut = len(data)
		}
		var got []server.RuleMatch
		for off := 0; off < cut; off += chunk {
			end := off + chunk
			if end > cut {
				end = cut
			}
			ms, _, werr := sessA.WriteCtx(context.Background(), data[off:end])
			if werr != nil {
				t.Fatalf("A.Write(off=%d): %v", off, werr)
			}
			got = append(got, ms...)
		}
		if sessA.Checkpoint() == nil {
			// No frame acked yet (cut == 0): an empty push is a no-op
			// window whose ack still piggybacks the zero-state checkpoint.
			if _, _, werr := sessA.WriteCtx(context.Background(), nil); werr != nil {
				t.Fatalf("A.Write(empty): %v", werr)
			}
		}
		ckpt := append([]byte(nil), sessA.Checkpoint()...)
		if _, _, err := sessA.CloseCtx(context.Background()); err != nil {
			t.Fatalf("A.Close: %v", err)
		}
		sessB, err := c.RestoreSessionCtx(context.Background(), ckpt)
		if err != nil {
			t.Fatalf("RestoreSessionCtx(valid %d-byte ckpt): %v", len(ckpt), err)
		}
		for off := cut; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			ms, _, werr := sessB.WriteCtx(context.Background(), data[off:end])
			if werr != nil {
				t.Fatalf("B.Write(off=%d): %v", off, werr)
			}
			got = append(got, ms...)
		}
		ms, consumed, err := sessB.CloseCtx(context.Background())
		if err != nil {
			t.Fatalf("B.Close: %v", err)
		}
		got = append(got, ms...)
		if consumed != uint64(len(data)) {
			t.Fatalf("handoff consumed %d bytes, pushed %d", consumed, len(data))
		}
		sortRuleMatches(got)
		if !diffMatchesEqual(got, want) {
			t.Fatalf("chunk=%d cut=%d: handoff got %d matches, one-shot wants %d — the restore duplicated or lost matches",
				chunk, cut, len(got), len(want))
		}

		// Garbage restores: raw fuzz bytes, and the genuine checkpoint
		// with one byte flipped at a fuzz-chosen position.
		mutated := append([]byte{byte(server.SessionOpenFlagCheckpoint)}, ckpt...)
		if len(ckpt) > 0 {
			mutated[1+int(seed)%len(ckpt)] ^= 1 + byte(seed>>8)
		}
		for _, body := range [][]byte{garbage, mutated} {
			if err := server.WriteFrame(raw, server.Frame{Op: server.OpSessionRestore, ID: 99, Body: body}); err != nil {
				t.Fatalf("write restore body (%d bytes): %v", len(body), err)
			}
			rf, err := server.ReadFrame(raw, server.DefaultMaxFrame)
			if err != nil {
				t.Fatalf("read restore reply: %v", err)
			}
			switch rf.Op {
			case server.OpError:
				if rf.ID != 99 {
					t.Fatalf("restore ERROR on id %d, want 99", rf.ID)
				}
				if _, _, derr := server.DecodeError(rf.Body); derr != nil {
					t.Fatalf("malformed ERROR body for %d-byte restore: %v", len(body), derr)
				}
			case server.OpSessionOK:
				// The corruption still decoded — a sound session exists;
				// close it so the fuzz loop cannot exhaust the cap. The
				// close may itself answer a typed ERROR (a flipped done
				// flag restores a finished stream); either way the server
				// drops the session on CLOSE.
				id, _, _, derr := server.DecodeSessionOK(rf.Body, body[0])
				if derr != nil {
					t.Fatalf("malformed SESSION-OK for restored session: %v", derr)
				}
				if err := server.WriteFrame(raw, server.Frame{Op: server.OpSessionClose, ID: 100, Body: server.EncodeSessionClose(id)}); err != nil {
					t.Fatalf("close restored session: %v", err)
				}
				cf, err := server.ReadFrame(raw, server.DefaultMaxFrame)
				if err != nil || cf.ID != 100 {
					t.Fatalf("close restored session: frame op=0x%02x id=%d err=%v, want id=100", cf.Op, cf.ID, err)
				}
				switch cf.Op {
				case server.OpSessionMatches:
				case server.OpError:
					if _, _, derr := server.DecodeError(cf.Body); derr != nil {
						t.Fatalf("close restored session: malformed ERROR body: %v", derr)
					}
				default:
					t.Fatalf("close restored session answered op=0x%02x — protocol desync", cf.Op)
				}
			default:
				t.Fatalf("restore answered op=0x%02x, want SESSION-OK or ERROR — protocol desync", rf.Op)
			}
		}
	})
}
