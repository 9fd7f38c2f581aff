package server

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// goldenStreamFrames pins the byte-level wire format of the batch and
// streaming-session extensions against docs/PROTOCOL.md. Changing any
// of these bytes is a protocol break.
var goldenStreamFrames = []struct {
	name  string
	frame Frame
	wire  []byte
}{
	{
		name:  "scan-batch",
		frame: Frame{Op: OpScanBatch, ID: 13, Body: mustScanBatch([][]byte{[]byte("ab"), nil})},
		wire: []byte{0, 0, 0, 19, 0x09, 0, 0, 0, 13,
			0, 0, 0, 2, // item count
			0, 0, 0, 2, 'a', 'b', // item 0
			0, 0, 0, 0, // item 1 (empty payload)
		},
	},
	{
		name:  "scan-batch-empty",
		frame: Frame{Op: OpScanBatch, ID: 14, Body: mustScanBatch(nil)},
		wire:  []byte{0, 0, 0, 9, 0x09, 0, 0, 0, 14, 0, 0, 0, 0},
	},
	{
		name: "batch-resp",
		frame: Frame{Op: OpBatchResp, ID: 15, Body: EncodeBatchResults([]BatchItemResult{
			{Matches: []RuleMatch{{Rule: 1, Start: 2, End: 5}}},
			{Code: ErrCodeScan, Msg: "no"},
		})},
		wire: []byte{0, 0, 0, 40, 0x8B, 0, 0, 0, 15,
			0, 0, 0, 2, // item count
			0,          // item 0: ok
			0, 0, 0, 1, // match count
			0, 0, 0, 1, // rule
			0, 0, 0, 0, 0, 0, 0, 2, // start
			0, 0, 0, 0, 0, 0, 0, 5, // end
			1,    // item 1: failed
			3,    // error code (scan)
			0, 2, // message length
			'n', 'o',
		},
	},
	{
		name:  "session-open",
		frame: Frame{Op: OpSessionOpen, ID: 16, Body: mustStart(SessionStart{Overlap: 256})},
		wire:  []byte{0, 0, 0, 9, 0x0A, 0, 0, 0, 16, 0, 0, 1, 0},
	},
	{
		name:  "session-ok",
		frame: Frame{Op: OpSessionOK, ID: 16, Body: EncodeSessionOK(7, 256, 0, 0)},
		wire: []byte{0, 0, 0, 17, 0x8C, 0, 0, 0, 16,
			0, 0, 0, 0, 0, 0, 0, 7, // session id
			0, 0, 1, 0, // effective overlap
		},
	},
	{
		name:  "session-data",
		frame: Frame{Op: OpSessionData, ID: 17, Body: EncodeSessionData(7, []byte("abc"))},
		wire: []byte{0, 0, 0, 16, 0x0B, 0, 0, 0, 17,
			0, 0, 0, 0, 0, 0, 0, 7, // session id
			'a', 'b', 'c',
		},
	},
	{
		name:  "session-close",
		frame: Frame{Op: OpSessionClose, ID: 18, Body: EncodeSessionClose(7)},
		wire: []byte{0, 0, 0, 13, 0x0C, 0, 0, 0, 18,
			0, 0, 0, 0, 0, 0, 0, 7, // session id
		},
	},
	{
		name: "session-matches",
		frame: Frame{Op: OpSessionMatches, ID: 17,
			Body: EncodeSessionMatches(false, 1024, []RuleMatch{{Rule: 1, Start: 2, End: 5}}, nil)},
		wire: []byte{0, 0, 0, 38, 0x8D, 0, 0, 0, 17,
			0,                      // flags: not final
			0, 0, 0, 0, 0, 0, 4, 0, // consumed
			0, 0, 0, 1, // match count
			0, 0, 0, 1, // rule
			0, 0, 0, 0, 0, 0, 0, 2, // start
			0, 0, 0, 0, 0, 0, 0, 5, // end
		},
	},
	{
		name:  "session-matches-final",
		frame: Frame{Op: OpSessionMatches, ID: 18, Body: EncodeSessionMatches(true, 3, nil, nil)},
		wire: []byte{0, 0, 0, 18, 0x8D, 0, 0, 0, 18,
			1,                      // flags: final
			0, 0, 0, 0, 0, 0, 0, 3, // consumed
			0, 0, 0, 0, // match count
		},
	},
	{
		name:  "error-unknown-session",
		frame: Frame{Op: OpError, ID: 19, Body: EncodeError(ErrCodeUnknownSession, "unknown session 9")},
		wire: append([]byte{0, 0, 0, 23, 0xE0, 0, 0, 0, 19, 6},
			[]byte("unknown session 9")...),
	},
}

// mustStart encodes the SESSION-OPEN or SESSION-RESTORE body of s.
func mustStart(s SessionStart) []byte {
	_, b, err := EncodeSessionStart(s)
	if err != nil {
		panic(err)
	}
	return b
}

func mustScanBatch(items [][]byte) []byte {
	b, err := EncodeScanBatch(items)
	if err != nil {
		panic(err)
	}
	return b
}

func TestGoldenStreamFrames(t *testing.T) {
	for _, tc := range goldenStreamFrames {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.frame); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), tc.wire) {
				t.Fatalf("wire bytes\n got %v\nwant %v", buf.Bytes(), tc.wire)
			}
			got, err := ReadFrame(bytes.NewReader(tc.wire), 0)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if got.Op != tc.frame.Op || got.ID != tc.frame.ID || !bytes.Equal(got.Body, tc.frame.Body) {
				t.Fatalf("round-trip mismatch: got %+v want %+v", got, tc.frame)
			}
		})
	}
}

// Every strict prefix of every new frame must read as a torn frame
// (io.ErrUnexpectedEOF), or a clean io.EOF only at offset 0 — exactly
// the contract TestReadFrameTruncated pins for the original opcodes.
func TestReadFrameTruncatedStream(t *testing.T) {
	for _, tc := range goldenStreamFrames {
		for cut := 0; cut < len(tc.wire); cut++ {
			_, err := ReadFrame(bytes.NewReader(tc.wire[:cut]), 0)
			if cut == 0 {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("%s cut=0: got %v, want io.EOF", tc.name, err)
				}
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s cut=%d: got %v, want EOF-class error", tc.name, cut, err)
			}
			if cut > 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s cut=%d: got %v, want io.ErrUnexpectedEOF", tc.name, cut, err)
			}
		}
	}
}

// Every truncation, overrun, oversize and garbage shape of the new
// bodies must decode to ErrMalformedFrame — not a panic, not a silent
// misparse.
func TestDecodeMalformedStreamBodies(t *testing.T) {
	okBatch := mustScanBatch([][]byte{[]byte("a")})
	okResp := EncodeBatchResults([]BatchItemResult{{}})
	cases := []struct {
		name string
		err  error
	}{
		{"scan-batch-short", func() error { _, err := DecodeScanBatch([]byte{0, 0}); return err }()},
		{"scan-batch-count-oversize", func() error {
			_, err := DecodeScanBatch([]byte{0, 0, 0x10, 0x01}) // 4097 > MaxBatchItems
			return err
		}()},
		{"scan-batch-truncated-header", func() error {
			_, err := DecodeScanBatch([]byte{0, 0, 0, 1, 0, 0})
			return err
		}()},
		{"scan-batch-item-overrun", func() error {
			_, err := DecodeScanBatch([]byte{0, 0, 0, 1, 0, 0, 0, 5, 'a'})
			return err
		}()},
		{"scan-batch-trailing", func() error {
			_, err := DecodeScanBatch(append(append([]byte(nil), okBatch...), 0xFF))
			return err
		}()},
		{"batch-resp-short", func() error { _, err := DecodeBatchResults([]byte{0}); return err }()},
		{"batch-resp-count-oversize", func() error {
			_, err := DecodeBatchResults([]byte{0, 0, 0x10, 0x01})
			return err
		}()},
		{"batch-resp-missing-status", func() error {
			_, err := DecodeBatchResults([]byte{0, 0, 0, 1})
			return err
		}()},
		{"batch-resp-unknown-status", func() error {
			_, err := DecodeBatchResults([]byte{0, 0, 0, 1, 9})
			return err
		}()},
		{"batch-resp-truncated-matches", func() error {
			_, err := DecodeBatchResults([]byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 2})
			return err
		}()},
		{"batch-resp-truncated-error", func() error {
			_, err := DecodeBatchResults([]byte{0, 0, 0, 1, 1, 3})
			return err
		}()},
		{"batch-resp-message-overrun", func() error {
			_, err := DecodeBatchResults([]byte{0, 0, 0, 1, 1, 3, 0, 9, 'x'})
			return err
		}()},
		{"batch-resp-trailing", func() error {
			_, err := DecodeBatchResults(append(append([]byte(nil), okResp...), 0xFF))
			return err
		}()},
		{"session-open-short", func() error { _, err := DecodeSessionStart(OpSessionOpen, []byte{0, 0, 1}); return err }()},
		{"session-open-long", func() error {
			_, err := DecodeSessionStart(OpSessionOpen, []byte{0, 0, 0, 1, 0, 0})
			return err
		}()},
		{"session-open-overlap-oversize", func() error {
			_, err := DecodeSessionStart(OpSessionOpen, []byte{0xFF, 0xFF, 0xFF, 0xFF})
			return err
		}()},
		{"session-ok-short", func() error { _, _, _, err := DecodeSessionOK([]byte{1, 2, 3}, 0); return err }()},
		{"session-data-short", func() error { _, _, err := DecodeSessionData([]byte{1, 2, 3, 4, 5, 6, 7}); return err }()},
		{"session-close-short", func() error { _, err := DecodeSessionClose([]byte{1, 2, 3}); return err }()},
		{"session-id-short", func() error { _, err := SessionID(OpSessionClose, []byte{1, 2, 3}); return err }()},
		{"session-close-long", func() error {
			_, err := DecodeSessionClose([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0})
			return err
		}()},
		{"session-matches-short", func() error { _, _, _, _, err := DecodeSessionMatches([]byte{0, 1, 2}, 0); return err }()},
		{"session-matches-reserved-flag", func() error {
			body := EncodeSessionMatches(false, 0, nil, nil)
			body[0] = 0x02
			_, _, _, _, err := DecodeSessionMatches(body, 0)
			return err
		}()},
		{"session-matches-bad-inner", func() error {
			body := EncodeSessionMatches(false, 0, nil, nil)
			_, _, _, _, err := DecodeSessionMatches(append(body, 0xAA), 0)
			return err
		}()},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrMalformedFrame) {
			t.Errorf("%s: got %v, want ErrMalformedFrame", tc.name, tc.err)
		}
	}
	if _, err := EncodeScanBatch(make([][]byte, MaxBatchItems+1)); err == nil {
		t.Error("EncodeScanBatch over MaxBatchItems: want error")
	}
}

func TestStreamEncodeDecodeRoundTrips(t *testing.T) {
	items := [][]byte{[]byte("log line one"), {}, []byte{0, 1, 2, 0xFF}}
	got, err := DecodeScanBatch(mustScanBatch(items))
	if err != nil {
		t.Fatalf("scan-batch: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("scan-batch items: got %d want %d", len(got), len(items))
	}
	for i := range items {
		if !bytes.Equal(got[i], items[i]) {
			t.Fatalf("scan-batch item %d: got %v want %v", i, got[i], items[i])
		}
	}

	results := []BatchItemResult{
		{Matches: []RuleMatch{{Rule: 2, Start: 10, End: 20}, {Rule: 3, Start: 0, End: 1}}},
		{},
		{Code: ErrCodeScan, Msg: "rule 1 fault"},
	}
	gotR, err := DecodeBatchResults(EncodeBatchResults(results))
	if err != nil || !reflect.DeepEqual(gotR, results) {
		t.Fatalf("batch-resp round trip: %+v %v", gotR, err)
	}
	if results[0].Failed() || !results[2].Failed() {
		t.Fatal("Failed() misreports item status")
	}

	if st, err := DecodeSessionStart(OpSessionOpen, mustStart(SessionStart{Overlap: 4096})); err != nil || st.Overlap != 4096 {
		t.Fatalf("session-open: %+v %v", st, err)
	}
	if id, ov, _, err := DecodeSessionOK(EncodeSessionOK(1<<40, 256, 0, 0), 0); err != nil || id != 1<<40 || ov != 256 {
		t.Fatalf("session-ok: %d %d %v", id, ov, err)
	}
	id, chunk, err := DecodeSessionData(EncodeSessionData(9, []byte("chunk")))
	if err != nil || id != 9 || string(chunk) != "chunk" {
		t.Fatalf("session-data: %d %q %v", id, chunk, err)
	}
	if id, err := DecodeSessionClose(EncodeSessionClose(9)); err != nil || id != 9 {
		t.Fatalf("session-close: %d %v", id, err)
	}
	ms := []RuleMatch{{Rule: 0, Start: 5, End: 9}}
	fin, consumed, gotMs, _, err := DecodeSessionMatches(EncodeSessionMatches(true, 1<<33, ms, nil), 0)
	if err != nil || !fin || consumed != 1<<33 || !reflect.DeepEqual(gotMs, ms) {
		t.Fatalf("session-matches: %v %d %+v %v", fin, consumed, gotMs, err)
	}
	// long error messages are truncated to the u16 field, not corrupted
	long := EncodeBatchResults([]BatchItemResult{{Code: 1, Msg: strings.Repeat("x", 1<<17)}})
	gotL, err := DecodeBatchResults(long)
	if err != nil || len(gotL) != 1 || len(gotL[0].Msg) != 0xFFFF {
		t.Fatalf("batch-resp long message: %d %v", len(gotL), err)
	}
}

// Session opcodes are queue-class: they pass admission control and a
// TENANT envelope may wrap them (the gateway meters session traffic
// per tenant like any other scan work).
func TestStreamOpsQueueClass(t *testing.T) {
	for _, op := range []byte{OpScanBatch, OpSessionOpen, OpSessionData, OpSessionClose} {
		if !QueueClass(op) {
			t.Errorf("%s: want queue-class", OpName(op))
		}
		if _, err := EncodeTenant(TenantHeader{Tenant: "t"}, op, []byte{0, 0, 0, 0}); err != nil {
			t.Errorf("%s: TENANT wrap failed: %v", OpName(op), err)
		}
	}
	for _, op := range []byte{OpBatchResp, OpSessionOK, OpSessionMatches} {
		if QueueClass(op) {
			t.Errorf("%s: response opcode must not be queue-class", OpName(op))
		}
	}
}

// goldenCheckpointFrames pins the byte-level wire format of the
// checkpoint-handoff extension (SESSION-OPEN flags byte,
// SESSION-RESTORE, the generation form of SESSION-OK, and the
// SESSION-MATCHES checkpoint piggyback) against docs/PROTOCOL.md.
// Changing any of these bytes is a protocol break.
var goldenCheckpointFrames = []struct {
	name  string
	frame Frame
	wire  []byte
}{
	{
		name:  "session-open-ckpt",
		frame: Frame{Op: OpSessionOpen, ID: 20, Body: mustStart(SessionStart{Overlap: 256, Flags: SessionOpenFlagCheckpoint})},
		wire: []byte{0, 0, 0, 10, 0x0A, 0, 0, 0, 20,
			0, 0, 1, 0, // requested overlap
			0x01, // flags: checkpoint negotiation
		},
	},
	{
		name:  "session-restore",
		frame: Frame{Op: OpSessionRestore, ID: 21, Body: mustStart(SessionStart{Flags: SessionOpenFlagCheckpoint, Ckpt: []byte{0xCA, 0xFE}})},
		wire: []byte{0, 0, 0, 8, 0x0D, 0, 0, 0, 21,
			0x01,       // flags: checkpoint negotiation stays on
			0xCA, 0xFE, // opaque checkpoint bytes (engine-validated)
		},
	},
	{
		name:  "session-ok-gen",
		frame: Frame{Op: OpSessionOK, ID: 20, Body: EncodeSessionOK(7, 256, 3, SessionOpenFlagCheckpoint)},
		wire: []byte{0, 0, 0, 21, 0x8C, 0, 0, 0, 20,
			0, 0, 0, 0, 0, 0, 0, 7, // session id
			0, 0, 1, 0, // effective overlap
			0, 0, 0, 3, // rule generation
		},
	},
	{
		name: "session-matches-ckpt",
		frame: Frame{Op: OpSessionMatches, ID: 22,
			Body: EncodeSessionMatchesCkpt(false, 1024, []RuleMatch{{Rule: 1, Start: 2, End: 5}}, []byte{9, 9})},
		wire: []byte{0, 0, 0, 44, 0x8D, 0, 0, 0, 22,
			0x02,                   // flags: checkpoint piggyback, not final
			0, 0, 0, 0, 0, 0, 4, 0, // consumed
			0, 0, 0, 1, // match count
			0, 0, 0, 1, // rule
			0, 0, 0, 0, 0, 0, 0, 2, // start
			0, 0, 0, 0, 0, 0, 0, 5, // end
			0, 0, 0, 2, // checkpoint length
			9, 9, // checkpoint bytes
		},
	},
}

func TestGoldenCheckpointFrames(t *testing.T) {
	for _, tc := range goldenCheckpointFrames {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.frame); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), tc.wire) {
				t.Fatalf("wire bytes\n got %v\nwant %v", buf.Bytes(), tc.wire)
			}
			got, err := ReadFrame(bytes.NewReader(tc.wire), 0)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if got.Op != tc.frame.Op || got.ID != tc.frame.ID || !bytes.Equal(got.Body, tc.frame.Body) {
				t.Fatalf("round-trip mismatch: got %+v want %+v", got, tc.frame)
			}
		})
	}
}

// Every strict prefix of every checkpoint frame must read as a torn
// frame, mirroring TestReadFrameTruncatedStream.
func TestReadFrameTruncatedCheckpoint(t *testing.T) {
	for _, tc := range goldenCheckpointFrames {
		for cut := 1; cut < len(tc.wire); cut++ {
			_, err := ReadFrame(bytes.NewReader(tc.wire[:cut]), 0)
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s cut=%d: got %v, want EOF-class error", tc.name, cut, err)
			}
		}
	}
}

// Every truncation, flag violation and length lie on the checkpoint
// bodies must decode to ErrMalformedFrame.
func TestDecodeMalformedCheckpointBodies(t *testing.T) {
	const ck = SessionOpenFlagCheckpoint
	ckptBody := EncodeSessionMatches(false, 7, nil, []byte{1, 2, 3})
	withFlag := func(flag byte, tail ...byte) []byte {
		body := append(EncodeSessionMatches(false, 0, nil, nil), tail...)
		body[0] |= flag
		return body
	}
	cases := []struct {
		name string
		err  error
	}{
		{"open-flags-unknown", func() error {
			_, err := DecodeSessionStart(OpSessionOpen, []byte{0, 0, 0, 1, 0x80})
			return err
		}()},
		{"open-flags-overlong", func() error {
			_, err := DecodeSessionStart(OpSessionOpen, []byte{0, 0, 0, 1, 1, 0})
			return err
		}()},
		{"restore-empty", func() error { _, err := DecodeSessionStart(OpSessionRestore, nil); return err }()},
		{"restore-flags-only", func() error { _, err := DecodeSessionStart(OpSessionRestore, []byte{0x01}); return err }()},
		{"restore-unknown-flags", func() error {
			_, err := DecodeSessionStart(OpSessionRestore, []byte{0x80, 1, 2})
			return err
		}()},
		{"ok-gen-short", func() error { _, _, _, err := DecodeSessionOK(make([]byte, 15), ck); return err }()},
		{"ok-gen-long", func() error { _, _, _, err := DecodeSessionOK(make([]byte, 17), ck); return err }()},
		{"matches-ckpt-unknown-flags", func() error {
			body := append([]byte(nil), ckptBody...)
			body[0] |= 0x04
			_, _, _, _, err := DecodeSessionMatches(body, ck)
			return err
		}()},
		{"matches-ckpt-truncated-length", func() error { _, _, _, _, err := DecodeSessionMatches(withFlag(0x02), ck); return err }()},
		{"matches-ckpt-zero-length", func() error {
			_, _, _, _, err := DecodeSessionMatches(withFlag(0x02, 0, 0, 0, 0), ck)
			return err
		}()},
		{"matches-ckpt-overrun", func() error {
			_, _, _, _, err := DecodeSessionMatches(withFlag(0x02, 0, 0, 0, 9, 1), ck)
			return err
		}()},
		{"matches-ckpt-trailing", func() error {
			_, _, _, _, err := DecodeSessionMatches(append(append([]byte(nil), ckptBody...), 0xFF), ck)
			return err
		}()},
		{"matches-plain-rejects-ckpt-flag", func() error {
			_, _, _, _, err := DecodeSessionMatches(ckptBody, 0)
			return err
		}()},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrMalformedFrame) {
			t.Errorf("%s: got %v, want ErrMalformedFrame", tc.name, tc.err)
		}
	}
}

func TestCheckpointEncodeDecodeRoundTrips(t *testing.T) {
	const ck = SessionOpenFlagCheckpoint
	// SESSION-OPEN: the flags byte is optional on the wire. A flagless
	// start encodes the 4-byte form; both forms, and a 5-byte body with
	// a zero flags byte, decode.
	for _, tc := range []struct {
		body  []byte
		flags byte
	}{
		{mustStart(SessionStart{Overlap: 512}), 0},
		{mustStart(SessionStart{Overlap: 512, Flags: ck}), ck},
		{[]byte{0, 0, 2, 0, 0}, 0},
	} {
		st, err := DecodeSessionStart(OpSessionOpen, tc.body)
		if err != nil || st.Overlap != 512 || st.Flags != tc.flags || st.Ckpt != nil {
			t.Fatalf("open % x: %+v %v", tc.body, st, err)
		}
	}
	if got := mustStart(SessionStart{Overlap: 512}); len(got) != 4 {
		t.Fatalf("flagless open encoded %d bytes, want the 4-byte form", len(got))
	}

	// SESSION-RESTORE round trip: a checkpoint selects the opcode.
	ck6 := []byte{1, 0, 0, 0, 16, 7}
	op, body, err := EncodeSessionStart(SessionStart{Flags: ck, Ckpt: ck6})
	if err != nil || op != OpSessionRestore {
		t.Fatalf("restore encode: op %s err %v", OpName(op), err)
	}
	st, err := DecodeSessionStart(op, body)
	if err != nil || st.Flags != ck || !bytes.Equal(st.Ckpt, ck6) {
		t.Fatalf("restore: %+v %v", st, err)
	}
	if op, body, err := EncodeSessionStart(SessionStart{Ckpt: []byte{}}); err != nil || op != OpSessionRestore || len(body) != 1 {
		t.Fatalf("empty-checkpoint restore: op %s body % x err %v, want the server to judge it", OpName(op), body, err)
	}
	if _, _, err := EncodeSessionStart(SessionStart{Overlap: MaxSessionOverlap + 1}); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("oversized overlap encoded: %v", err)
	}

	// SESSION-OK generation form; a stream that did not negotiate
	// checkpoints must reject its length rather than misparse the
	// generation as part of the id.
	id, ov, gen, err := DecodeSessionOK(EncodeSessionOK(1<<40, 256, 9, ck), ck)
	if err != nil || id != 1<<40 || ov != 256 || gen != 9 {
		t.Fatalf("ok-gen: %d %d %d %v", id, ov, gen, err)
	}
	if _, _, _, err := DecodeSessionOK(EncodeSessionOK(1, 2, 3, ck), 0); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("flagless SESSION-OK decoder accepted the generation form: %v", err)
	}

	// SESSION-MATCHES piggyback: an empty checkpoint sends the plain form
	// byte for byte, the benchmark's name encodes the same bytes, and a
	// stream that negotiated checkpoints decodes both forms.
	ms := []RuleMatch{{Rule: 2, Start: 3, End: 9}}
	plain := EncodeSessionMatches(true, 77, ms, nil)
	if !bytes.Equal(EncodeSessionMatches(true, 77, ms, []byte{}), plain) ||
		!bytes.Equal(EncodeSessionMatchesCkpt(false, 5, ms, ck6), EncodeSessionMatches(false, 5, ms, ck6)) {
		t.Fatal("empty-checkpoint or benchmark-name encoding diverged")
	}
	fin, consumed, gotMs, gotCk, err := DecodeSessionMatches(EncodeSessionMatches(false, 5, ms, nil), ck)
	if err != nil || fin || consumed != 5 || gotCk != nil || !reflect.DeepEqual(gotMs, ms) {
		t.Fatalf("ckpt decoder on plain form: %v %d %+v %v %v", fin, consumed, gotMs, gotCk, err)
	}
	fin, consumed, gotMs, gotCk, err = DecodeSessionMatches(EncodeSessionMatches(false, 5, ms, ck6), ck)
	if err != nil || fin || consumed != 5 || !bytes.Equal(gotCk, ck6) || !reflect.DeepEqual(gotMs, ms) {
		t.Fatalf("ckpt round trip: %v %d %+v %v %v", fin, consumed, gotMs, gotCk, err)
	}
}

// SESSION-RESTORE is queue-class like the other session opcodes: it
// passes admission control and a TENANT envelope may wrap it, so the
// gateway can restore under a tenant's quota.
func TestSessionRestoreQueueClass(t *testing.T) {
	if !QueueClass(OpSessionRestore) {
		t.Error("OpSessionRestore: want queue-class")
	}
	if _, err := EncodeTenant(TenantHeader{Tenant: "t"}, OpSessionRestore, mustStart(SessionStart{Flags: 1, Ckpt: []byte{1}})); err != nil {
		t.Errorf("TENANT wrap of SESSION-RESTORE failed: %v", err)
	}
	if OpName(OpSessionRestore) != "SESSION-RESTORE" {
		t.Errorf("OpName(OpSessionRestore) = %q", OpName(OpSessionRestore))
	}
}
