package server

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// goldenFrames pins the byte-level wire format of every frame type,
// request and response, against docs/PROTOCOL.md. Changing any of
// these bytes is a protocol break.
var goldenFrames = []struct {
	name  string
	frame Frame
	wire  []byte
}{
	{
		name:  "ping",
		frame: Frame{Op: OpPing, ID: 1},
		wire:  []byte{0, 0, 0, 5, 0x01, 0, 0, 0, 1},
	},
	{
		name:  "scan",
		frame: Frame{Op: OpScan, ID: 0x01020304, Body: []byte("abc")},
		wire:  []byte{0, 0, 0, 8, 0x02, 1, 2, 3, 4, 'a', 'b', 'c'},
	},
	{
		name:  "count",
		frame: Frame{Op: OpCount, ID: 7, Body: []byte("x")},
		wire:  []byte{0, 0, 0, 6, 0x03, 0, 0, 0, 7, 'x'},
	},
	{
		name:  "scan-pattern",
		frame: Frame{Op: OpScanPattern, ID: 2, Body: mustScanPattern("ab", []byte("payload"))},
		wire: []byte{0, 0, 0, 16, 0x04, 0, 0, 0, 2,
			0, 2, 'a', 'b', 'p', 'a', 'y', 'l', 'o', 'a', 'd'},
	},
	{
		name:  "rules-info",
		frame: Frame{Op: OpRulesInfo, ID: 3},
		wire:  []byte{0, 0, 0, 5, 0x05, 0, 0, 0, 3},
	},
	{
		name:  "reload",
		frame: Frame{Op: OpReload, ID: 4, Body: []byte("foo\n")},
		wire:  []byte{0, 0, 0, 9, 0x06, 0, 0, 0, 4, 'f', 'o', 'o', '\n'},
	},
	{
		name:  "stats",
		frame: Frame{Op: OpStats, ID: 5},
		wire:  []byte{0, 0, 0, 5, 0x07, 0, 0, 0, 5},
	},
	{
		name:  "pong",
		frame: Frame{Op: OpPong, ID: 1},
		wire:  []byte{0, 0, 0, 5, 0x81, 0, 0, 0, 1},
	},
	{
		name: "matches",
		frame: Frame{Op: OpMatches, ID: 6, Body: EncodeMatches([]RuleMatch{
			{Rule: 1, Start: 2, End: 0x0102030405060708},
		})},
		wire: []byte{0, 0, 0, 29, 0x82, 0, 0, 0, 6,
			0, 0, 0, 1, // count
			0, 0, 0, 1, // rule
			0, 0, 0, 0, 0, 0, 0, 2, // start
			1, 2, 3, 4, 5, 6, 7, 8, // end
		},
	},
	{
		name:  "matches-empty",
		frame: Frame{Op: OpMatches, ID: 6, Body: EncodeMatches(nil)},
		wire:  []byte{0, 0, 0, 9, 0x82, 0, 0, 0, 6, 0, 0, 0, 0},
	},
	{
		name:  "count-resp",
		frame: Frame{Op: OpCountResp, ID: 7, Body: EncodeCount(258)},
		wire:  []byte{0, 0, 0, 13, 0x83, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 1, 2},
	},
	{
		name:  "info",
		frame: Frame{Op: OpInfo, ID: 8, Body: mustInfo(Info{Generation: 2, Patterns: []string{"a", "bc"}})},
		wire: []byte{0, 0, 0, 20, 0x85, 0, 0, 0, 8,
			0, 0, 0, 2, // generation
			0, 0, 0, 2, // rule count
			0, 1, 'a',
			0, 2, 'b', 'c',
		},
	},
	{
		name:  "reload-ok",
		frame: Frame{Op: OpReloadOK, ID: 9, Body: EncodeReloadOK(3, 17)},
		wire:  []byte{0, 0, 0, 13, 0x86, 0, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0, 17},
	},
	{
		name:  "stats-resp",
		frame: Frame{Op: OpStatsResp, ID: 10, Body: []byte(`{"schema":1}`)},
		wire: []byte{0, 0, 0, 17, 0x87, 0, 0, 0, 10,
			'{', '"', 's', 'c', 'h', 'e', 'm', 'a', '"', ':', '1', '}'},
	},
	{
		name:  "error",
		frame: Frame{Op: OpError, ID: 11, Body: EncodeError(ErrCodeScan, "no")},
		wire:  []byte{0, 0, 0, 8, 0xE0, 0, 0, 0, 11, 3, 'n', 'o'},
	},
	{
		name:  "shed",
		frame: Frame{Op: OpShed, ID: 12, Body: EncodeShed(0)},
		wire:  []byte{0, 0, 0, 5, 0xEE, 0, 0, 0, 12},
	},
}

func mustScanPattern(p string, payload []byte) []byte {
	b, err := EncodeScanPattern(p, payload)
	if err != nil {
		panic(err)
	}
	return b
}

func mustInfo(i Info) []byte {
	b, err := EncodeInfo(i)
	if err != nil {
		panic(err)
	}
	return b
}

func TestGoldenFrames(t *testing.T) {
	for _, tc := range goldenFrames {
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

// TestReadFrameTruncated feeds every strict prefix of every golden
// frame: a prefix inside a frame must yield io.ErrUnexpectedEOF (or a
// clean io.EOF only at offset 0 — no bytes at all is a clean close).
func TestReadFrameTruncated(t *testing.T) {
	for _, tc := range goldenFrames {
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
			// A cut inside the header-after-length or the body must be the
			// torn-frame error, not a clean close.
			if cut > 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s cut=%d: got %v, want io.ErrUnexpectedEOF", tc.name, cut, err)
			}
		}
	}
}

// writeLog records each Write it receives as a copy of its own.
type writeLog [][]byte

func (w *writeLog) Write(p []byte) (int, error) {
	*w = append(*w, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriteFrameOneWrite pins the syscall shape: every frame, empty
// body or not, small or past the pooling limit, reaches the writer as
// exactly one Write holding the golden bytes — and a recycled buffer
// never leaks one frame's bytes into the next.
func TestWriteFrameOneWrite(t *testing.T) {
	var w writeLog
	for _, tc := range goldenFrames {
		if err := WriteFrame(&w, tc.frame); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if len(w) != len(goldenFrames) {
		t.Fatalf("%d frames took %d writes, want one each", len(goldenFrames), len(w))
	}
	for i, tc := range goldenFrames {
		if !bytes.Equal(w[i], tc.wire) {
			t.Fatalf("%s: wrote % x, want % x", tc.name, w[i], tc.wire)
		}
	}
	big := Frame{Op: OpScan, ID: 7, Body: bytes.Repeat([]byte{0xAB}, DefaultMaxFrame+1)}
	w = nil
	for range 2 { // the second call must not find the first one's buffer pooled and stale
		if err := WriteFrame(&w, big); err != nil {
			t.Fatal(err)
		}
	}
	if len(w) != 2 || len(w[0]) != frameHeader+len(big.Body) || !bytes.Equal(w[0], w[1]) {
		t.Fatalf("big frame: %d writes of %d bytes", len(w), len(w[0]))
	}
	if f, err := ReadFrame(bytes.NewReader(w[1]), 2*DefaultMaxFrame); err != nil || !reflect.DeepEqual(f, big) {
		t.Fatalf("big frame round trip: op %#x id %d body %d err %v", f.Op, f.ID, len(f.Body), err)
	}
}

func TestReadFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpScan, ID: 1, Body: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(&buf, 64)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// The limit must be enforced from the length field alone — a huge
	// advertised length with no body behind it still fails fast.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("advertised 4GiB frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameGarbage(t *testing.T) {
	// Length below the opcode+id minimum is structurally invalid.
	for _, n := range []byte{0, 1, 4} {
		wire := []byte{0, 0, 0, n, 0xAA, 0, 0, 0, 0}
		if _, err := ReadFrame(bytes.NewReader(wire), 0); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("length %d: got %v, want ErrMalformedFrame", n, err)
		}
	}
	// An unknown opcode is not a framing error — it parses and the
	// dispatcher rejects it; the frame layer stays opcode-agnostic.
	wire := []byte{0, 0, 0, 5, 0x7F, 0, 0, 0, 9}
	f, err := ReadFrame(bytes.NewReader(wire), 0)
	if err != nil || f.Op != 0x7F || f.ID != 9 {
		t.Fatalf("unknown opcode: frame %+v err %v", f, err)
	}
}

func TestDecodeMalformedBodies(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"matches-short", func() error { _, err := DecodeMatches([]byte{0, 0}); return err }()},
		{"matches-count-mismatch", func() error { _, err := DecodeMatches([]byte{0, 0, 0, 2, 1, 2, 3}); return err }()},
		{"count-short", func() error { _, err := DecodeCount([]byte{1, 2, 3}); return err }()},
		{"scan-pattern-short", func() error { _, _, err := DecodeScanPattern([]byte{9}); return err }()},
		{"scan-pattern-overrun", func() error { _, _, err := DecodeScanPattern([]byte{0, 5, 'a'}); return err }()},
		{"info-short", func() error { _, err := DecodeInfo([]byte{0, 0, 0}); return err }()},
		{"info-truncated-pattern", func() error {
			_, err := DecodeInfo([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0})
			return err
		}()},
		{"info-pattern-overrun", func() error {
			_, err := DecodeInfo([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 9, 'a'})
			return err
		}()},
		{"info-trailing", func() error {
			body := append(mustInfo(Info{Patterns: []string{"a"}}), 0xFF)
			_, err := DecodeInfo(body)
			return err
		}()},
		{"reload-ok-short", func() error { _, _, err := DecodeReloadOK([]byte{0}); return err }()},
		{"error-empty", func() error { _, _, err := DecodeError(nil); return err }()},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrMalformedFrame) {
			t.Errorf("%s: got %v, want ErrMalformedFrame", tc.name, tc.err)
		}
	}
}

func TestEncodeDecodeRoundTrips(t *testing.T) {
	ms := []RuleMatch{{Rule: 0, Start: 0, End: 1}, {Rule: 9, Start: 100, End: 200}}
	got, err := DecodeMatches(EncodeMatches(ms))
	if err != nil || !reflect.DeepEqual(got, ms) {
		t.Fatalf("matches: %v %v", got, err)
	}
	if n, err := DecodeCount(EncodeCount(1 << 40)); err != nil || n != 1<<40 {
		t.Fatalf("count: %d %v", n, err)
	}
	body := mustScanPattern("a+b", []byte{0, 1, 2})
	p, payload, err := DecodeScanPattern(body)
	if err != nil || p != "a+b" || !bytes.Equal(payload, []byte{0, 1, 2}) {
		t.Fatalf("scan-pattern: %q %v %v", p, payload, err)
	}
	info := Info{Generation: 7, Patterns: []string{"", "a", strings.Repeat("x", 300)}}
	gotInfo, err := DecodeInfo(mustInfo(info))
	if err != nil || !reflect.DeepEqual(gotInfo, info) {
		t.Fatalf("info: %+v %v", gotInfo, err)
	}
	g, r, err := DecodeReloadOK(EncodeReloadOK(5, 6))
	if err != nil || g != 5 || r != 6 {
		t.Fatalf("reload-ok: %d %d %v", g, r, err)
	}
	code, msg, err := DecodeError(EncodeError(ErrCodeCompile, "bad pattern"))
	if err != nil || code != ErrCodeCompile || msg != "bad pattern" {
		t.Fatalf("error: %d %q %v", code, msg, err)
	}
	if _, err := EncodeScanPattern(strings.Repeat("x", 1<<16), nil); err == nil {
		t.Fatal("oversized pattern: want error")
	}
	if _, err := EncodeInfo(Info{Patterns: []string{strings.Repeat("x", 1<<16)}}); err == nil {
		t.Fatal("oversized info pattern: want error")
	}
}

func TestOpNames(t *testing.T) {
	ops := []byte{OpPing, OpScan, OpCount, OpScanPattern, OpRulesInfo, OpReload, OpStats,
		OpTenant, OpScanBatch, OpSessionOpen, OpSessionData, OpSessionClose,
		OpPong, OpMatches, OpCountResp, OpInfo, OpReloadOK, OpStatsResp,
		OpMatchesPartial, OpBatchResp, OpSessionOK, OpSessionMatches, OpError, OpShed}
	seen := map[string]bool{}
	for _, op := range ops {
		name := OpName(op)
		if strings.HasPrefix(name, "OP-0x") {
			t.Errorf("opcode 0x%02X has no name", op)
		}
		if seen[name] {
			t.Errorf("duplicate opcode name %s", name)
		}
		seen[name] = true
	}
	if got := OpName(0x42); got != "OP-0x42" {
		t.Errorf("unknown opcode name = %q", got)
	}
}
