package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// recoders decode a body and encode what they decoded, one per layout
// (and per negotiated flags where the layout depends on them).
var recoders = []struct {
	name   string
	recode func([]byte) ([]byte, error)
}{
	{"matches", func(b []byte) ([]byte, error) {
		ms, err := DecodeMatches(b)
		return then(err, func() ([]byte, error) { return EncodeMatches(ms), nil })
	}},
	{"count", func(b []byte) ([]byte, error) {
		n, err := DecodeCount(b)
		return then(err, func() ([]byte, error) { return EncodeCount(n), nil })
	}},
	{"scan-pattern", func(b []byte) ([]byte, error) {
		p, payload, err := DecodeScanPattern(b)
		return then(err, func() ([]byte, error) { return EncodeScanPattern(p, payload) })
	}},
	{"info", func(b []byte) ([]byte, error) {
		in, err := DecodeInfo(b)
		return then(err, func() ([]byte, error) { return EncodeInfo(in) })
	}},
	{"shed", func(b []byte) ([]byte, error) {
		r, err := DecodeShed(b)
		return then(err, func() ([]byte, error) { return EncodeShed(r), nil })
	}},
	{"reload-ok", func(b []byte) ([]byte, error) {
		g, r, err := DecodeReloadOK(b)
		return then(err, func() ([]byte, error) { return EncodeReloadOK(g, r), nil })
	}},
	{"error", func(b []byte) ([]byte, error) {
		code, msg, err := DecodeError(b)
		return then(err, func() ([]byte, error) { return EncodeError(code, msg), nil })
	}},
	{"tenant", func(b []byte) ([]byte, error) {
		h, op, inner, err := DecodeTenant(b)
		return then(err, func() ([]byte, error) { return EncodeTenant(h, op, inner) })
	}},
	{"matches-partial", func(b []byte) ([]byte, error) {
		p, ok, missed, ms, err := DecodeMatchesPartial(b)
		return then(err, func() ([]byte, error) { return EncodeMatchesPartial(p, ok, missed, ms), nil })
	}},
	{"scan-batch", func(b []byte) ([]byte, error) {
		items, err := DecodeScanBatch(b)
		return then(err, func() ([]byte, error) { return EncodeScanBatch(items) })
	}},
	{"batch-resp", func(b []byte) ([]byte, error) {
		rs, err := DecodeBatchResults(b)
		return then(err, func() ([]byte, error) { return EncodeBatchResults(rs), nil })
	}},
	{"session-open", func(b []byte) ([]byte, error) { return recodeStart(OpSessionOpen, b) }},
	{"session-restore", func(b []byte) ([]byte, error) { return recodeStart(OpSessionRestore, b) }},
	{"session-ok", func(b []byte) ([]byte, error) { return recodeOK(b, 0) }},
	{"session-ok-gen", func(b []byte) ([]byte, error) { return recodeOK(b, SessionOpenFlagCheckpoint) }},
	{"session-data", func(b []byte) ([]byte, error) {
		id, chunk, err := DecodeSessionData(b)
		return then(err, func() ([]byte, error) { return EncodeSessionData(id, chunk), nil })
	}},
	{"session-close", func(b []byte) ([]byte, error) {
		id, err := DecodeSessionClose(b)
		return then(err, func() ([]byte, error) { return EncodeSessionClose(id), nil })
	}},
	{"session-matches", func(b []byte) ([]byte, error) { return recodeMatches(b, 0) }},
	{"session-matches-ckpt", func(b []byte) ([]byte, error) { return recodeMatches(b, SessionOpenFlagCheckpoint) }},
}

// errReencode marks an encoder refusing a value its decoder accepted.
var errReencode = errors.New("re-encode refused a decoded value")

// then runs encode only when the decode before it succeeded.
func then(err error, encode func() ([]byte, error)) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	body, err := encode()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errReencode, err)
	}
	return body, nil
}

func recodeStart(op byte, b []byte) ([]byte, error) {
	st, err := DecodeSessionStart(op, b)
	return then(err, func() ([]byte, error) { _, body, err := EncodeSessionStart(st); return body, err })
}

func recodeOK(b []byte, negotiated byte) ([]byte, error) {
	id, ov, gen, err := DecodeSessionOK(b, negotiated)
	return then(err, func() ([]byte, error) { return EncodeSessionOK(id, ov, gen, negotiated), nil })
}

func recodeMatches(b []byte, negotiated byte) ([]byte, error) {
	fin, consumed, ms, ckpt, err := DecodeSessionMatches(b, negotiated)
	return then(err, func() ([]byte, error) { return EncodeSessionMatches(fin, consumed, ms, ckpt), nil })
}

// FuzzCodec feeds arbitrary bodies to every layout. Whatever a decoder
// accepts must encode again without failing (an encoder never refuses
// what its decoder let in), and encoding is then a fixed point: the
// re-encoded body decodes and re-encodes to itself byte for byte.
func FuzzCodec(f *testing.F) {
	tenantBody, _ := EncodeTenant(TenantHeader{Tenant: "acme", Namespace: "ns"}, OpScan, []byte("pay"))
	seeds := [][]byte{tenantBody, EncodeMatchesPartial(true, 2, 1, []RuleMatch{{Rule: 1, Start: 2, End: 5}})}
	for _, g := range [][]struct {
		name  string
		frame Frame
		wire  []byte
	}{goldenFrames, goldenStreamFrames, goldenCheckpointFrames} {
		for _, tc := range g {
			seeds = append(seeds, tc.frame.Body)
		}
	}
	for k := range recoders {
		for _, body := range seeds {
			f.Add(uint8(k), body)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		rc := recoders[int(kind)%len(recoders)]
		once, err := rc.recode(body)
		if errors.Is(err, errReencode) {
			t.Fatalf("%s: % x: %v", rc.name, body, err)
		}
		if err != nil {
			return
		}
		twice, err := rc.recode(once)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("%s: % x re-encoded to % x, which re-encodes to % x (%v)", rc.name, body, once, twice, err)
		}
	})
}

// TestCodecAllocations pins the codec's allocation budget: an encode is
// one exact allocation, and decoding allocates only what it hands back
// (a match list, a string) — never the walk itself, which stays on the
// stack because every layout is a closure over it. A layout that starts
// taking the walk as an argument through an indirect call moves it to
// the heap and fails here.
func TestCodecAllocations(t *testing.T) {
	ms := []RuleMatch{{Rule: 1, Start: 2, End: 3}, {Rule: 4, Start: 5, End: 6}}
	ckpt := []byte{1, 2, 3}
	items := [][]byte{[]byte("ab"), []byte("cd")}
	results := []BatchItemResult{{Matches: ms}, {Code: ErrCodeScan, Msg: "x"}}
	data := EncodeSessionData(7, []byte("chunk"))
	matchesBody := EncodeMatches(ms)
	sessMatches := EncodeSessionMatches(false, 9, ms, ckpt)
	okBody := EncodeSessionOK(7, 64, 3, SessionOpenFlagCheckpoint)
	batch, _ := EncodeScanBatch(items)
	start := mustStart(SessionStart{Overlap: 64, Flags: SessionOpenFlagCheckpoint})
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"EncodeMatches", 1, func() { EncodeMatches(ms) }},
		{"EncodeSessionMatches", 1, func() { EncodeSessionMatches(false, 9, ms, ckpt) }},
		{"EncodeSessionData", 1, func() { EncodeSessionData(7, ckpt) }},
		{"EncodeSessionOK", 1, func() { EncodeSessionOK(7, 64, 3, SessionOpenFlagCheckpoint) }},
		{"EncodeScanBatch", 1, func() { EncodeScanBatch(items) }},
		{"EncodeBatchResults", 1, func() { EncodeBatchResults(results) }},
		{"EncodeSessionStart", 1, func() { EncodeSessionStart(SessionStart{Overlap: 64}) }},
		{"DecodeSessionData", 0, func() { DecodeSessionData(data) }},
		{"DecodeSessionOK", 0, func() { DecodeSessionOK(okBody, SessionOpenFlagCheckpoint) }},
		{"DecodeSessionStart", 0, func() { DecodeSessionStart(OpSessionOpen, start) }},
		{"DecodeMatches", 1, func() { DecodeMatches(matchesBody) }},
		{"DecodeSessionMatches", 1, func() { DecodeSessionMatches(sessMatches, SessionOpenFlagCheckpoint) }},
		{"DecodeScanBatch", 1, func() { DecodeScanBatch(batch) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != tc.want {
			t.Errorf("%s: %.1f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
}

// FuzzSessionMatchesRelay holds the relay's form of a SESSION-MATCHES
// answer to the decoded one: the wire-record decoder accepts exactly
// what DecodeSessionMatches accepts, its records are the decoded list,
// and appending them behind any prefix — into a buffer with room, as a
// frame buffer has — writes the bytes EncodeSessionMatches writes for
// the list, without allocating.
func FuzzSessionMatchesRelay(f *testing.F) {
	for _, tc := range append(goldenStreamFrames, goldenCheckpointFrames...) {
		f.Add(tc.frame.Body, true)
		f.Add(tc.frame.Body, false)
	}
	f.Fuzz(func(t *testing.T, body []byte, negotiate bool) {
		negotiated := flag(negotiate, SessionOpenFlagCheckpoint)
		final, consumed, ms, ckpt, err := DecodeSessionMatches(body, negotiated)
		rfinal, rconsumed, recs, rckpt, rerr := DecodeSessionMatchesBytes(bytes.Clone(body), negotiated)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("% x: decoders disagree: %v vs %v", body, err, rerr)
		}
		if err != nil {
			return
		}
		if rfinal != final || rconsumed != consumed || !bytes.Equal(rckpt, ckpt) || recs.Len() != len(ms) {
			t.Fatalf("% x: record form differs from the decoded one", body)
		}
		for i, m := range ms {
			if recs.At(i) != m {
				t.Fatalf("% x: record %d is %+v, want %+v", body, i, recs.At(i), m)
			}
		}
		want := append([]byte("head"), EncodeSessionMatches(final, consumed, ms, ckpt)...)
		buf := make([]byte, 4, len(want))
		copy(buf, "head")
		var got []byte
		if n := testing.AllocsPerRun(1, func() { got = AppendSessionMatches(buf, final, consumed, recs, ckpt) }); n != 0 {
			t.Errorf("% x: appending into a buffer with room allocates %v times", body, n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("% x: relayed as % x, want % x", body, got, want)
		}
	})
}

// TestMatchRecordsKeep: Keep compacts the records in place, in order.
func TestMatchRecordsKeep(t *testing.T) {
	ms := []RuleMatch{{0, 1, 2}, {1, 9, 12}, {2, 3, 4}, {0, 20, 21}}
	_, _, recs, _, err := DecodeSessionMatchesBytes(EncodeSessionMatches(false, 30, ms, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	kept := recs.Keep(func(m RuleMatch) bool { return m.Start >= 5 })
	if kept.Len() != 2 || kept.At(0) != ms[1] || kept.At(1) != ms[3] || &kept[0] != &recs[0] {
		t.Fatalf("Keep(start >= 5) = %d records, want ms[1], ms[3] in place", kept.Len())
	}
}
