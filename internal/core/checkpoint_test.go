package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"alveare/internal/backend"
	"alveare/internal/stream"
)

type ruleHit struct {
	rule int
	m    Match
}

// pushAll feeds data[from:] to st in chunk-sized pushes, then finishes
// it, appending every match to hits.
func pushAll(t *testing.T, st *Stream, data []byte, from, chunk int, hits []ruleHit) []ruleHit {
	t.Helper()
	emit := func(rule int, m Match, _ []byte) bool {
		hits = append(hits, ruleHit{rule, m})
		return true
	}
	for off := from; off < len(data); off += chunk {
		if _, err := st.PushCtx(context.Background(), data[off:min(off+chunk, len(data))], emit); err != nil {
			t.Fatalf("PushCtx(off=%d): %v", off, err)
		}
	}
	if _, err := st.FinishCtx(context.Background(), emit); err != nil {
		t.Fatalf("FinishCtx: %v", err)
	}
	return hits
}

// TestStreamExportRestoreEveryBoundary is the checkpoint property on
// the codec that ships: exporting at ANY push boundary — one-byte
// pushes and a single push larger than the flow included — and
// restoring into a fresh stream must finish the flow with exactly the
// matches the uninterrupted stream emits, same offsets, same order.
// The restored and uninterrupted runs share chunk boundaries, so the
// equivalence is exact for every overlap, blind spot included.
func TestStreamExportRestoreEveryBoundary(t *testing.T) {
	rs, err := NewRuleSet([]string{"ax+b", "b\\.\\."}, backend.Options{}, WithDFA(), WithApprox())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("..axb..axxxxxxxxb..ax..axxb-axxxb=axb axxxxb..b..axxxxxxxxxxxxb..")
	for _, overlap := range []int{4, 8, 64} {
		for _, chunk := range []int{1, 3, 7, 16, len(data) + 1} {
			t.Run(fmt.Sprintf("overlap=%d/chunk=%d", overlap, chunk), func(t *testing.T) {
				want := pushAll(t, rs.NewStream(overlap), data, 0, chunk, nil)
				if len(want) == 0 {
					t.Fatal("no matches: the corpus exercises nothing")
				}
				prefix := rs.NewStream(overlap)
				var before []ruleHit
				keep := func(rule int, m Match, _ []byte) bool {
					before = append(before, ruleHit{rule, m})
					return true
				}
				for off := 0; ; off += chunk {
					end := min(off+chunk, len(data))
					if off < len(data) {
						if _, err := prefix.PushCtx(context.Background(), data[off:end], keep); err != nil {
							t.Fatalf("PushCtx(off=%d): %v", off, err)
						}
					}
					twin, err := rs.RestoreStream(prefix.Export())
					if err != nil {
						t.Fatalf("RestoreStream at boundary %d: %v", end, err)
					}
					if twin.Overlap() != prefix.Overlap() || twin.Consumed() != prefix.Consumed() {
						t.Fatalf("boundary %d: restored overlap/consumed %d/%d, exporter %d/%d",
							end, twin.Overlap(), twin.Consumed(), prefix.Overlap(), prefix.Consumed())
					}
					got := pushAll(t, twin, data, end, chunk, append([]ruleHit(nil), before...))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("boundary %d: restored continuation diverged:\n got %v\nwant %v", end, got, want)
					}
					if off+chunk > len(data) {
						break
					}
				}
			})
		}
	}
}

// TestStreamRestoreFinished pins the done-flag round trip: a finished
// stream exports a checkpoint that restores to a finished stream, which
// refuses further pushes instead of silently rescanning.
func TestStreamRestoreFinished(t *testing.T) {
	rs, err := NewRuleSet([]string{"ab"}, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := rs.NewStream(4)
	pushAll(t, st, []byte("xaby"), 0, 4, nil)
	cp := st.Export()
	if info, err := PeekCheckpoint(cp); err != nil || !info.Done {
		t.Fatalf("PeekCheckpoint(finished) = %+v, %v; want Done", info, err)
	}
	twin, err := rs.RestoreStream(cp)
	if err != nil {
		t.Fatalf("RestoreStream(finished): %v", err)
	}
	drop := func(int, Match, []byte) bool { return true }
	if _, err := twin.PushCtx(context.Background(), []byte("ab"), drop); !errors.Is(err, stream.ErrSessionFinished) {
		t.Fatalf("push into restored finished stream: err %v, want ErrSessionFinished", err)
	}
}

// TestRestoreStreamGarbage feeds the restorer structurally broken
// checkpoints; every one must answer ErrBadCheckpoint — never a panic,
// never a stream built on corrupt state — and a defect ahead of the
// per-rule records must fail PeekCheckpoint the same way.
func TestRestoreStreamGarbage(t *testing.T) {
	rs, err := NewRuleSet([]string{"ab", "zz"}, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := rs.NewStream(8)
	if _, err := st.PushCtx(context.Background(), []byte("zzzzabzzzzzzzz"), func(int, Match, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	valid := st.Export()
	carry := int(binary.BigEndian.Uint32(valid[14:18]))
	rec := streamCkptHeaderLen + carry + 4 // first per-rule record
	mutate := func(f func(cp []byte)) []byte {
		cp := append([]byte(nil), valid...)
		f(cp)
		return cp
	}
	for name, tc := range map[string]struct {
		cp     []byte
		header bool
	}{
		"empty":              {nil, true},
		"short":              {valid[:streamCkptHeaderLen-1], true},
		"bad version":        {mutate(func(cp []byte) { cp[0] = 99 }), true},
		"bad flags":          {mutate(func(cp []byte) { cp[1] = 0xF0 }), true},
		"zero overlap":       {mutate(func(cp []byte) { binary.BigEndian.PutUint32(cp[2:6], 0) }), true},
		"huge overlap":       {mutate(func(cp []byte) { binary.BigEndian.PutUint32(cp[2:6], streamCkptMaxOverlap+1) }), true},
		"base overflow":      {mutate(func(cp []byte) { cp[6] = 0xFF }), true},
		"carry past overlap": {mutate(func(cp []byte) { binary.BigEndian.PutUint32(cp[2:6], uint32(carry-1)) }), true},
		"carry length lie":   {mutate(func(cp []byte) { binary.BigEndian.PutUint32(cp[14:18], uint32(len(cp))) }), true},
		"huge rule count":    {mutate(func(cp []byte) { binary.BigEndian.PutUint32(cp[rec-4:], streamCkptMaxRules+1) }), true},
		"foreign rule count": {mutate(func(cp []byte) { binary.BigEndian.PutUint32(cp[rec-4:], 3) }), false},
		"bad rule flags":     {mutate(func(cp []byte) { cp[rec] = 0x80 }), false},
		"pos < base":         {mutate(func(cp []byte) { binary.BigEndian.PutUint64(cp[rec+1:], 0) }), false},
		"pos past limit":     {mutate(func(cp []byte) { binary.BigEndian.PutUint64(cp[rec+1:], uint64(st.Consumed())+1) }), false},
		"truncated record":   {valid[:len(valid)-1], false},
		"trailing":           {append(append([]byte(nil), valid...), 0), false},
	} {
		if _, err := rs.RestoreStream(tc.cp); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: RestoreStream err %v, want ErrBadCheckpoint", name, err)
		}
		if _, err := PeekCheckpoint(tc.cp); tc.header && !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: PeekCheckpoint err %v, want ErrBadCheckpoint like RestoreStream", name, err)
		}
	}
	// mutate copied: the battery did not corrupt its own baseline.
	if _, err := rs.RestoreStream(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// TestStreamExportRetiredRule pins a checkpoint carrying a rule the
// Skip policy retired after a fault: the rule's error text travels, the
// restored stream reports it from FinishCtx, and re-exporting the
// restored stream gives the same bytes.
func TestStreamExportRetiredRule(t *testing.T) {
	rs, err := NewRuleSet([]string{"ab", "zz"}, backend.Options{}, WithPolicy(Skip))
	if err != nil {
		t.Fatal(err)
	}
	rs.lanes[0].New = func() any { panic("injected core fault") }
	st := rs.NewStream(8)
	if _, err := st.PushCtx(context.Background(), []byte("xxabxxzzxx"), func(int, Match, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	cp := st.Export()
	twin, err := rs.RestoreStream(cp)
	if err != nil {
		t.Fatalf("RestoreStream: %v", err)
	}
	if again := twin.Export(); !bytes.Equal(again, cp) {
		t.Fatalf("re-export of the restored stream differs:\n% x\n% x", again, cp)
	}
	_, want := st.FinishCtx(context.Background(), func(int, Match, []byte) bool { return true })
	_, got := twin.FinishCtx(context.Background(), func(int, Match, []byte) bool { return true })
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("FinishCtx: restored %v, exporter %v; want the same retirement error", got, want)
	}
}
