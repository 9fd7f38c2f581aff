package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"alveare/internal/stream"
)

// ErrBadCheckpoint reports a stream checkpoint that failed structural
// validation — wrong version, unknown flags, truncation, trailing
// bytes, a rule count that disagrees with the restoring rule set, or
// offsets that violate the overlap-carry invariants. A checkpoint that
// decodes cleanly restores a stream whose future matches are
// byte-identical to the exporter's.
var ErrBadCheckpoint = errors.New("core: bad stream checkpoint")

// Stream checkpoint wire layout (version 1, big-endian):
//
//	u8  version (1)
//	u8  flags   (bit0: finished)
//	u32 overlap
//	u64 base    (stream offset of the first buffered byte)
//	u32 buffered length, then that many carry-window bytes
//	u32 rule count, then per rule:
//	    u8  rule flags (bit0: sticky/degraded, bit1: retired)
//	    u64 resume offset
//	    if retired: u16 error length, then that many error bytes
//
// The encoding is strict and self-delimiting: trailing bytes are an
// error, so a checkpoint embedded in a larger frame must be sliced
// exactly.
const (
	streamCkptVersion  = 1
	streamCkptFlagDone = 1 << 0

	streamCkptRuleSticky = 1 << 0
	streamCkptRuleDead   = 1 << 1

	streamCkptHeaderLen  = 1 + 1 + 4 + 8 + 4
	streamCkptMaxOffset  = 1 << 62 // u64→int safety fence
	streamCkptMaxOverlap = 1 << 30
	streamCkptMaxRules   = 1 << 20
)

// Export serialises the stream's resumable state — consumed offset,
// carry-window bytes, per-rule resume/degraded/retired state and
// config — as a small versioned checkpoint. Exported at a push
// boundary (after PushCtx returned), the checkpoint restored via
// RuleSet.RestoreStream on an equivalent rule set continues the flow
// with matches byte-identical to the uninterrupted stream.
//
// Retired rules keep their error text but lose its concrete type: a
// restored stream's FinishCtx reports the same message, not the same
// errors.Is identity.
func (st *Stream) Export() []byte {
	n := len(st.pos)
	buf, limit := st.win.Bytes(), st.win.Limit()
	size := streamCkptHeaderLen + len(buf) + 4 + n*9
	msgs := make([]string, n)
	for i := 0; i < n; i++ {
		if st.dead[i] != nil {
			msg := st.dead[i].Error()
			if len(msg) > 0xFFFF {
				msg = msg[:0xFFFF]
			}
			msgs[i] = msg
			size += 2 + len(msg)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, streamCkptVersion)
	var flags byte
	if st.done {
		flags |= streamCkptFlagDone
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(st.win.Overlap()))
	out = binary.BigEndian.AppendUint64(out, uint64(st.win.Base()))
	out = binary.BigEndian.AppendUint32(out, uint32(len(buf)))
	out = append(out, buf...)
	out = binary.BigEndian.AppendUint32(out, uint32(n))
	for i := 0; i < n; i++ {
		var rf byte
		pos := st.pos[i]
		if st.sticky[i] {
			rf |= streamCkptRuleSticky
		}
		if st.dead[i] != nil {
			rf |= streamCkptRuleDead
			// A retired rule's frozen resume offset can sit below the
			// current base (the carry moved on without it); it is never
			// consulted again, so normalise it to the window limit where
			// the restore-side invariants hold.
			pos = limit
		}
		out = append(out, rf)
		out = binary.BigEndian.AppendUint64(out, uint64(pos))
		if st.dead[i] != nil {
			out = binary.BigEndian.AppendUint16(out, uint16(len(msgs[i])))
			out = append(out, msgs[i]...)
		}
	}
	return out
}

// ckptHeader is the rule-set-independent part of a checkpoint: the
// fixed header, the carry window and the rule count, everything ahead
// of the per-rule records.
type ckptHeader struct {
	done    bool
	overlap uint32
	base    uint64
	carry   []byte // aliases the checkpoint
	rules   uint32
}

// parseCkptHeader validates a checkpoint up to its per-rule records
// and returns them unparsed. It is the only reader of the header, so
// RestoreStream and PeekCheckpoint reject exactly the same set: a
// relay never reasons from a checkpoint no shard would restore.
func parseCkptHeader(cp []byte) (h ckptHeader, records []byte, err error) {
	if len(cp) < streamCkptHeaderLen {
		return h, nil, fmt.Errorf("%w: %d bytes, want >= %d", ErrBadCheckpoint, len(cp), streamCkptHeaderLen)
	}
	if cp[0] != streamCkptVersion {
		return h, nil, fmt.Errorf("%w: version %d", ErrBadCheckpoint, cp[0])
	}
	if cp[1]&^byte(streamCkptFlagDone) != 0 {
		return h, nil, fmt.Errorf("%w: unknown flags 0x%02x", ErrBadCheckpoint, cp[1])
	}
	h.done = cp[1]&streamCkptFlagDone != 0
	h.overlap = binary.BigEndian.Uint32(cp[2:6])
	h.base = binary.BigEndian.Uint64(cp[6:14])
	blen := uint64(binary.BigEndian.Uint32(cp[14:18]))
	if h.overlap == 0 || h.overlap > streamCkptMaxOverlap {
		return h, nil, fmt.Errorf("%w: overlap %d", ErrBadCheckpoint, h.overlap)
	}
	if h.base > streamCkptMaxOffset {
		return h, nil, fmt.Errorf("%w: offset overflow", ErrBadCheckpoint)
	}
	if !h.done && blen > uint64(h.overlap) {
		return h, nil, fmt.Errorf("%w: %d buffered bytes exceed overlap %d", ErrBadCheckpoint, blen, h.overlap)
	}
	rest := cp[streamCkptHeaderLen:]
	if uint64(len(rest)) < blen+4 {
		return h, nil, fmt.Errorf("%w: truncated carry window", ErrBadCheckpoint)
	}
	h.carry = rest[:blen]
	h.rules = binary.BigEndian.Uint32(rest[blen : blen+4])
	if h.rules > streamCkptMaxRules {
		return h, nil, fmt.Errorf("%w: rule count %d", ErrBadCheckpoint, h.rules)
	}
	return h, rest[blen+4:], nil
}

// RestoreStream rebuilds a push-mode stream from an Export checkpoint.
// The rule set must be equivalent to the exporter's (same rules in the
// same order — the rule count is verified, the patterns are the
// caller's contract, e.g. the gateway's generation fence). Garbage
// input yields ErrBadCheckpoint, never a panic or a stream that
// silently diverges.
func (rs *RuleSet) RestoreStream(cp []byte) (*Stream, error) {
	h, rec, err := parseCkptHeader(cp)
	if err != nil {
		return nil, err
	}
	if int(h.rules) != rs.Len() {
		return nil, fmt.Errorf("%w: checkpoint has %d rules, rule set has %d", ErrBadCheckpoint, h.rules, rs.Len())
	}
	base := h.base
	limit := base + uint64(len(h.carry))
	posMax := limit
	if h.done {
		posMax = limit + 1
	}
	st := rs.newStream(stream.Window{})
	for i := range st.pos {
		if len(rec) < 9 {
			return nil, fmt.Errorf("%w: truncated rule %d", ErrBadCheckpoint, i)
		}
		rf := rec[0]
		if rf&^byte(streamCkptRuleSticky|streamCkptRuleDead) != 0 {
			return nil, fmt.Errorf("%w: rule %d unknown flags 0x%02x", ErrBadCheckpoint, i, rf)
		}
		p := binary.BigEndian.Uint64(rec[1:9])
		rec = rec[9:]
		if p > streamCkptMaxOffset {
			return nil, fmt.Errorf("%w: rule %d offset overflow", ErrBadCheckpoint, i)
		}
		if p < base || p > limit+1 {
			return nil, fmt.Errorf("%w: rule %d pos %d outside [%d,%d]", ErrBadCheckpoint, i, p, base, limit+1)
		}
		if rf&streamCkptRuleDead == 0 && p > posMax {
			return nil, fmt.Errorf("%w: rule %d pos %d past limit %d", ErrBadCheckpoint, i, p, posMax)
		}
		st.pos[i] = int(p)
		st.sticky[i] = rf&streamCkptRuleSticky != 0
		if rf&streamCkptRuleDead != 0 {
			if len(rec) < 2 {
				return nil, fmt.Errorf("%w: truncated rule %d error", ErrBadCheckpoint, i)
			}
			mlen := int(binary.BigEndian.Uint16(rec[:2]))
			rec = rec[2:]
			if len(rec) < mlen {
				return nil, fmt.Errorf("%w: truncated rule %d error text", ErrBadCheckpoint, i)
			}
			st.dead[i] = errors.New(string(rec[:mlen]))
			rec = rec[mlen:]
		}
	}
	if len(rec) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(rec))
	}
	st.win = stream.NewWindow(int(h.overlap), int(base), append([]byte(nil), h.carry...))
	st.done = h.done
	return st, nil
}

// CheckpointInfo is the header summary of a stream checkpoint, parsed
// without a rule set — what a relay (the gateway) needs to reason about
// a checkpoint it cannot restore itself: the consumed offset and the
// resident carry window, whose difference is the finalised prefix
// (every match already delivered starts before it).
type CheckpointInfo struct {
	Consumed uint64 // total stream bytes absorbed at export time
	Buffered uint64 // resident carry-window bytes
	Overlap  uint32
	Rules    uint32
	Done     bool
}

// PeekCheckpoint parses a stream checkpoint's header without restoring
// it. It validates the same structural invariants as RestoreStream up
// to (not including) the per-rule records' contents.
func PeekCheckpoint(cp []byte) (CheckpointInfo, error) {
	h, _, err := parseCkptHeader(cp)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{
		Consumed: h.base + uint64(len(h.carry)),
		Buffered: uint64(len(h.carry)),
		Overlap:  h.overlap,
		Rules:    h.rules,
		Done:     h.done,
	}, nil
}
