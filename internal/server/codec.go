// Body codec. Every request and response body is written down once, as
// a layout: a function that names the body's fields in wire order, each
// through a field kind (num, rest, prefixed, matches, count, flags) that
// moves one field in whichever direction the walk runs. The same layout
// sizes a body, appends it to a buffer — one exact allocation for an
// Encode*, the pooled frame buffer for an Append* that Conn.WriteBody
// runs — and parses and validates a received one, so an encoder and its
// decoder cannot drift apart. docs/PROTOCOL.md documents every layout;
// the golden tests in protocol*_test.go pin the bytes.
package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// walkMode is the direction a layout walk moves bytes in.
type walkMode uint8

const (
	sizing  walkMode = iota // count the bytes the body needs
	failed                  // stopped: err says why, and no field moves
	writing                 // fill the buffer the sizing walk measured
	reading                 // parse and validate a received body
)

// wire is one walk of a layout over a body. A field kind reads the
// field through its pointer while sizing or writing and stores through
// it while reading. The first failure stops the walk: every later field
// kind moves nothing.
type wire struct {
	mode walkMode
	op   byte   // the body's opcode, for error messages
	buf  []byte // writing: the body being filled; reading: the body being parsed
	off  int    // bytes sized, written or consumed so far
	err  error  // why a failed walk stopped; nil when a read ran off the body at off
}

// encode runs layout over w twice: once to size the body, once to
// append it to dst, which grows only when its spare capacity falls
// short — so a nil dst is one exact allocation and a pooled frame
// buffer none. A layout is a closure over w, never handed w as an
// argument, so the walk itself stays off the heap.
func (w *wire) encode(dst []byte, op byte, layout func()) ([]byte, error) {
	w.op = op
	layout()
	if w.mode == failed {
		return dst, w.error()
	}
	n := len(dst)
	if cap(dst)-n < w.off {
		dst = append(make([]byte, 0, n+w.off), dst...)
	}
	w.buf, w.off, w.mode = dst[:n+w.off], n, writing
	layout()
	return w.buf, nil
}

// mustEncode is encode for the layouts no documented argument can fail;
// a failure there is a broken caller invariant, not a wire fault.
func (w *wire) mustEncode(dst []byte, op byte, layout func()) []byte {
	body, err := w.encode(dst, op, layout)
	if err != nil {
		panic(err)
	}
	return body
}

// decoding starts a reading walk over a received body.
func decoding(op byte, body []byte) wire { return wire{mode: reading, op: op, buf: body} }

// done ends a reading walk: a body must hold its layout and nothing else.
func (w *wire) done() error {
	if w.mode == reading && w.off != len(w.buf) {
		w.fail("%d trailing bytes", len(w.buf)-w.off)
	}
	return w.error()
}

// error reports why the walk failed, or nil while it has not.
func (w *wire) error() error {
	if w.mode == failed && w.err == nil {
		w.err = fmt.Errorf("%w: %s body truncated at byte %d", ErrMalformedFrame, OpName(w.op), w.off)
	}
	return w.err
}

// fail stops the walk with a malformed-body error; the first one wins.
func (w *wire) fail(format string, args ...any) {
	if w.mode != failed {
		w.err = fmt.Errorf("%w: %s body: %s", ErrMalformedFrame, OpName(w.op), fmt.Sprintf(format, args...))
		w.mode = failed
	}
}

// take claims the next n bytes of the body being written or read: nil
// while sizing, once failed, or when a read runs off the body, which
// fails the walk. Every field steps through it, so it makes no call and
// stays small enough to inline.
func (w *wire) take(n int) []byte {
	if w.mode >= writing && uint(n) <= uint(len(w.buf)-w.off) {
		b := w.buf[w.off : w.off+n : w.off+n]
		w.off += n
		return b
	}
	switch w.mode {
	case sizing:
		w.off += n
	case reading:
		w.mode = failed
	}
	return nil
}

// more reports whether an optional trailing field is present: whether
// the caller set it, when encoding; whether bytes are left, when decoding.
func (w *wire) more(set bool) bool {
	if w.mode == reading {
		return w.off < len(w.buf)
	}
	return set
}

// num moves one big-endian unsigned integer as wide as its type.
func num[T uint8 | uint16 | uint32 | uint64](w *wire, v *T) {
	b := w.take(bits.Len64(uint64(^T(0))) / 8)
	switch {
	case b == nil:
	case w.mode == writing:
		put(b, uint64(*v))
	default:
		*v = T(get(b))
	}
}

// put writes x big-endian across all of b, which is 1, 2, 4 or 8 bytes.
func put(b []byte, x uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(x)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(x))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(x))
	default:
		binary.BigEndian.PutUint64(b, x)
	}
}

// get reads the big-endian integer that fills b, as put wrote it.
func get(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	}
	return binary.BigEndian.Uint64(b)
}

// raw moves a byte string of exactly n bytes. A decoded []byte aliases
// the body; a decoded string is a copy.
func raw[S ~string | ~[]byte](w *wire, v *S, n int) {
	if b := w.take(n); b != nil {
		if w.mode == writing {
			copy(b, *v)
		} else {
			*v = S(b)
		}
	}
}

// rest moves the byte string that runs to the end of the body.
func rest[S ~string | ~[]byte](w *wire, v *S) {
	n := len(*v)
	if w.mode == reading {
		n = len(w.buf) - w.off
	}
	raw(w, v, n)
}

// prefixed moves a byte string behind its length, a big-endian L, and
// refuses one longer than max.
func prefixed[L uint8 | uint16 | uint32, S ~string | ~[]byte](w *wire, v *S, max int) {
	n := L(len(*v))
	num(w, &n)
	size := int(n)
	if w.mode != reading {
		size = len(*v)
	}
	if size > max {
		w.fail("%d-byte field exceeds %d", size, max)
	}
	raw(w, v, size)
}

// count moves the u32 length of a list and refuses one above max. A
// reading walk sizes *v to it, once the body is known to hold at least
// a byte per item.
func count[T any](w *wire, v *[]T, max uint32) {
	n := uint32(len(*v))
	num(w, &n)
	switch {
	case n > max:
		w.fail("count %d exceeds %d", n, max)
	case w.mode == reading && n > 0:
		if int(n) > len(w.buf)-w.off {
			w.fail("count %d exceeds the body", n)
			return
		}
		*v = make([]T, n)
	}
}

// flags moves a u8 bit set and refuses any bit outside known.
func flags(w *wire, v *byte, known byte) {
	num(w, v)
	if *v&^known != 0 {
		w.fail("unknown flags 0x%02X", *v)
	}
}

// flag is bit when on holds, else 0.
func flag(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

// RuleMatch is one match in a MATCHES list: the matching rule's index in
// the loaded snapshot (always 0 for OpScanPattern) and the half-open
// byte interval in the scanned payload.
type RuleMatch struct {
	Rule       uint32
	Start, End uint64
}

// matchRecord is one RuleMatch on the wire: u32 rule, u64 start, u64 end.
const matchRecord = 4 + 8 + 8

// MatchRecords is a MATCHES list left in its wire form: the records
// alone, matchRecord bytes each, without the count. Decoded, it aliases
// the body it was read from, so a relay forwards a list without
// building one.
type MatchRecords []byte

// Len returns the number of records.
func (r MatchRecords) Len() int { return len(r) / matchRecord }

// At decodes record i.
func (r MatchRecords) At(i int) RuleMatch {
	b := r[i*matchRecord : (i+1)*matchRecord]
	return RuleMatch{Rule: binary.BigEndian.Uint32(b),
		Start: binary.BigEndian.Uint64(b[4:]), End: binary.BigEndian.Uint64(b[12:])}
}

// Keep compacts r in place to the records keep accepts, in order, and
// returns them.
func (r MatchRecords) Keep(keep func(RuleMatch) bool) MatchRecords {
	kept := r[:0]
	for i := 0; i < r.Len(); i++ {
		if keep(r.At(i)) {
			kept = append(kept, r[i*matchRecord:(i+1)*matchRecord]...)
		}
	}
	return kept
}

// matchList is a MATCHES list in either form: decoded, or wire records.
type matchList interface{ []RuleMatch | MatchRecords }

// matches moves a MATCHES list: u32 count, then count records of u32
// rule, u64 start, u64 end. An empty list decodes as nil. It is the one
// field kind with its own loop, because every scan answer carries one;
// a list kept as MatchRecords moves as raw bytes instead.
func matches[L matchList](w *wire, list *L) {
	if recs, ok := any(list).(*MatchRecords); ok {
		n := uint32(recs.Len())
		num(w, &n)
		raw(w, recs, int(n)*matchRecord)
		return
	}
	ms := any(list).(*[]RuleMatch)
	n := uint32(len(*ms))
	num(w, &n)
	b := w.take(int(n) * matchRecord)
	switch {
	case b == nil:
	case w.mode == writing:
		for i, m := range *ms {
			r := b[i*matchRecord : (i+1)*matchRecord]
			binary.BigEndian.PutUint32(r, m.Rule)
			binary.BigEndian.PutUint64(r[4:], m.Start)
			binary.BigEndian.PutUint64(r[12:], m.End)
		}
	case n > 0:
		out := make([]RuleMatch, n)
		for i := range out {
			out[i] = MatchRecords(b).At(i)
		}
		*ms = out
	}
}

// EncodeMatches serialises an OpMatches body: one MATCHES list.
func EncodeMatches(ms []RuleMatch) []byte { return AppendMatches(nil, ms) }

// AppendMatches appends an OpMatches body to dst.
func AppendMatches(dst []byte, ms []RuleMatch) []byte {
	var w wire
	return w.mustEncode(dst, OpMatches, func() { matches(&w, &ms) })
}

// DecodeMatches parses an OpMatches body.
func DecodeMatches(body []byte) ([]RuleMatch, error) {
	var ms []RuleMatch
	w := decoding(OpMatches, body)
	matches(&w, &ms)
	return ms, w.done()
}

// EncodeCount serialises an OpCountResp body: u64 total.
func EncodeCount(n uint64) []byte {
	var w wire
	return w.mustEncode(nil, OpCountResp, func() { num(&w, &n) })
}

// DecodeCount parses an OpCountResp body.
func DecodeCount(body []byte) (n uint64, err error) {
	w := decoding(OpCountResp, body)
	num(&w, &n)
	return n, w.done()
}

// scanPattern is the OpScanPattern layout: u16 pattern length, the
// pattern, then the payload.
func scanPattern(w *wire, pattern *string, payload *[]byte) {
	prefixed[uint16](w, pattern, math.MaxUint16)
	rest(w, payload)
}

// EncodeScanPattern serialises an OpScanPattern body.
func EncodeScanPattern(pattern string, payload []byte) ([]byte, error) {
	var w wire
	return w.encode(nil, OpScanPattern, func() { scanPattern(&w, &pattern, &payload) })
}

// DecodeScanPattern parses an OpScanPattern body; payload aliases body.
func DecodeScanPattern(body []byte) (pattern string, payload []byte, err error) {
	w := decoding(OpScanPattern, body)
	scanPattern(&w, &pattern, &payload)
	return pattern, payload, w.done()
}

// Info describes the loaded rule snapshot: the hot-reload generation
// (0 for the rules the server started with, +1 per accepted OpReload)
// and the patterns in rule order.
type Info struct {
	Generation uint32
	Patterns   []string
}

// info is the OpInfo layout: u32 generation, u32 rule count, then per
// rule u16 length and the pattern.
func info(w *wire, in *Info) {
	num(w, &in.Generation)
	count(w, &in.Patterns, math.MaxUint32)
	for i := range in.Patterns {
		prefixed[uint16](w, &in.Patterns[i], math.MaxUint16)
	}
}

// EncodeInfo serialises an OpInfo body.
func EncodeInfo(in Info) ([]byte, error) {
	var w wire
	return w.encode(nil, OpInfo, func() { info(&w, &in) })
}

// DecodeInfo parses an OpInfo body.
func DecodeInfo(body []byte) (in Info, err error) {
	w := decoding(OpInfo, body)
	info(&w, &in)
	return in, w.done()
}

// shed is the OpShed layout: empty from a plain server, or one u8
// reason (ShedReason*) from a gateway.
func shed(w *wire, reason *byte) {
	if w.more(*reason != 0) {
		num(w, reason)
	}
}

// EncodeShed serialises an OpShed body; reason 0 is the empty form.
func EncodeShed(reason byte) []byte {
	var w wire
	return w.mustEncode(nil, OpShed, func() { shed(&w, &reason) })
}

// DecodeShed parses an OpShed body; reason 0 is the reasonless form.
func DecodeShed(body []byte) (reason byte, err error) {
	w := decoding(OpShed, body)
	shed(&w, &reason)
	return reason, w.done()
}

// reloadOK is the OpReloadOK layout: u32 generation, u32 rule count.
func reloadOK(w *wire, generation, rules *uint32) {
	num(w, generation)
	num(w, rules)
}

// EncodeReloadOK serialises an OpReloadOK body.
func EncodeReloadOK(generation, rules uint32) []byte {
	var w wire
	return w.mustEncode(nil, OpReloadOK, func() { reloadOK(&w, &generation, &rules) })
}

// DecodeReloadOK parses an OpReloadOK body.
func DecodeReloadOK(body []byte) (generation, rules uint32, err error) {
	w := decoding(OpReloadOK, body)
	reloadOK(&w, &generation, &rules)
	return generation, rules, w.done()
}

// errorBody is the OpError layout: u8 code, then the utf-8 message.
func errorBody(w *wire, code *byte, msg *string) {
	num(w, code)
	rest(w, msg)
}

// EncodeError serialises an OpError body.
func EncodeError(code byte, msg string) []byte {
	var w wire
	return w.mustEncode(nil, OpError, func() { errorBody(&w, &code, &msg) })
}

// DecodeError parses an OpError body.
func DecodeError(body []byte) (code byte, msg string, err error) {
	w := decoding(OpError, body)
	errorBody(&w, &code, &msg)
	return code, msg, w.done()
}

// MaxTenantName bounds the tenant and namespace fields of a TENANT
// envelope. The wire format could carry 255 bytes (u8 lengths); the
// protocol caps both at 64 so a hostile header cannot bloat every
// routing key, metric name and log line downstream.
const MaxTenantName = 64

// TenantHeader is the routing header of a TENANT envelope: which
// tenant the inner request belongs to and which of its rule
// namespaces it targets. Namespace may be empty (the tenant's default
// namespace); Tenant may not.
type TenantHeader struct {
	Tenant    string
	Namespace string
}

// Key returns the consistent-hashing routing key.
func (h TenantHeader) Key() string { return h.Tenant + "/" + h.Namespace }

// tenant is the OpTenant layout: u8 length and the tenant (1 to
// MaxTenantName bytes), u8 length and the namespace (at most
// MaxTenantName), u8 inner opcode (queue-class only), then the inner
// body.
func tenant[S ~string | ~[]byte](w *wire, name, namespace *S, op *byte, inner *[]byte) {
	prefixed[uint8](w, name, MaxTenantName)
	if len(*name) == 0 {
		w.fail("empty tenant")
	}
	prefixed[uint8](w, namespace, MaxTenantName)
	num(w, op)
	if !QueueClass(*op) {
		w.fail("%s cannot carry a tenant header", OpName(*op))
	}
	rest(w, inner)
}

// EncodeTenant serialises a TENANT envelope body around an inner
// request. Only queue-class opcodes may be wrapped.
func EncodeTenant(h TenantHeader, innerOp byte, innerBody []byte) ([]byte, error) {
	var w wire
	return w.encode(nil, OpTenant, func() { tenant(&w, &h.Tenant, &h.Namespace, &innerOp, &innerBody) })
}

// DecodeTenant parses a TENANT envelope body; innerBody aliases body.
func DecodeTenant(body []byte) (h TenantHeader, innerOp byte, innerBody []byte, err error) {
	w := decoding(OpTenant, body)
	tenant(&w, &h.Tenant, &h.Namespace, &innerOp, &innerBody)
	return h, innerOp, innerBody, w.done()
}

// DecodeTenantBytes is DecodeTenant for a router: the tenant and the
// namespace alias body instead of being copied into strings, so looking
// the tenant up and hashing the routing key allocate nothing.
func DecodeTenantBytes(body []byte) (tenantName, namespace []byte, innerOp byte, innerBody []byte, err error) {
	w := decoding(OpTenant, body)
	tenant(&w, &tenantName, &namespace, &innerOp, &innerBody)
	return tenantName, namespace, innerOp, innerBody, w.done()
}

// partialFlagPartial is the MATCHES-PARTIAL flags bit saying at least
// one shard is missing from the result.
const partialFlagPartial byte = 1 << 0

// matchesPartial is the OpMatchesPartial layout: u8 flags (bit 0
// partial), u16 shards answered, u16 shards missed, then a MATCHES list.
func matchesPartial(w *wire, partial *bool, shardsOK, shardsFailed *uint16, ms *[]RuleMatch) {
	f := flag(*partial, partialFlagPartial)
	flags(w, &f, partialFlagPartial)
	*partial = f != 0
	num(w, shardsOK)
	num(w, shardsFailed)
	matches(w, ms)
}

// EncodeMatchesPartial serialises an OpMatchesPartial body.
func EncodeMatchesPartial(partial bool, shardsOK, shardsFailed uint16, ms []RuleMatch) []byte {
	var w wire
	return w.mustEncode(nil, OpMatchesPartial, func() { matchesPartial(&w, &partial, &shardsOK, &shardsFailed, &ms) })
}

// DecodeMatchesPartial parses an OpMatchesPartial body.
func DecodeMatchesPartial(body []byte) (partial bool, shardsOK, shardsFailed uint16, ms []RuleMatch, err error) {
	w := decoding(OpMatchesPartial, body)
	matchesPartial(&w, &partial, &shardsOK, &shardsFailed, &ms)
	return partial, shardsOK, shardsFailed, ms, w.done()
}

// MaxBatchItems bounds one SCAN-BATCH frame. The frame size cap already
// bounds the bytes; this bounds the per-item bookkeeping a hostile
// count field could otherwise demand before any payload is parsed.
const MaxBatchItems = 4096

// scanBatch is the OpScanBatch layout: u32 item count (at most
// MaxBatchItems), then per item u32 length and the payload.
func scanBatch(w *wire, items *[][]byte) {
	count(w, items, MaxBatchItems)
	for i := range *items {
		prefixed[uint32](w, &(*items)[i], math.MaxInt)
	}
}

// EncodeScanBatch serialises an OpScanBatch body.
func EncodeScanBatch(items [][]byte) ([]byte, error) {
	var w wire
	return w.encode(nil, OpScanBatch, func() { scanBatch(&w, &items) })
}

// DecodeScanBatch parses an OpScanBatch body; the items alias body.
func DecodeScanBatch(body []byte) (items [][]byte, err error) {
	w := decoding(OpScanBatch, body)
	scanBatch(&w, &items)
	return items, w.done()
}

// BatchItemResult is one payload's outcome inside an OpBatchResp body:
// either its match list (Code 0) or its isolated failure. One item
// failing never discards its neighbours' results.
type BatchItemResult struct {
	Matches []RuleMatch
	Code    byte // 0 = ok, otherwise an ERROR code
	Msg     string
}

// Failed reports whether the item carries an error instead of matches.
func (r BatchItemResult) Failed() bool { return r.Code != 0 }

// batchResults is the OpBatchResp layout: u32 item count (at most
// MaxBatchItems), then per item a u8 status — 0 and a MATCHES list, or
// 1, u8 error code, u16 message length and the message. A message too
// long for its length field is clipped, never refused.
func batchResults(w *wire, results *[]BatchItemResult) {
	count(w, results, MaxBatchItems)
	for i := range *results {
		r := &(*results)[i]
		status := flag(r.Failed(), 1)
		num(w, &status)
		switch status {
		case 0:
			matches(w, &r.Matches)
		case 1:
			num(w, &r.Code)
			msg := r.Msg[:min(len(r.Msg), math.MaxUint16)]
			prefixed[uint16](w, &msg, math.MaxUint16)
			if w.mode == reading {
				r.Msg = msg
			}
		default:
			w.fail("item %d has unknown status %d", i, status)
		}
	}
}

// EncodeBatchResults serialises an OpBatchResp body. It answers one
// SCAN-BATCH, so it never holds more than MaxBatchItems results.
func EncodeBatchResults(results []BatchItemResult) []byte { return AppendBatchResults(nil, results) }

// AppendBatchResults appends an OpBatchResp body to dst.
func AppendBatchResults(dst []byte, results []BatchItemResult) []byte {
	var w wire
	return w.mustEncode(dst, OpBatchResp, func() { batchResults(&w, &results) })
}

// DecodeBatchResults parses an OpBatchResp body.
func DecodeBatchResults(body []byte) (results []BatchItemResult, err error) {
	w := decoding(OpBatchResp, body)
	batchResults(&w, &results)
	return results, w.done()
}

// MaxSessionOverlap caps the per-session overlap a SESSION-OPEN may
// request: the overlap is carry-over memory the server holds for the
// session's whole lifetime, so a hostile open cannot demand more than
// one frame's worth.
const MaxSessionOverlap = DefaultMaxFrame

// SessionOpenFlagCheckpoint, set in the flags byte of SESSION-OPEN or
// SESSION-RESTORE, negotiates checkpoints for the stream: its SESSION-OK
// carries the rule generation, and every non-final SESSION-MATCHES
// piggybacks the post-frame checkpoint — the state a relay needs to
// restore the session elsewhere after losing this shard.
const SessionOpenFlagCheckpoint byte = 1 << 0

// sessionOpenKnownFlags guards the flags byte: unknown bits are a
// malformed frame, so a future flag can never be silently ignored.
const sessionOpenKnownFlags = SessionOpenFlagCheckpoint

// SessionStart is the body of the two requests that start a stream:
// SESSION-OPEN, a fresh stream, or SESSION-RESTORE, one seeded from a
// checkpoint a SESSION-MATCHES piggyback carried.
type SessionStart struct {
	Overlap uint32 // SESSION-OPEN: requested overlap, 0 for the server default
	Flags   byte   // SessionOpenFlagCheckpoint or 0
	Ckpt    []byte // non-nil: SESSION-RESTORE from this checkpoint
}

// sessionStart is the layout of both. SESSION-OPEN: u32 requested
// overlap (at most MaxSessionOverlap), then an optional u8 flags byte —
// absent means 0. SESSION-RESTORE: u8 flags, then the checkpoint bytes.
// Their content is the restoring server's to judge, so a sender passes
// any bytes through and only a receiver refuses an empty checkpoint.
func sessionStart(w *wire, s *SessionStart) {
	if w.op == OpSessionRestore {
		flags(w, &s.Flags, sessionOpenKnownFlags)
		rest(w, &s.Ckpt)
		if w.mode == reading && len(s.Ckpt) == 0 {
			w.fail("empty checkpoint")
		}
		return
	}
	num(w, &s.Overlap)
	if s.Overlap > MaxSessionOverlap {
		w.fail("overlap %d exceeds %d", s.Overlap, MaxSessionOverlap)
	}
	if w.more(s.Flags != 0) {
		flags(w, &s.Flags, sessionOpenKnownFlags)
	}
}

// EncodeSessionStart serialises s as the request that starts its
// stream: SESSION-RESTORE when s carries a checkpoint, else SESSION-OPEN.
func EncodeSessionStart(s SessionStart) (op byte, body []byte, err error) {
	op = OpSessionOpen
	if s.Ckpt != nil {
		op = OpSessionRestore
	}
	var w wire
	body, err = w.encode(nil, op, func() { sessionStart(&w, &s) })
	return op, body, err
}

// DecodeSessionStart parses a SESSION-OPEN or SESSION-RESTORE body, as
// op says; a restore's Ckpt aliases body.
func DecodeSessionStart(op byte, body []byte) (s SessionStart, err error) {
	w := decoding(op, body)
	sessionStart(&w, &s)
	return s, w.done()
}

// sessionOK is the OpSessionOK layout: u64 session id, u32 effective
// overlap, then — for a stream that negotiated checkpoints — u32 rule
// generation, the failover fence: a checkpoint may only be restored
// onto a shard running the generation it was exported under.
func sessionOK(w *wire, negotiated byte, id *uint64, overlap, generation *uint32) {
	num(w, id)
	num(w, overlap)
	if negotiated&SessionOpenFlagCheckpoint != 0 {
		num(w, generation)
	}
}

// EncodeSessionOK serialises an OpSessionOK body for a stream started
// with the given flags.
func EncodeSessionOK(id uint64, overlap, generation uint32, negotiated byte) []byte {
	var w wire
	return w.mustEncode(nil, OpSessionOK, func() { sessionOK(&w, negotiated, &id, &overlap, &generation) })
}

// DecodeSessionOK parses an OpSessionOK body answering a start with the
// given flags; generation is 0 unless they negotiated checkpoints.
func DecodeSessionOK(body []byte, negotiated byte) (id uint64, overlap, generation uint32, err error) {
	w := decoding(OpSessionOK, body)
	sessionOK(&w, negotiated, &id, &overlap, &generation)
	return id, overlap, generation, w.done()
}

// sessionData is the OpSessionData layout: u64 session id, then the
// chunk, which may be empty — an empty push is a no-op probe.
// SESSION-CLOSE is the id alone.
func sessionData(w *wire, id *uint64, chunk *[]byte) {
	num(w, id)
	rest(w, chunk)
}

// EncodeSessionData serialises an OpSessionData body.
func EncodeSessionData(id uint64, chunk []byte) []byte {
	var w wire
	return w.mustEncode(nil, OpSessionData, func() { sessionData(&w, &id, &chunk) })
}

// DecodeSessionData parses an OpSessionData body; chunk aliases body.
func DecodeSessionData(body []byte) (id uint64, chunk []byte, err error) {
	w := decoding(OpSessionData, body)
	sessionData(&w, &id, &chunk)
	return id, chunk, w.done()
}

// EncodeSessionClose serialises an OpSessionClose body.
func EncodeSessionClose(id uint64) []byte { return EncodeSessionData(id, nil) }

// DecodeSessionClose parses an OpSessionClose body.
func DecodeSessionClose(body []byte) (id uint64, err error) {
	w := decoding(OpSessionClose, body)
	num(&w, &id)
	return id, w.done()
}

// SessionID reads the u64 session id that leads a SESSION-DATA or
// SESSION-CLOSE body (op), whatever follows it.
func SessionID(op byte, body []byte) (id uint64, err error) {
	w := decoding(op, body)
	num(&w, &id)
	return id, w.error()
}

// SESSION-MATCHES flags bits.
const (
	sessionFlagFinal byte = 1 << 0 // answers SESSION-CLOSE: the session is gone
	sessionFlagCkpt  byte = 1 << 1 // a checkpoint piggyback follows the MATCHES list
)

// sessionMatches is the OpSessionMatches layout: u8 flags (bit 0 final;
// bit 1 a checkpoint piggyback, known only to a stream that negotiated
// checkpoints), u64 consumed stream bytes, a MATCHES list with absolute
// stream offsets, then for a piggyback u32 length and the non-empty
// checkpoint — exactly what SESSION-RESTORE accepts.
func sessionMatches[L matchList](w *wire, negotiated byte, final *bool, consumed *uint64, ms *L, ckpt *[]byte) {
	f := flag(*final, sessionFlagFinal) | flag(len(*ckpt) > 0, sessionFlagCkpt)
	flags(w, &f, sessionFlagFinal|flag(negotiated&SessionOpenFlagCheckpoint != 0, sessionFlagCkpt))
	*final = f&sessionFlagFinal != 0
	num(w, consumed)
	matches(w, ms)
	if f&sessionFlagCkpt != 0 {
		prefixed[uint32](w, ckpt, math.MaxInt)
		if len(*ckpt) == 0 {
			w.fail("empty checkpoint")
		}
	}
}

// EncodeSessionMatches serialises an OpSessionMatches body; an empty
// ckpt sends no piggyback.
func EncodeSessionMatches(final bool, consumed uint64, ms []RuleMatch, ckpt []byte) []byte {
	return AppendSessionMatches(nil, final, consumed, ms, ckpt)
}

// AppendSessionMatches appends an OpSessionMatches body to dst, its
// list given decoded or, by a relay, as the wire records it received.
func AppendSessionMatches[L matchList](dst []byte, final bool, consumed uint64, ms L, ckpt []byte) []byte {
	var w wire
	return w.mustEncode(dst, OpSessionMatches, func() {
		sessionMatches(&w, SessionOpenFlagCheckpoint, &final, &consumed, &ms, &ckpt)
	})
}

// EncodeSessionMatchesCkpt is EncodeSessionMatches under the name the
// benchmark module calls.
func EncodeSessionMatchesCkpt(final bool, consumed uint64, ms []RuleMatch, ckpt []byte) []byte {
	return EncodeSessionMatches(final, consumed, ms, ckpt)
}

// DecodeSessionMatches parses an OpSessionMatches body of a stream
// started with the given flags; ckpt is nil unless a piggyback rode the
// frame, and aliases body when one did.
func DecodeSessionMatches(body []byte, negotiated byte) (final bool, consumed uint64, ms []RuleMatch, ckpt []byte, err error) {
	w := decoding(OpSessionMatches, body)
	sessionMatches(&w, negotiated, &final, &consumed, &ms, &ckpt)
	return final, consumed, ms, ckpt, w.done()
}

// DecodeSessionMatchesBytes is DecodeSessionMatches for a relay: the
// list stays wire records aliasing body, so forwarding the answer
// builds no list.
func DecodeSessionMatchesBytes(body []byte, negotiated byte) (final bool, consumed uint64, recs MatchRecords, ckpt []byte, err error) {
	w := decoding(OpSessionMatches, body)
	sessionMatches(&w, negotiated, &final, &consumed, &recs, &ckpt)
	return final, consumed, recs, ckpt, w.done()
}
