// Package server turns the scanning library into a long-running
// network service: a TCP listener speaking a small length-prefixed
// binary protocol, a worker pool with bounded admission feeding the
// concurrent RuleSet scanner, and a rule database that hot-reloads by
// atomic snapshot swap — the library-to-appliance step the paper's
// deep-packet-inspection deployment model implies (Snort rule sets
// over network traffic, the BlueField-2 DPU baseline's niche).
//
// This file is the wire format. Every message is one frame:
//
//	offset  size  field
//	0       4     length  — uint32 big-endian, bytes after this field
//	4       1     opcode
//	5       4     id      — request id, echoed verbatim in the response
//	9       ...   body    — length-5 bytes, opcode-specific
//
// The length field covers the opcode, id and body, so the smallest
// legal frame has length 5 (empty body). Frames above the receiver's
// limit (DefaultMaxFrame unless configured) are rejected without
// buffering the body. docs/PROTOCOL.md documents the byte-level layout
// of every body; the golden tests in protocol_test.go pin it.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Request opcodes (client → server).
const (
	OpPing        byte = 0x01 // liveness probe, empty body
	OpScan        byte = 0x02 // body = payload; scan against the loaded rule set
	OpCount       byte = 0x03 // body = payload; respond with the total match count
	OpScanPattern byte = 0x04 // body = u16 pattern-len, pattern, payload; ad-hoc single pattern
	OpRulesInfo   byte = 0x05 // empty body; describe the loaded rule snapshot
	OpReload      byte = 0x06 // body = rules text (one RE per line); hot-swap the rule set
	OpStats       byte = 0x07 // empty body; respond with the server metrics snapshot
	OpTenant      byte = 0x08 // gateway envelope: tenant header + inner queue-class request
	OpScanBatch   byte = 0x09 // body = u32 count, count × (u32 len, payload); per-item results
	OpSessionOpen byte = 0x0A // body = u32 requested overlap; open a streaming session
	OpSessionData byte = 0x0B // body = u64 session id, chunk bytes; push one stream chunk
	// OpSessionClose finalises a streaming session: the overlap tail is
	// scanned as the stream's final window and the session is released.
	OpSessionClose byte = 0x0C // body = u64 session id
	// OpSessionRestore opens a streaming session seeded from an exported
	// checkpoint (the body a SESSION-MATCHES piggyback carried): u8
	// flags (same bits as the SESSION-OPEN flags byte), then the
	// checkpoint bytes. Answered like SESSION-OPEN; a garbage checkpoint
	// answers a parseable ERROR without desyncing the connection.
	OpSessionRestore byte = 0x0D
)

// Response opcodes (server → client; high bit set).
const (
	OpPong      byte = 0x81 // answers OpPing, empty body
	OpMatches   byte = 0x82 // answers OpScan/OpScanPattern; body = match list
	OpCountResp byte = 0x83 // answers OpCount; body = u64 count
	OpInfo      byte = 0x85 // answers OpRulesInfo; body = generation + patterns
	OpReloadOK  byte = 0x86 // answers OpReload; body = u32 generation, u32 rule count
	OpStatsResp byte = 0x87 // answers OpStats; body = metrics snapshot JSON
	// OpMatchesPartial answers a gateway scatter-gather OpScanPattern
	// whose fan-out did not cover every shard: u8 flags, u16 shards
	// answered, u16 shards missed, then a standard MATCHES body. A
	// shard that failed or was excluded is always accounted here —
	// never silently dropped.
	OpMatchesPartial byte = 0x8A
	OpBatchResp      byte = 0x8B // answers OpScanBatch; body = per-item results
	OpSessionOK      byte = 0x8C // answers OpSessionOpen; body = u64 id, u32 overlap
	// OpSessionMatches answers OpSessionData and OpSessionClose: u8
	// flags (bit 0 final), u64 consumed stream bytes, then a standard
	// MATCHES body whose offsets are absolute stream positions.
	OpSessionMatches byte = 0x8D
	OpError          byte = 0xE0 // any request; body = 1-byte code + utf-8 message
	// OpShed: admission control rejected the request. The body is
	// empty from a plain server; a gateway appends one optional reason
	// byte (see ShedReason*). Either form is a SHED.
	OpShed byte = 0xEE
)

// OpError body codes.
const (
	ErrCodeBadFrame      byte = 1 // malformed or unparseable request body
	ErrCodeCompile       byte = 2 // rule or ad-hoc pattern failed to compile
	ErrCodeScan          byte = 3 // the scan itself failed (fault, timeout)
	ErrCodeDraining      byte = 4 // server is shutting down, not accepting work
	ErrCodeUnknownTenant byte = 5 // gateway: TENANT names a tenant it does not serve
	// ErrCodeUnknownSession: a SESSION-DATA or SESSION-CLOSE named a
	// session the receiver does not hold — never opened here, already
	// closed, reaped idle, owned by another connection, or lost with a
	// dead shard. The stream state is gone; the client must re-open and
	// replay from its own copy of the flow.
	ErrCodeUnknownSession byte = 6
)

// SHED reason codes, the optional single body byte of a gateway SHED.
const (
	ShedReasonQueue    byte = 1 // a backend's admission queue was full
	ShedReasonQuota    byte = 2 // the tenant's rate quota was exhausted
	ShedReasonFairQ    byte = 3 // the tenant's fair-queue slot was full (noisy tenant)
	ShedReasonCapacity byte = 4 // no healthy shard accepted the work within the retry budget
)

// ShedReasonName spells a SHED reason for diagnostics; 0 is the plain
// server's reasonless SHED.
func ShedReasonName(r byte) string {
	switch r {
	case 0:
		return "unspecified"
	case ShedReasonQueue:
		return "queue-full"
	case ShedReasonQuota:
		return "quota"
	case ShedReasonFairQ:
		return "fair-queue"
	case ShedReasonCapacity:
		return "capacity"
	}
	return fmt.Sprintf("reason-0x%02X", r)
}

// DefaultMaxFrame bounds one frame (opcode + id + body) unless the
// server or client is configured otherwise: 1 MiB, comfortably above
// the DPI deployment's packet-sized payloads.
const DefaultMaxFrame = 1 << 20

// frameHeader is the fixed prefix: u32 length, u8 opcode, u32 id.
const frameHeader = 9

// readBufferSize sizes the bufio.Reader a connection's reader loop puts
// in front of ReadFrame, so a packet-sized frame costs about one read
// syscall, not three (length, opcode+id, body). Bodies larger than the
// buffer are still read straight into their own allocation.
const readBufferSize = 32 << 10

// minFrameLen is the smallest legal value of the length field
// (opcode + id, empty body).
const minFrameLen = 5

// Wire-format errors.
var (
	// ErrFrameTooLarge reports a frame whose length field exceeds the
	// receiver's limit; the body is never read.
	ErrFrameTooLarge = errors.New("server: frame exceeds size limit")
	// ErrMalformedFrame reports a structurally invalid frame: a length
	// below the opcode+id minimum, or a body that does not parse as its
	// opcode demands.
	ErrMalformedFrame = errors.New("server: malformed frame")
)

// Frame is one protocol message, either direction.
type Frame struct {
	Op   byte
	ID   uint32
	Body []byte
}

// frameBufs recycles WriteFrame's serialisation buffers. A buffer that
// grew past DefaultMaxFrame is dropped, not pooled: one oversized
// frame must not pin its memory for the life of the process.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame serialises f to w as one length-prefixed frame, header
// and body in a single Write: on a TCP_NODELAY socket that is one
// syscall and one segment train per frame.
func WriteFrame(w io.Writer, f Frame) error {
	bp := frameBufs.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*bp)[:0], uint32(minFrameLen+len(f.Body)))
	buf = append(buf, f.Op)
	buf = binary.BigEndian.AppendUint32(buf, f.ID)
	buf = append(buf, f.Body...)
	_, err := w.Write(buf)
	if cap(buf) <= DefaultMaxFrame {
		*bp = buf
		frameBufs.Put(bp)
	}
	return err
}

// ReadFrame reads one frame from r, rejecting frames whose length field
// exceeds max (non-positive max selects DefaultMaxFrame) before any
// body byte is buffered. A clean EOF at a frame boundary returns
// io.EOF; EOF inside a frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, max int) (Frame, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < minFrameLen {
		return Frame{}, fmt.Errorf("%w: length %d below minimum %d", ErrMalformedFrame, n, minFrameLen)
	}
	if int64(n) > int64(max) {
		return Frame{}, fmt.Errorf("%w: length %d > limit %d", ErrFrameTooLarge, n, max)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Frame{}, unexpectedEOF(err)
	}
	f := Frame{Op: hdr[4], ID: binary.BigEndian.Uint32(hdr[5:9])}
	if body := int(n) - minFrameLen; body > 0 {
		f.Body = make([]byte, body)
		if _, err := io.ReadFull(r, f.Body); err != nil {
			return Frame{}, unexpectedEOF(err)
		}
	}
	return f, nil
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers
// can tell a torn frame from a clean close.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// RuleMatch is one match in an OpMatches body: the matching rule's
// index in the loaded snapshot (always 0 for OpScanPattern) and the
// half-open byte interval in the scanned payload.
type RuleMatch struct {
	Rule       uint32
	Start, End uint64
}

// matchRecord is one RuleMatch on the wire: u32 rule, u64 start, u64 end.
const matchRecord = 4 + 8 + 8

// EncodeMatches serialises an OpMatches body: u32 count, then count
// records of (u32 rule, u64 start, u64 end).
func EncodeMatches(ms []RuleMatch) []byte {
	body := make([]byte, 4+matchRecord*len(ms))
	binary.BigEndian.PutUint32(body, uint32(len(ms)))
	off := 4
	for _, m := range ms {
		binary.BigEndian.PutUint32(body[off:], m.Rule)
		binary.BigEndian.PutUint64(body[off+4:], m.Start)
		binary.BigEndian.PutUint64(body[off+12:], m.End)
		off += matchRecord
	}
	return body
}

// DecodeMatches parses an OpMatches body.
func DecodeMatches(body []byte) ([]RuleMatch, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: matches body %d bytes", ErrMalformedFrame, len(body))
	}
	n := binary.BigEndian.Uint32(body)
	if uint64(len(body)-4) != uint64(n)*matchRecord {
		return nil, fmt.Errorf("%w: matches body %d bytes for count %d", ErrMalformedFrame, len(body), n)
	}
	if n == 0 {
		return nil, nil
	}
	ms := make([]RuleMatch, n)
	off := 4
	for i := range ms {
		ms[i] = RuleMatch{
			Rule:  binary.BigEndian.Uint32(body[off:]),
			Start: binary.BigEndian.Uint64(body[off+4:]),
			End:   binary.BigEndian.Uint64(body[off+12:]),
		}
		off += matchRecord
	}
	return ms, nil
}

// EncodeCount serialises an OpCountResp body: u64 total.
func EncodeCount(n uint64) []byte {
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, n)
	return body
}

// DecodeCount parses an OpCountResp body.
func DecodeCount(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: count body %d bytes", ErrMalformedFrame, len(body))
	}
	return binary.BigEndian.Uint64(body), nil
}

// EncodeScanPattern serialises an OpScanPattern body: u16 pattern
// length, the pattern, then the payload.
func EncodeScanPattern(pattern string, payload []byte) ([]byte, error) {
	if len(pattern) > 0xFFFF {
		return nil, fmt.Errorf("%w: pattern %d bytes exceeds u16", ErrMalformedFrame, len(pattern))
	}
	body := make([]byte, 2+len(pattern)+len(payload))
	binary.BigEndian.PutUint16(body, uint16(len(pattern)))
	copy(body[2:], pattern)
	copy(body[2+len(pattern):], payload)
	return body, nil
}

// DecodeScanPattern parses an OpScanPattern body. payload aliases body.
func DecodeScanPattern(body []byte) (pattern string, payload []byte, err error) {
	if len(body) < 2 {
		return "", nil, fmt.Errorf("%w: scan-pattern body %d bytes", ErrMalformedFrame, len(body))
	}
	plen := int(binary.BigEndian.Uint16(body))
	if len(body)-2 < plen {
		return "", nil, fmt.Errorf("%w: scan-pattern length %d exceeds body", ErrMalformedFrame, plen)
	}
	return string(body[2 : 2+plen]), body[2+plen:], nil
}

// Info describes the loaded rule snapshot: the hot-reload generation
// (0 for the rules the server started with, +1 per accepted OpReload)
// and the patterns in rule order.
type Info struct {
	Generation uint32
	Patterns   []string
}

// EncodeInfo serialises an OpInfo body: u32 generation, u32 rule
// count, then per rule u16 length + pattern bytes.
func EncodeInfo(info Info) ([]byte, error) {
	size := 8
	for _, p := range info.Patterns {
		if len(p) > 0xFFFF {
			return nil, fmt.Errorf("%w: pattern %d bytes exceeds u16", ErrMalformedFrame, len(p))
		}
		size += 2 + len(p)
	}
	body := make([]byte, size)
	binary.BigEndian.PutUint32(body, info.Generation)
	binary.BigEndian.PutUint32(body[4:], uint32(len(info.Patterns)))
	off := 8
	for _, p := range info.Patterns {
		binary.BigEndian.PutUint16(body[off:], uint16(len(p)))
		copy(body[off+2:], p)
		off += 2 + len(p)
	}
	return body, nil
}

// DecodeInfo parses an OpInfo body.
func DecodeInfo(body []byte) (Info, error) {
	if len(body) < 8 {
		return Info{}, fmt.Errorf("%w: info body %d bytes", ErrMalformedFrame, len(body))
	}
	info := Info{Generation: binary.BigEndian.Uint32(body)}
	n := binary.BigEndian.Uint32(body[4:])
	off := 8
	for i := uint32(0); i < n; i++ {
		if len(body)-off < 2 {
			return Info{}, fmt.Errorf("%w: info truncated at pattern %d", ErrMalformedFrame, i)
		}
		plen := int(binary.BigEndian.Uint16(body[off:]))
		off += 2
		if len(body)-off < plen {
			return Info{}, fmt.Errorf("%w: info pattern %d length %d exceeds body", ErrMalformedFrame, i, plen)
		}
		info.Patterns = append(info.Patterns, string(body[off:off+plen]))
		off += plen
	}
	if off != len(body) {
		return Info{}, fmt.Errorf("%w: info body has %d trailing bytes", ErrMalformedFrame, len(body)-off)
	}
	return info, nil
}

// EncodeReloadOK serialises an OpReloadOK body: u32 generation, u32
// rule count.
func EncodeReloadOK(generation, rules uint32) []byte {
	body := make([]byte, 8)
	binary.BigEndian.PutUint32(body, generation)
	binary.BigEndian.PutUint32(body[4:], rules)
	return body
}

// DecodeReloadOK parses an OpReloadOK body.
func DecodeReloadOK(body []byte) (generation, rules uint32, err error) {
	if len(body) != 8 {
		return 0, 0, fmt.Errorf("%w: reload-ok body %d bytes", ErrMalformedFrame, len(body))
	}
	return binary.BigEndian.Uint32(body), binary.BigEndian.Uint32(body[4:]), nil
}

// EncodeError serialises an OpError body: 1-byte code + utf-8 message.
func EncodeError(code byte, msg string) []byte {
	body := make([]byte, 1+len(msg))
	body[0] = code
	copy(body[1:], msg)
	return body
}

// DecodeError parses an OpError body.
func DecodeError(body []byte) (code byte, msg string, err error) {
	if len(body) < 1 {
		return 0, "", fmt.Errorf("%w: empty error body", ErrMalformedFrame)
	}
	return body[0], string(body[1:]), nil
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

// EncodeTenant serialises a TENANT envelope body: u8 tenant length,
// tenant, u8 namespace length, namespace, u8 inner opcode, inner
// body. Only queue-class opcodes (SCAN, COUNT, SCAN-PATTERN, RELOAD)
// may be wrapped.
func EncodeTenant(h TenantHeader, innerOp byte, innerBody []byte) ([]byte, error) {
	if h.Tenant == "" {
		return nil, fmt.Errorf("%w: empty tenant", ErrMalformedFrame)
	}
	if len(h.Tenant) > MaxTenantName || len(h.Namespace) > MaxTenantName {
		return nil, fmt.Errorf("%w: tenant header field exceeds %d bytes", ErrMalformedFrame, MaxTenantName)
	}
	if !QueueClass(innerOp) {
		return nil, fmt.Errorf("%w: %s cannot carry a tenant header", ErrMalformedFrame, OpName(innerOp))
	}
	body := make([]byte, 0, 3+len(h.Tenant)+len(h.Namespace)+len(innerBody))
	body = append(body, byte(len(h.Tenant)))
	body = append(body, h.Tenant...)
	body = append(body, byte(len(h.Namespace)))
	body = append(body, h.Namespace...)
	body = append(body, innerOp)
	body = append(body, innerBody...)
	return body, nil
}

// DecodeTenant parses a TENANT envelope body; innerBody aliases body.
func DecodeTenant(body []byte) (h TenantHeader, innerOp byte, innerBody []byte, err error) {
	if len(body) < 1 {
		return h, 0, nil, fmt.Errorf("%w: empty tenant envelope", ErrMalformedFrame)
	}
	tlen := int(body[0])
	if tlen == 0 {
		return h, 0, nil, fmt.Errorf("%w: empty tenant", ErrMalformedFrame)
	}
	if tlen > MaxTenantName {
		return h, 0, nil, fmt.Errorf("%w: tenant %d bytes exceeds %d", ErrMalformedFrame, tlen, MaxTenantName)
	}
	if len(body) < 1+tlen+1 {
		return h, 0, nil, fmt.Errorf("%w: tenant envelope truncated in tenant", ErrMalformedFrame)
	}
	h.Tenant = string(body[1 : 1+tlen])
	rest := body[1+tlen:]
	nlen := int(rest[0])
	if nlen > MaxTenantName {
		return TenantHeader{}, 0, nil, fmt.Errorf("%w: namespace %d bytes exceeds %d", ErrMalformedFrame, nlen, MaxTenantName)
	}
	if len(rest) < 1+nlen+1 {
		return TenantHeader{}, 0, nil, fmt.Errorf("%w: tenant envelope truncated in namespace", ErrMalformedFrame)
	}
	h.Namespace = string(rest[1 : 1+nlen])
	innerOp = rest[1+nlen]
	if !QueueClass(innerOp) {
		return TenantHeader{}, 0, nil, fmt.Errorf("%w: tenant envelope wraps %s", ErrMalformedFrame, OpName(innerOp))
	}
	return h, innerOp, rest[1+nlen+1:], nil
}

// QueueClass reports whether op passes admission control into the
// worker queue — the class a TENANT envelope may wrap. PING,
// RULES-INFO and STATS answer inline and carry no tenant header.
// SESSION-DATA and SESSION-CLOSE are queue-class too, but serialise
// per session: a session's frames execute in arrival order, one at a
// time, through the same bounded queue.
func QueueClass(op byte) bool {
	switch op {
	case OpScan, OpCount, OpScanPattern, OpReload,
		OpScanBatch, OpSessionOpen, OpSessionRestore, OpSessionData, OpSessionClose:
		return true
	}
	return false
}

// PartialFlag bits of a MATCHES-PARTIAL body.
const partialFlagPartial byte = 1 << 0

// EncodeMatchesPartial serialises an OpMatchesPartial body: u8 flags
// (bit 0: at least one shard is missing from the result), u16 shards
// answered, u16 shards missed, then the standard MATCHES body.
func EncodeMatchesPartial(partial bool, shardsOK, shardsFailed uint16, ms []RuleMatch) []byte {
	inner := EncodeMatches(ms)
	body := make([]byte, 5+len(inner))
	if partial {
		body[0] |= partialFlagPartial
	}
	binary.BigEndian.PutUint16(body[1:3], shardsOK)
	binary.BigEndian.PutUint16(body[3:5], shardsFailed)
	copy(body[5:], inner)
	return body
}

// DecodeMatchesPartial parses an OpMatchesPartial body.
func DecodeMatchesPartial(body []byte) (partial bool, shardsOK, shardsFailed uint16, ms []RuleMatch, err error) {
	if len(body) < 5 {
		return false, 0, 0, nil, fmt.Errorf("%w: matches-partial body %d bytes", ErrMalformedFrame, len(body))
	}
	if body[0]&^partialFlagPartial != 0 {
		return false, 0, 0, nil, fmt.Errorf("%w: matches-partial unknown flags 0x%02X", ErrMalformedFrame, body[0])
	}
	ms, err = DecodeMatches(body[5:])
	if err != nil {
		return false, 0, 0, nil, err
	}
	return body[0]&partialFlagPartial != 0,
		binary.BigEndian.Uint16(body[1:3]), binary.BigEndian.Uint16(body[3:5]), ms, nil
}

// OpName returns the opcode's protocol name, for diagnostics.
func OpName(op byte) string {
	switch op {
	case OpPing:
		return "PING"
	case OpScan:
		return "SCAN"
	case OpCount:
		return "COUNT"
	case OpScanPattern:
		return "SCAN-PATTERN"
	case OpRulesInfo:
		return "RULES-INFO"
	case OpReload:
		return "RELOAD"
	case OpStats:
		return "STATS"
	case OpTenant:
		return "TENANT"
	case OpScanBatch:
		return "SCAN-BATCH"
	case OpSessionOpen:
		return "SESSION-OPEN"
	case OpSessionData:
		return "SESSION-DATA"
	case OpSessionClose:
		return "SESSION-CLOSE"
	case OpSessionRestore:
		return "SESSION-RESTORE"
	case OpPong:
		return "PONG"
	case OpMatches:
		return "MATCHES"
	case OpCountResp:
		return "COUNT-RESP"
	case OpInfo:
		return "INFO"
	case OpReloadOK:
		return "RELOAD-OK"
	case OpStatsResp:
		return "STATS-RESP"
	case OpMatchesPartial:
		return "MATCHES-PARTIAL"
	case OpBatchResp:
		return "BATCH-RESP"
	case OpSessionOK:
		return "SESSION-OK"
	case OpSessionMatches:
		return "SESSION-MATCHES"
	case OpError:
		return "ERROR"
	case OpShed:
		return "SHED"
	}
	return fmt.Sprintf("OP-0x%02X", op)
}
