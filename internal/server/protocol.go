// Package server turns the scanning library into a long-running
// network service: a TCP listener speaking a small length-prefixed
// binary protocol, a worker pool with bounded admission feeding the
// concurrent RuleSet scanner, and a rule database that hot-reloads by
// atomic snapshot swap — the library-to-appliance step the paper's
// deep-packet-inspection deployment model implies (Snort rule sets
// over network traffic, the BlueField-2 DPU baseline's niche).
//
// This file is the framing. Every message is one frame:
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
// buffering the body. codec.go holds the layout of every body.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Request opcodes (client → server). codec.go holds each body's layout.
const (
	OpPing        byte = 0x01 // liveness probe, empty body
	OpScan        byte = 0x02 // body = payload; scan against the loaded rule set
	OpCount       byte = 0x03 // body = payload; respond with the total match count
	OpScanPattern byte = 0x04 // scan with one ad-hoc pattern
	OpRulesInfo   byte = 0x05 // empty body; describe the loaded rule snapshot
	OpReload      byte = 0x06 // body = rules text (one RE per line); hot-swap the rule set
	OpStats       byte = 0x07 // empty body; respond with the server metrics snapshot
	OpTenant      byte = 0x08 // gateway envelope: tenant header + inner queue-class request
	OpScanBatch   byte = 0x09 // many payloads, per-item results
	OpSessionOpen byte = 0x0A // open a streaming session
	OpSessionData byte = 0x0B // push one chunk into a session
	// OpSessionClose finalises a streaming session: the overlap tail is
	// scanned as the stream's final window and the session is released.
	OpSessionClose byte = 0x0C
	// OpSessionRestore opens a streaming session seeded from an exported
	// checkpoint. Answered like SESSION-OPEN; a garbage checkpoint
	// answers a parseable ERROR without desyncing the connection.
	OpSessionRestore byte = 0x0D
)

// Response opcodes (server → client; high bit set).
const (
	OpPong      byte = 0x81 // answers OpPing, empty body
	OpMatches   byte = 0x82 // answers OpScan/OpScanPattern
	OpCountResp byte = 0x83 // answers OpCount
	OpInfo      byte = 0x85 // answers OpRulesInfo
	OpReloadOK  byte = 0x86 // answers OpReload
	OpStatsResp byte = 0x87 // answers OpStats; body = metrics snapshot JSON
	// OpMatchesPartial answers a gateway scatter-gather OpScanPattern
	// whose fan-out did not cover every shard. A shard that failed or
	// was excluded is always accounted here — never silently dropped.
	OpMatchesPartial byte = 0x8A
	OpBatchResp      byte = 0x8B // answers OpScanBatch
	OpSessionOK      byte = 0x8C // answers OpSessionOpen and OpSessionRestore
	OpSessionMatches byte = 0x8D // answers OpSessionData and OpSessionClose
	OpError          byte = 0xE0 // any request
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

// shedReasonNames spells the SHED reasons; 0 is the plain server's
// reasonless SHED.
var shedReasonNames = [256]string{0: "unspecified", ShedReasonQueue: "queue-full",
	ShedReasonQuota: "quota", ShedReasonFairQ: "fair-queue", ShedReasonCapacity: "capacity"}

// ShedReasonName spells a SHED reason for diagnostics.
func ShedReasonName(r byte) string {
	if name := shedReasonNames[r]; name != "" {
		return name
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
func WriteFrame(w io.Writer, f Frame) error { return WriteFramePrefixed(w, f, nil) }

// WriteFramePrefixed writes f with prefix in front of its body, as one
// frame in one Write: an envelope (EncodeTenant's output for an empty
// inner body) around f.Body, without first copying f.Body into an
// envelope of its own.
func WriteFramePrefixed(w io.Writer, f Frame, prefix []byte) error {
	_, err := writeFrame(w, f.Op, f.ID, func(buf []byte) []byte { return append(append(buf, prefix...), f.Body...) })
	return err
}

// writeFrame is every frame write: the header, then whatever body
// appends to the pooled frame buffer — bytes the caller holds, or a
// layout the codec walks straight into it (Conn.WriteBody) — written
// in one Write. It returns the frame's size on the wire.
func writeFrame(w io.Writer, op byte, id uint32, body func(buf []byte) []byte) (int, error) {
	bp := frameBufs.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0, op)
	buf = body(binary.BigEndian.AppendUint32(buf, id))
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := w.Write(buf)
	n := len(buf)
	if cap(buf) <= DefaultMaxFrame {
		*bp = buf
		frameBufs.Put(bp)
	}
	return n, err
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
	if err := readHeader(r, hdr[:4]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < minFrameLen {
		return Frame{}, fmt.Errorf("%w: length %d below minimum %d", ErrMalformedFrame, n, minFrameLen)
	}
	if int64(n) > int64(max) {
		return Frame{}, fmt.Errorf("%w: length %d > limit %d", ErrFrameTooLarge, n, max)
	}
	if err := readHeader(r, hdr[4:]); err != nil {
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

// readHeader fills dst, a slice of ReadFrame's header array, as
// io.ReadFull would. Through an io.ByteReader (the bufio.Reader every
// reader loop puts in front of ReadFrame) it copies byte by byte, so
// dst never reaches an interface call and the header stays on the
// caller's stack; any other reader costs one small allocation.
func readHeader(r io.Reader, dst []byte) error {
	br, ok := r.(io.ByteReader)
	if !ok {
		buf := make([]byte, len(dst))
		_, err := io.ReadFull(r, buf)
		copy(dst, buf)
		return err
	}
	for i := range dst {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 {
				return unexpectedEOF(err)
			}
			return err
		}
		dst[i] = b
	}
	return nil
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers
// can tell a torn frame from a clean close.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
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

// opNames spells every opcode, request and response.
var opNames = [256]string{
	OpPing: "PING", OpScan: "SCAN", OpCount: "COUNT", OpScanPattern: "SCAN-PATTERN",
	OpRulesInfo: "RULES-INFO", OpReload: "RELOAD", OpStats: "STATS", OpTenant: "TENANT",
	OpScanBatch: "SCAN-BATCH", OpSessionOpen: "SESSION-OPEN", OpSessionData: "SESSION-DATA",
	OpSessionClose: "SESSION-CLOSE", OpSessionRestore: "SESSION-RESTORE",
	OpPong: "PONG", OpMatches: "MATCHES", OpCountResp: "COUNT-RESP", OpInfo: "INFO",
	OpReloadOK: "RELOAD-OK", OpStatsResp: "STATS-RESP", OpMatchesPartial: "MATCHES-PARTIAL",
	OpBatchResp: "BATCH-RESP", OpSessionOK: "SESSION-OK", OpSessionMatches: "SESSION-MATCHES",
	OpError: "ERROR", OpShed: "SHED",
}

// OpName returns the opcode's protocol name, for diagnostics.
func OpName(op byte) string {
	if name := opNames[op]; name != "" {
		return name
	}
	return fmt.Sprintf("OP-0x%02X", op)
}
