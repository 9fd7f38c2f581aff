// Package stream holds the overlap discipline every chunked scan of an
// unbounded stream follows: Window, the one buffered window machine
// (refill, owned end, clean advance, carry), and ScanWindowCtx, one
// resume position's pass over a window. core.Stream drives them — per
// rule, pushed by the scan service's sessions or pulled from an
// io.Reader by RuleSet.ScanReaderCtx, the one pull-mode driver, which
// an Engine's reader scans run through as a rule set of one. The whole
// input is never resident, only one window of ChunkSize+Overlap bytes.
//
// The discipline is the sequential counterpart of the multicore
// engine's divide and conquer (paper §6): every window extends
// Overlap bytes past the region it finalises, so a match that begins
// near a boundary completes inside the extended window. The results
// are byte-identical to a one-shot Core.FindAll over the whole input
// provided no match is longer than Overlap bytes; longer matches are
// the scheme's documented blind spot (the same trade the BlueField-2
// DPU's 16 KiB jobs make). The equivalence is exact, not heuristic:
// within a window a scan only finalises matches that start at least
// Overlap bytes before the window's end, and a leftmost-first attempt
// at such a start can only diverge from the one-shot attempt by
// matching past the window — which needs a match longer than the
// overlap.
package stream

import (
	"context"
	"errors"
	"fmt"

	"alveare/internal/arch"
)

// DefaultChunkSize is the refill granularity in bytes.
const DefaultChunkSize = 64 * 1024

// ReadError reports a stream-level failure at an absolute byte offset:
// a refill whose underlying reader failed, or a cancellation observed
// between windows. Offset is the stream position of the first byte that
// could not be processed, the exact point a caller can resume from.
type ReadError struct {
	Offset int64
	Err    error
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("stream: read at offset %d: %v", e.Offset, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// Finder is the execution interface a window pass drives: one leftmost
// search from a resume offset, honouring ctx. *arch.Core implements it;
// internal/core wraps cores with policy-applying finders (safe-engine
// fallback, skip containment) that slot in transparently.
type Finder interface {
	FindFromCtx(ctx context.Context, data []byte, from int) (arch.Match, bool, error)
}

// Config is a reader scan's window geometry. The zero value selects
// the defaults.
type Config struct {
	// ChunkSize is the refill granularity; non-positive selects
	// DefaultChunkSize. It may be smaller than Overlap: the window then
	// grows across refills until it covers one overlap.
	ChunkSize int
	// Overlap is the boundary carry in bytes — the longest match the
	// scan is guaranteed to report identically to a one-shot scan.
	// Non-positive selects DefaultOverlap.
	Overlap int
}

// EmitFunc receives one match as it is finalised. text is the matched
// bytes inside the window buffer — valid only during the
// call; copy it to retain it. Returning false stops the scan.
type EmitFunc func(m arch.Match, text []byte) bool

// Counters accumulates stream-throughput telemetry: how many windows
// a rule set's streams searched, how many bytes they consumed, and how
// many matches they emitted.
type Counters struct {
	Windows int64
	Bytes   int64
	Matches int64
}

// ScanWindowCtx advances the one-shot FindAll resume discipline over
// one buffered window covering stream offsets [base, base+len(buf)),
// with cooperative cancellation. pos is the absolute resume offset
// (>= base); the updated offset is returned. When final is false the
// window only finalises matches starting before its last overlap bytes
// — later starts are re-searched by the caller's next window, which
// must begin at or before the returned offset. cont reports whether
// the scan should continue (emit returned true throughout and no
// execution error occurred). Execution errors carrying a
// window-relative offset (*arch.ExecError) are rebased to absolute
// stream offsets before they are returned.
//
// core.Stream runs one resume position per rule over a common window
// buffer through it.
func ScanWindowCtx(ctx context.Context, f Finder, buf []byte, base int, final bool, overlap, pos int, emit EmitFunc) (npos int, cont bool, err error) {
	w := Window{buf: buf, base: base, overlap: overlap}
	limit, ownEnd := w.Limit(), w.OwnEnd(final)
	for pos <= limit {
		if !final && pos >= ownEnd {
			break
		}
		m, ok, ferr := f.FindFromCtx(ctx, buf, pos-base)
		if ferr != nil {
			var ee *arch.ExecError
			if errors.As(ferr, &ee) && ee.Offset <= len(buf) {
				ferr = &arch.ExecError{Offset: base + ee.Offset, Cycle: ee.Cycle, Err: ee.Err}
			}
			return pos, false, ferr
		}
		start, end := base+m.Start, base+m.End
		if !ok || (!final && start >= ownEnd) {
			// No match anywhere from pos on, or only a deferred one: it
			// starts inside the carry region and is re-found (with full
			// read-ahead) by the next window. Either way no owned offset
			// holds a match start.
			pos = w.CleanAdvance(pos, final)
			break
		}
		keep := emit(arch.Match{Start: start, End: end}, buf[start-base:end-base])
		if end > start {
			pos = end
		} else {
			pos = end + 1 // empty match: advance one byte, as FindAll does
		}
		if !keep {
			return pos, false, nil
		}
	}
	return pos, true, nil
}
