// Package stream implements chunked scanning of unbounded data
// streams: a Scanner consumes an io.Reader in configurable chunks,
// carries an overlap tail across chunk boundaries, and emits matches
// incrementally — the whole input is never resident, only one window
// of ChunkSize+Overlap bytes.
//
// The discipline is the sequential counterpart of the multicore
// engine's divide and conquer (paper §6): every window extends
// Overlap bytes past the region it finalises, so a match that begins
// near a boundary completes inside the extended window. The results
// are byte-identical to a one-shot Core.FindAll over the whole input
// provided no match is longer than Overlap bytes; longer matches are
// the scheme's documented blind spot (the same trade the BlueField-2
// DPU's 16 KiB jobs make). The equivalence is exact, not heuristic:
// within a window the scanner only finalises matches that start at
// least Overlap bytes before the window's end, and a leftmost-first
// attempt at such a start can only diverge from the one-shot attempt
// by matching past the window — which needs a match longer than the
// overlap.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"

	"alveare/internal/arch"
	"alveare/internal/isa"
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

// Finder is the execution interface the scanner drives: one leftmost
// search from a resume offset, honouring ctx. *arch.Core implements it;
// internal/core wraps cores with policy-applying finders (safe-engine
// fallback, skip containment) that slot in transparently.
type Finder interface {
	FindFromCtx(ctx context.Context, data []byte, from int) (arch.Match, bool, error)
}

// Config parameterises a Scanner. The zero value selects the defaults.
type Config struct {
	// ChunkSize is the refill granularity; non-positive selects
	// DefaultChunkSize. It may be smaller than Overlap: the window then
	// grows across refills until it covers one overlap.
	ChunkSize int
	// Overlap is the boundary carry in bytes — the longest match the
	// scanner is guaranteed to report identically to a one-shot scan.
	// Non-positive selects DefaultOverlap.
	Overlap int
	// Screen, when set, brackets every window: it is handed the full
	// buffered window (carry tail plus new bytes) and the window's
	// search, and either runs search — which reports whether the
	// window emitted a match — and returns true, or asserts the window
	// holds no match by returning false without running it. The window
	// is then skipped and the resume position advances exactly as a
	// no-match search would, so a sound screen (one that never skips a
	// window containing a match) leaves results byte-identical. The
	// admission-automaton first stage (internal/approx) plugs in here.
	Screen func(window []byte, search func() (hit bool)) (admitted bool)
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.Overlap <= 0 {
		c.Overlap = DefaultOverlap
	}
	return c
}

// EmitFunc receives one match as it is finalised. text is the matched
// bytes inside the scanner's window buffer — valid only during the
// call; copy it to retain it. Returning false stops the scan.
type EmitFunc func(m arch.Match, text []byte) bool

// Counters accumulates stream-throughput telemetry: how many windows
// the scan searched, how many bytes it consumed from the reader, and
// how many matches it emitted. An attached accumulator survives across
// Scan calls, so an engine can roll up a whole session. Counters follow
// the scanner's single-goroutine discipline.
type Counters struct {
	Windows int64
	Bytes   int64
	Matches int64
}

// Scanner scans unbounded streams with one execution finder.
type Scanner struct {
	f   Finder
	cfg Config
	ctr *Counters
}

// SetCounters attaches (or, with nil, detaches) a throughput
// accumulator updated by every subsequent Scan.
func (s *Scanner) SetCounters(c *Counters) { s.ctr = c }

// New builds a scanner with a private core for the compiled program.
func New(p *isa.Program, hw arch.Config, cfg Config) (*Scanner, error) {
	core, err := arch.NewCore(p, hw)
	if err != nil {
		return nil, err
	}
	return ForFinder(core, cfg), nil
}

// ForFinder wraps an arbitrary finder — the hook the engine layer uses
// to scan through a policy-applying wrapper instead of a bare core. The
// scanner inherits the finder's single-goroutine discipline.
func ForFinder(f Finder, cfg Config) *Scanner {
	return &Scanner{f: f, cfg: cfg.withDefaults()}
}

// Scan consumes r to EOF, emitting every match in stream order.
// It returns the number of bytes consumed from r. The scan stops early
// without error when emit returns false.
func (s *Scanner) Scan(r io.Reader, emit EmitFunc) (int64, error) {
	return s.ScanCtx(context.Background(), r, emit)
}

// ScanCtx is Scan with cooperative cancellation: ctx is checked at
// every window boundary and, through the finder, every
// arch.CancelCheckCycles simulated cycles inside a window. Errors are
// positional — a *ReadError for refill failures and between-window
// cancellation, an *arch.ExecError (rebased to absolute stream offsets)
// for execution faults.
//
// The scan is Window.Fill's pull loop over one Window and one resume
// position: the same window machine core.Stream runs with a position
// per rule, so the paths cannot diverge.
func (s *Scanner) ScanCtx(ctx context.Context, r io.Reader, emit EmitFunc) (int64, error) {
	w := NewWindow(s.cfg.Overlap, 0, nil)
	var (
		windows, matches int64
		pos              int
		final, cont      bool
		werr             error
	)
	count := func(m arch.Match, text []byte) bool {
		matches++
		return emit(m, text)
	}
	// search is one window's pass through the finder; whether it runs
	// is Screen's call, so it lives outside the loop as one closure.
	search := func() (hit bool) {
		before := matches
		pos, cont, werr = ScanWindowCtx(ctx, s.f, w.Bytes(), w.Base(), final, w.Overlap(), pos, count)
		return matches > before
	}
	err := w.Fill(ctx, r, s.cfg.ChunkSize, func(_ int, last bool) (bool, error) {
		windows++
		final, cont, werr = last, true, nil
		if s.cfg.Screen == nil {
			search()
		} else if !s.cfg.Screen(w.Bytes(), search) {
			// Proven match-free: any match a later window may report
			// starts inside the carry tail and reappears there whole.
			pos = w.CleanAdvance(pos, final)
		}
		if cont && werr == nil && !final {
			w.Carry(pos)
		}
		return cont, werr
	})
	if s.ctr != nil {
		s.ctr.Windows += windows
		s.ctr.Bytes += int64(w.Limit())
		s.ctr.Matches += matches
	}
	return int64(w.Limit()), err
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
// The helper is shared by Scanner and by the rule-set streaming scan,
// which runs one resume position per rule over a common window buffer.
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

// FindAll collects every match in the stream (the input itself is
// still processed window by window; only the match list is buffered).
func (s *Scanner) FindAll(r io.Reader) ([]arch.Match, error) {
	var out []arch.Match
	_, err := s.Scan(r, func(m arch.Match, _ []byte) bool {
		out = append(out, m)
		return true
	})
	return out, err
}

// Count returns the number of matches in the stream.
func (s *Scanner) Count(r io.Reader) (int, error) {
	n := 0
	_, err := s.Scan(r, func(arch.Match, []byte) bool { n++; return true })
	return n, err
}
