package stream

import (
	"context"
	"errors"
	"io"
)

// ErrSessionFinished reports a push into a stream whose flow has
// already been finalised (the final window ran, the scan faulted, or
// emit stopped it) — the carry-over state is gone and cannot be
// resumed.
var ErrSessionFinished = errors.New("stream: session already finished")

// Window is the buffered window of the overlap discipline: the bytes
// not yet finalised (the carry tail plus whatever the latest refill or
// push added) and the stream offset they start at. It is the one
// window machine every streaming path holds — Scanner pairs it with a
// single resume position, core.Stream with one per rule — so growing,
// carrying, the owned end and the no-match advance are each decided
// here and nowhere else. A Window is single-goroutine.
type Window struct {
	buf     []byte
	base    int // stream offset of buf[0]
	overlap int
}

// NewWindow returns a window whose buffered bytes are carry (owned by
// the window from here on) starting at stream offset base; a fresh
// stream passes 0 and nil, a restored one its checkpoint's values.
func NewWindow(overlap, base int, carry []byte) Window {
	return Window{buf: carry, base: base, overlap: overlap}
}

// Overlap returns the boundary carry in bytes — the longest match the
// window discipline reports identically to a one-shot scan.
func (w *Window) Overlap() int { return w.overlap }

// Base returns the stream offset of the first buffered byte.
func (w *Window) Base() int { return w.base }

// Bytes returns the buffered window; it is valid until the next
// Append, Fill refill or Carry.
func (w *Window) Bytes() []byte { return w.buf }

// Limit returns the stream offset one past the last buffered byte —
// the total bytes absorbed so far.
func (w *Window) Limit() int { return w.base + len(w.buf) }

// grow extends the window by n bytes and returns the new region for
// the caller to fill.
func (w *Window) grow(n int) []byte {
	have := len(w.buf)
	if cap(w.buf) < have+n {
		nb := make([]byte, have, have+n+w.overlap)
		copy(nb, w.buf)
		w.buf = nb
	}
	w.buf = w.buf[:have+n]
	return w.buf[have:]
}

// Append adds chunk to the window — the push-mode refill.
func (w *Window) Append(chunk []byte) { copy(w.grow(len(chunk)), chunk) }

// OwnEnd returns the end of the region this window finalises: matches
// starting at or past it are re-found, with full read-ahead, by the
// next window. The final window owns everything it holds.
func (w *Window) OwnEnd(final bool) int {
	if final {
		return w.Limit()
	}
	return max(w.Limit()-w.overlap, w.base)
}

// CleanAdvance returns where resume offset pos stands once this window
// is known to hold no match from pos on: every owned offset is cleared
// (a match starting before OwnEnd would have been wholly visible), and
// a final window parks the offset past the stream.
func (w *Window) CleanAdvance(pos int, final bool) int {
	if final {
		return w.Limit() + 1
	}
	return max(pos, w.OwnEnd(false))
}

// Carry drops the bytes before stream offset from (clamped to the
// window) and keeps the rest as the next window's head. Callers pass
// an offset at or past OwnEnd(false), so at most Overlap bytes stay
// resident between windows.
func (w *Window) Carry(from int) {
	from = min(max(from, w.base), w.Limit())
	w.buf = w.buf[:copy(w.buf, w.buf[from-w.base:])]
	w.base = from
}

// Fill is the pull-mode driver: it refills the window from r, chunk
// bytes at a time, and hands each refilled window to step with the
// byte count the refill added and whether the stream ended there (the
// final window may hold only the carry). step scans the window and,
// unless it was final, carries the tail; it stops the loop by
// returning false or an error, which Fill returns as is. A refill that
// fails, or a ctx found cancelled at a window boundary, is a
// *ReadError at Limit — the first byte that was not delivered, the
// exact point a caller can resume from.
func (w *Window) Fill(ctx context.Context, r io.Reader, chunk int, step func(n int, final bool) (cont bool, err error)) error {
	for final := false; !final; {
		if err := ctx.Err(); err != nil {
			return &ReadError{Offset: int64(w.Limit()), Err: err}
		}
		have := len(w.buf)
		n, err := io.ReadFull(r, w.grow(chunk))
		w.buf = w.buf[:have+n]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			final = true
		default:
			return &ReadError{Offset: int64(w.Limit()), Err: err}
		}
		if cont, err := step(n, final); err != nil || !cont {
			return err
		}
	}
	return nil
}
