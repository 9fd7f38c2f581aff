package core

import (
	"context"
	"errors"

	"alveare/internal/arch"
	"alveare/internal/stream"
)

// Stream is a resumable push-mode scan of one unbounded flow against
// every rule — the state a scan-service streaming session carries
// across frames: one stream.Window plus, per rule, a resume offset and
// the degraded/retired state the failure policy left it in. Each
// pushed chunk is scanned as one window of the overlap discipline with
// one resume position per rule, the cross-rule literal prefilter run
// per window, fast-path gating intact and per-rule degraded/retired
// state carried between pushes; the emitted matches are byte-identical
// to RuleSet.ScanReader over the concatenated flow (matches longer
// than the overlap are the scheme's documented blind spot, exactly as
// there).
//
// ScanReaderCtx is the pull-mode loop over this same state machine, so
// the two paths cannot diverge. A Stream is single-caller: pushes must
// be serialised (the scan service's session registry enforces this);
// the RuleSet underneath stays safe for concurrent use by other scans.
type Stream struct {
	rs     *RuleSet
	win    stream.Window
	pos    []int // per-rule resume offsets
	sticky []bool
	// slow marks the rules whose gate bailed earlier in the flow: like a
	// one-shot scan's, a stream's gate stays off for the rest of it.
	slow []bool
	dead []error
	done bool
}

// NewStream opens push-mode carry-over state for the rule set.
// Non-positive overlap selects the rule set's configured overlap
// (WithOverlap, default stream.DefaultOverlap).
func (rs *RuleSet) NewStream(overlap int) *Stream {
	if overlap <= 0 {
		overlap = rs.stream.Overlap
	}
	if overlap <= 0 {
		overlap = stream.DefaultOverlap
	}
	return rs.newStream(stream.NewWindow(overlap, 0, nil))
}

// newStream allocates a stream's per-rule state over win, for NewStream
// and RestoreStream alike.
func (rs *RuleSet) newStream(win stream.Window) *Stream {
	n := rs.Len()
	flags := make([]bool, 2*n) // sticky, then slow: one allocation
	return &Stream{rs: rs, win: win, pos: make([]int, n), sticky: flags[:n:n], slow: flags[n:], dead: make([]error, n)}
}

// Overlap returns the boundary carry in bytes — the longest match the
// stream is guaranteed to report identically to a one-shot scan.
func (st *Stream) Overlap() int { return st.win.Overlap() }

// Consumed returns the total stream bytes absorbed so far.
func (st *Stream) Consumed() int64 { return int64(st.win.Limit()) }

// PushCtx scans chunk as the flow's next window. emit is called
// sequentially, rules in rule order, with absolute stream offsets;
// text aliases the window buffer and is valid only during the call.
// cont is false when emit stopped the scan (the stream is then
// finished). Under FailFast a rule fault aborts and finishes the
// stream; under Degrade/Skip the faulting rule is retired and its
// error surfaces from FinishCtx. An empty chunk is a no-op window.
func (st *Stream) PushCtx(ctx context.Context, chunk []byte, emit func(rule int, m Match, text []byte) bool) (cont bool, err error) {
	if st.done {
		return false, stream.ErrSessionFinished
	}
	if cerr := ctx.Err(); cerr != nil {
		st.rs.noteCancel()
		st.done = true
		return false, scanErrFor(-1, &stream.ReadError{Offset: st.Consumed(), Err: cerr})
	}
	st.win.Append(chunk)
	return st.window(ctx, len(chunk), false, emit)
}

// FinishCtx scans the carry-over tail as the flow's final window and
// returns the joined retirement errors of rules the policy contained
// mid-stream. The stream cannot be pushed to afterwards.
func (st *Stream) FinishCtx(ctx context.Context, emit func(rule int, m Match, text []byte) bool) (cont bool, err error) {
	if st.done {
		return false, stream.ErrSessionFinished
	}
	cont, werr := st.window(ctx, 0, true, emit)
	st.done = true
	if werr != nil {
		return false, werr
	}
	return cont, errors.Join(st.dead...)
}

// windowPass is one window of a stream as fanOut's callbacks see it.
// It travels by value, so the per-window final flag needs neither a
// closure nor a field that outlives the window.
type windowPass struct {
	st    *Stream
	final bool
}

// cleanRule advances rule i past a window a tier proved match-free for
// it (the approx screen for every rule, the prefilter for one whose
// literal is absent) exactly as a no-match stream.ScanWindowCtx pass
// would, so the skip is byte-identical: a match straddling the window
// boundary starts inside the carry tail and reappears whole — and is
// screened again — in the next window.
func (p windowPass) cleanRule(i int) {
	p.st.pos[i] = p.st.win.CleanAdvance(p.st.pos[i], p.final)
}

// scanRule is rule i's scan of the window, run on a fanOut worker;
// only the rule's own slots are written. A panic drops what the rule had
// found: ms is set once the window scan returns.
func (p windowPass) scanRule(ctx context.Context, i int, buf []byte, stats *arch.Stats, fst *FastStats) (ms []Match, err error) {
	st := p.st
	defer recoverRule(i, int64(st.pos[i]), &err)
	ln, err := st.rs.borrow(i, st.sticky[i], stats, fst)
	if err != nil {
		return nil, err
	}
	if ln.gate != nil {
		ln.gate.dead = st.slow[i]
	}
	var found []Match
	st.pos[i], _, err = stream.ScanWindowCtx(ctx, probeFinder(&ln.g, ln.gate), buf, st.win.Base(), p.final, st.win.Overlap(), st.pos[i],
		func(m Match, _ []byte) bool {
			found = append(found, m)
			return true
		})
	st.slow[i] = ln.gate != nil && ln.gate.dead
	st.sticky[i] = st.rs.giveBack(i, ln, stats, fst)
	return found, scanErrFor(i, err)
}

// window runs one window pass over the buffered bytes: the rule set's
// tier chain (fanOut) with each dispatched rule's window scan, delivery
// of what it found and (on a non-final continuing window) the overlap
// carry. nr is the byte count this window added, for the throughput
// roll-up.
func (st *Stream) window(ctx context.Context, nr int, final bool, emit func(rule int, m Match, text []byte) bool) (bool, error) {
	rs, w := st.rs, &st.win
	if u := fanOut(ctx, rs, windowPass{st, final}, w.Bytes(), 1, int64(nr), st.dead, windowPass.cleanRule, windowPass.scanRule); u != nil {
		cont, err := st.deliver(u, emit)
		rs.release(u)
		if !cont {
			st.done = true
			return false, err
		}
	}
	if final {
		st.done = true
	} else {
		// Every live rule's resume offset is at or past the owned end
		// (ScanWindowCtx and CleanAdvance both guarantee it).
		w.Carry(w.OwnEnd(false))
	}
	return true, nil
}

// deliver hands one window's results on: retirement of the rules the
// policy contained, then deterministic emission. cont is false when the
// stream ends here — on a rule's error (cancellation, or any under
// FailFast) or because emit stopped it.
func (st *Stream) deliver(u *unit, emit func(rule int, m Match, text []byte) bool) (cont bool, err error) {
	rs, w := st.rs, &st.win
	for _, i := range u.list {
		switch rerr := u.res[i].err; {
		case rerr == nil:
		case isCancel(rerr):
			rs.noteCancel()
			return false, rerr
		case rs.policy == FailFast:
			return false, rerr
		default:
			// Retire the rule; the stream scan outlives it. Park its
			// resume offset past the stream so a stale offset can never
			// fault the carry-over arithmetic.
			st.dead[i], st.pos[i] = rerr, w.Limit()
		}
	}
	buf, base := w.Bytes(), w.Base()
	var emitted int64
	cont = true
emission:
	for _, i := range u.list {
		for _, m := range u.res[i].ms {
			emitted++
			if cont = emit(int(i), m, buf[m.Start-base:m.End-base]); !cont {
				break emission
			}
		}
	}
	if emitted > 0 {
		rs.mu.Lock()
		rs.streamCtr.Matches += emitted
		rs.mu.Unlock()
	}
	return cont, nil
}
