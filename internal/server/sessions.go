// The ordered-session table: the registry, FIFO and single-runner
// scheduling behind SESSION-DATA / SESSION-CLOSE on both front ends.
//
// Ordering and concurrency: a session's frames must execute in arrival
// order, one at a time (the stream state is sequential), but a front
// end must not dedicate a worker per session or let one session block
// unrelated work. Each session therefore keeps a small FIFO of its
// admitted frames and schedules at most one runner into the front end's
// bounded queue; the runner drains the FIFO and retires. Admission
// control is preserved end to end — a full queue or a full session FIFO
// sheds, and an admitted frame is always answered (it is counted in its
// connection's Pending, which the drain waits on).
//
// Lifecycle: a session is bound to the connection that opened it (no
// cross-connection hijack; the connection's close reaps it), capped in
// number, bounded in memory (a bounded FIFO of frame-capped items), and
// reaped after Idle without traffic. A frame queued behind the one that
// closed the session is handed to Exec as closed — it is answered
// unknown-session, never executed.
package server

import (
	"slices"
	"sync"
	"time"

	"alveare/internal/metrics"
)

// SessionConfig parameterises a SessionTable. S is the front end's
// per-session state, T one queued frame.
type SessionConfig[S, T any] struct {
	// Max caps the open sessions; Pending caps one session's queued
	// frames; Idle is the no-traffic age past which a session is reaped.
	Max     int
	Pending int
	Idle    time.Duration
	// Schedule places one runner for s — a job that calls Run(s) from a
	// worker — into the front end's bounded queue without blocking, and
	// reports whether it fit.
	Schedule func(s *Session[S, T]) bool
	// Exec answers one queued frame on the runner's worker. closed
	// means an earlier frame ended the session: answer unknown-session.
	Exec func(s *Session[S, T], item T, closed bool)
	// Active tracks the open-session count; Reaped counts idle reaps.
	Active *metrics.Gauge
	Reaped *metrics.Counter
}

// Session is one open ordered session.
type Session[S, T any] struct {
	ID    uint64
	Owner *Conn
	// State is only touched by the session's single runner, so it needs
	// no lock of its own.
	State S

	mu      sync.Mutex
	pending []T  // admitted frames awaiting the runner, FIFO; its array is reused
	running bool // a runner is queued or draining the FIFO
	closed  bool
	last    time.Time // last activity, for idle reaping
}

// SessionTable is one front end's open sessions.
type SessionTable[S, T any] struct {
	cfg SessionConfig[S, T]

	mu   sync.Mutex
	open map[uint64]*Session[S, T]
	next uint64
}

// NewSessionTable builds an empty table.
func NewSessionTable[S, T any](cfg SessionConfig[S, T]) *SessionTable[S, T] {
	return &SessionTable[S, T]{cfg: cfg, open: map[uint64]*Session[S, T]{}}
}

// Open registers a new session owned by c, or returns nil at the Max
// cap. The cap check and the insert share one lock, so concurrent opens
// can never overshoot.
func (t *SessionTable[S, T]) Open(c *Conn, state S) *Session[S, T] {
	t.mu.Lock()
	if len(t.open) >= t.cfg.Max {
		t.mu.Unlock()
		return nil
	}
	t.next++
	s := &Session[S, T]{ID: t.next, Owner: c, State: state, last: time.Now()}
	t.open[s.ID] = s
	active := len(t.open)
	t.mu.Unlock()
	t.cfg.Active.Set(int64(active))
	return s
}

// Lookup resolves id for a frame that arrived on c. The owner check
// makes a session id useless off its connection: a stray or hostile
// frame cannot read another flow's matches or corrupt its carry state.
func (t *SessionTable[S, T]) Lookup(c *Conn, id uint64) *Session[S, T] {
	t.mu.Lock()
	s := t.open[id]
	t.mu.Unlock()
	if s == nil || s.Owner != c {
		return nil
	}
	return s
}

// Push verdicts.
const (
	SessionQueued = iota // item joined the FIFO and will be handed to Exec
	SessionGone          // the session closed first: answer unknown-session
	SessionShed          // FIFO or queue full: item was not absorbed, shed it
)

// Push admits one frame of s on its owner's reader goroutine (the only
// caller, so a session has one producer): append it to the FIFO and
// schedule a runner if none is active.
func (t *SessionTable[S, T]) Push(s *Session[S, T], item T) int {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SessionGone
	}
	if len(s.pending) >= t.cfg.Pending {
		s.mu.Unlock()
		return SessionShed
	}
	s.Owner.Pending.Add(1)
	s.pending = append(s.pending, item)
	start := !s.running
	s.running = true
	s.mu.Unlock()
	if start && !t.cfg.Schedule(s) {
		// No runner was active, so item is alone in the FIFO; take it
		// back.
		s.mu.Lock()
		s.pending = s.pending[:0]
		s.running = false
		s.mu.Unlock()
		s.Owner.Pending.Done()
		return SessionShed
	}
	return SessionQueued
}

// Run drains s's FIFO in arrival order. It holds one worker while
// frames are queued, then retires; the next frame schedules a fresh
// runner.
func (t *SessionTable[S, T]) Run(s *Session[S, T]) {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.running = false
			s.last = time.Now()
			s.mu.Unlock()
			return
		}
		// Shift the FIFO down rather than reslice past its head: a slice
		// walked off its array re-allocates on the next push.
		item := s.pending[0]
		s.pending = slices.Delete(s.pending, 0, 1)
		closed := s.closed
		s.mu.Unlock()
		t.cfg.Exec(s, item, closed)
		s.Owner.Pending.Done()
	}
}

// Close marks s closed and drops it from the table, reporting whether
// this call was the one that closed it.
func (t *SessionTable[S, T]) Close(s *Session[S, T]) bool {
	s.mu.Lock()
	was := s.closed
	s.closed = true
	s.mu.Unlock()
	if was {
		return false
	}
	t.mu.Lock()
	delete(t.open, s.ID)
	active := len(t.open)
	t.mu.Unlock()
	t.cfg.Active.Set(int64(active))
	return true
}

// ConnClosed reaps every session c owns — their owner is gone, so their
// ids are dead. The shell calls it after the connection's admitted
// frames were answered, so no runner can still be draining them.
func (t *SessionTable[S, T]) ConnClosed(c *Conn) {
	t.closeWhere(func(s *Session[S, T]) bool { return s.Owner == c })
}

// Reap closes sessions idle past cfg.Idle until stop closes — an
// abandoned flow on a connection that stays up must not hold a slot
// forever. A session with queued frames or an active runner is never
// reaped.
func (t *SessionTable[S, T]) Reap(stop <-chan struct{}) {
	sweep := t.cfg.Idle / 4
	if sweep <= 0 {
		sweep = time.Second
	}
	tick := time.NewTicker(sweep)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			n := t.closeWhere(func(s *Session[S, T]) bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				return !s.running && len(s.pending) == 0 && now.Sub(s.last) > t.cfg.Idle
			})
			t.cfg.Reaped.Add(int64(n))
		}
	}
}

// closeWhere closes every open session pick selects and returns how
// many this call closed.
func (t *SessionTable[S, T]) closeWhere(pick func(*Session[S, T]) bool) int {
	t.mu.Lock()
	var picked []*Session[S, T]
	for _, s := range t.open {
		if pick(s) {
			picked = append(picked, s)
		}
	}
	t.mu.Unlock()
	n := 0
	for _, s := range picked {
		if t.Close(s) {
			n++
		}
	}
	return n
}

// Count reports the open-session count.
func (t *SessionTable[S, T]) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}
