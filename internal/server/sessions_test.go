package server_test

import (
	"testing"
	"time"

	"alveare/internal/metrics"
	"alveare/internal/server"
)

// fifoTable is a one-session table whose runner is driven by hand:
// Schedule accepts without queueing anything, and the test calls Run.
func fifoTable(t *testing.T, pending int, exec func(s *server.Session[struct{}, int], item int)) (*server.SessionTable[struct{}, int], *server.Session[struct{}, int]) {
	t.Helper()
	reg := metrics.New()
	tbl := server.NewSessionTable(server.SessionConfig[struct{}, int]{
		Max: 1, Pending: pending, Idle: time.Hour,
		Schedule: func(*server.Session[struct{}, int]) bool { return true },
		Exec:     func(s *server.Session[struct{}, int], item int, _ bool) { exec(s, item) },
		Active:   reg.Gauge("sessions.active"),
		Reaped:   reg.Counter("sessions.reaped"),
	})
	s := tbl.Open(&server.Conn{}, struct{}{})
	if s == nil {
		t.Fatal("Open refused the first session")
	}
	return tbl, s
}

// TestSessionTableFIFOOrder: a FIFO kept three deep — the reader
// pushing while the runner drains, so it never empties — hands frames
// to Exec in arrival order, a full FIFO sheds, and order holds across
// the drain that empties it.
func TestSessionTableFIFOOrder(t *testing.T) {
	const total = 50
	var tbl *server.SessionTable[struct{}, int]
	next, pushed := 0, 0
	push := func(s *server.Session[struct{}, int]) {
		if v := tbl.Push(s, pushed); v != server.SessionQueued {
			t.Fatalf("Push(%d) = %d, want queued", pushed, v)
		}
		pushed++
	}
	tbl, s := fifoTable(t, 4, func(s *server.Session[struct{}, int], item int) {
		if item != next {
			t.Fatalf("Exec got frame %d, want %d", item, next)
		}
		next++
		if pushed < total {
			push(s) // arrives while the runner drains: the FIFO stays three deep
		}
	})
	for i := 0; i < 3; i++ {
		push(s)
	}
	tbl.Run(s)
	if next != total {
		t.Fatalf("ran %d frames, want %d", next, total)
	}

	for i := 0; i < 4; i++ {
		push(s)
	}
	if v := tbl.Push(s, pushed); v != server.SessionShed {
		t.Fatalf("Push into a full FIFO = %d, want shed", v)
	}
	pushed = total + 4 // nothing more arrives while this drain runs
	tbl.Run(s)
	if next != total+4 {
		t.Fatalf("ran %d frames, want %d", next, total+4)
	}
}

// TestSessionTableFIFOAllocations: the FIFO reuses its array, so once
// it has grown, admitting and running frames allocates nothing. It used
// to walk its slice off the array and re-allocate on every push after
// a drain.
func TestSessionTableFIFOAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ran := 0
	tbl, s := fifoTable(t, 8, func(*server.Session[struct{}, int], int) { ran++ })
	n := testing.AllocsPerRun(1000, func() {
		tbl.Push(s, 1)
		tbl.Push(s, 2)
		tbl.Run(s)
	})
	if n != 0 || ran != 2*1001 {
		t.Errorf("push/run cycle allocates %v times (%d frames run), want 0 (%d)", n, ran, 2*1001)
	}
}
