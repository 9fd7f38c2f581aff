package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"alveare/internal/server"
)

// An attempt bounded by WithAttemptTimeout fails with
// context.DeadlineExceeded after its timeout, every time the recycled
// timer bounds it, and leaves no waiter behind.
func TestAttemptTimeoutIsDeadlineExceeded(t *testing.T) {
	const timeout = 30 * time.Millisecond
	fs := newFakeSrv(t, func(net.Conn, server.Frame) bool { return true }) // read, never answer
	c, err := Dial(fs.addr(), WithAttemptTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := c.Ping(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempt %d against a stalled server = %v, want deadline exceeded", i, err)
		}
		if d := time.Since(start); d < timeout {
			t.Fatalf("attempt %d timed out after %v, before its %v bound", i, d, timeout)
		}
	}
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d waiter entries left behind after attempt timeouts", n)
	}
}

// A timer that fired while its attempt ended another way is drained
// before it is recycled: its tick must not end the next attempt on it
// the moment that attempt begins.
func TestStopTimerDrainsUnreceivedTick(t *testing.T) {
	tm := startTimer(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // the timer fires; nothing receives
	received := false
	stopTimer(tm, &received)
	select {
	case <-tm.C:
		t.Fatal("a stale tick survived stopTimer")
	default:
	}
}
