package server_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"alveare/internal/server"
	"alveare/internal/server/client"
)

// RequestTimeout (alvearesrv -request-timeout) bounds one scan: a scan
// that runs past it answers a typed scan ERROR instead of holding its
// worker, and the connection and the server go on serving.
func TestServerRequestTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	_, addr := startServer(t, server.Config{
		// The canonical runaway pair: (a|aa)+b over a run of a's with
		// no b backtracks exponentially in the exact engine, and both
		// skip tiers are off so nothing screens the run out first.
		Rules:          []string{`(a|aa)+b`, `alpha[0-9]+`},
		NoDFA:          true,
		NoApprox:       true,
		Workers:        1,
		RequestTimeout: timeout,
	})
	c := dial(t, addr)

	start := time.Now()
	_, err := c.Scan(append([]byte("b "), bytes.Repeat([]byte("a"), 64)...))
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != server.ErrCodeScan {
		t.Fatalf("runaway scan = %v, want a ServerError with code %d", err, server.ErrCodeScan)
	}
	if d := time.Since(start); d > 20*timeout {
		t.Errorf("runaway scan answered after %v, want about the %v timeout", d, timeout)
	}
	ms, err := c.Scan([]byte("xx alpha7 yy"))
	if err != nil || len(ms) != 1 {
		t.Fatalf("scan after the timeout = %v, %v; want one match", ms, err)
	}
}
