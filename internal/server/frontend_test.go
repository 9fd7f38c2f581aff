// Shell conformance: the scan server and the gateway are both a
// server.Shell and a server.SessionTable plus their own dispatch, so
// every test that only exercises the shell or the table (framing
// faults, write deadlines, drain, session ownership, caps, reaping)
// runs once per front end through eachFrontEnd.
package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"alveare/internal/gateway"
	"alveare/internal/server"
)

// frontOpts is the configuration the shell-level tests vary; both
// front ends' Configs carry these fields under the same names.
type frontOpts struct {
	MaxFrame           int
	WriteTimeout       time.Duration
	MaxSessions        int
	SessionIdleTimeout time.Duration
	SessionPending     int
	// Workers and ScanHook configure the scan workers: the server's own,
	// or those of the one shard behind the gateway.
	Workers  int
	ScanHook func()
}

// frontEnd is what the shell-level tests need of either program.
type frontEnd interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	Close() error
	SessionCount() int
}

var frontEnds = []struct {
	name  string
	build func(*testing.T, frontOpts) frontEnd
}{
	{"server", func(t *testing.T, o frontOpts) frontEnd {
		srv, err := server.New(server.Config{
			Rules: streamRules, Workers: o.Workers, ScanHook: o.ScanHook,
			MaxFrame: o.MaxFrame, WriteTimeout: o.WriteTimeout, MaxSessions: o.MaxSessions,
			SessionIdleTimeout: o.SessionIdleTimeout, SessionPending: o.SessionPending,
		})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		return srv
	}},
	// A gateway over one shard, with a default tenant so the bare frames
	// the tests send are routed.
	{"gateway", func(t *testing.T, o frontOpts) frontEnd {
		_, shard := startServer(t, server.Config{Rules: streamRules, Workers: o.Workers, ScanHook: o.ScanHook})
		gw, err := gateway.New(gateway.Config{
			Backends: []string{shard}, Tenants: []gateway.Tenant{{Name: "t"}}, DefaultTenant: "t",
			ReconcileInterval: -1, Seed: 7,
			MaxFrame: o.MaxFrame, WriteTimeout: o.WriteTimeout, MaxSessions: o.MaxSessions,
			SessionIdleTimeout: o.SessionIdleTimeout, SessionPending: o.SessionPending,
		})
		if err != nil {
			t.Fatalf("gateway.New: %v", err)
		}
		return gw
	}},
}

// eachFrontEnd runs one shell-level test against the server and against
// the gateway. build returns the front end unserved; most tests want
// serve instead.
func eachFrontEnd(t *testing.T, run func(t *testing.T, build func(frontOpts) frontEnd)) {
	for _, fe := range frontEnds {
		fe := fe
		t.Run(fe.name, func(t *testing.T) {
			t.Cleanup(leakCheck(t))
			run(t, func(o frontOpts) frontEnd { return fe.build(t, o) })
		})
	}
}

// serve runs fe on a loopback port. Cleanup shuts it down (idempotent,
// so tests that drain it themselves are fine) and waits for Serve.
func serve(t *testing.T, fe frontEnd) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- fe.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fe.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}
